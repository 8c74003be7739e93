"""Golden digests: a pure refactor must leave every training artifact byte
for byte as it was.

The digests pin float bits, so they hold for one numpy/BLAS build; a change
that alters float bits on purpose records new digests and says why.

    PYTHONPATH=src python tests/test_golden.py

prints the current digests as the dict literals below, ready to paste.
The ``datagen`` digests pin the dataset CSV codec and were recorded before
it began to write in row blocks.  ``GRADCHECK_DIGEST`` pins every field of
the gradient check's reports and was recorded before the check began to
take its analytic gradients from one backward pass per loss; it was
widened from seeds 0-2 to seeds 0-19 before the oracle began to number the
checked entries as one flat vector.
``SCENARIO_DIGEST`` pins the scenario of seeds 0-19, each seed's first
draw.  Both were re-recorded when each seed's first draw became its
scenario and the perturbed copies began to replay the base point's relu
and clamp selections.  They held unchanged when the checks began to share
one tape and one stacked pass per scenario, and both were re-recorded
when the scenario's F gained a second hidden layer, the depth training
runs, which draws other arrays and checks more entries.  ``HELP_DIGESTS`` pins the text of ``renlab --help``
and of each subcommand's ``--help`` at 80 columns, so a change that adds,
drops or renames a flag shows here.  argparse's layout differs between
Python releases, so these hold for one Python build, as the float digests
hold for one numpy build.

Record history: the digests were first recorded before the CLI was rebuilt
on the trainer's config parser and ``run_ablation``.  Those that hash float
bits of a run with a discriminator were re-recorded when each adversarial
term began to run the discriminator once over the stacked source and target
rows: its weight gradient became one GEMM over all rows instead of the sum
of two, which moves the last bits.  ``source_only``, the manifests and
``ablation.json`` kept theirs.  The five ``manifest.json`` digests and the
two ``dataset.meta`` digests were re-recorded when the dataset's only
description became its recipe: ``dataset.meta`` now lists the seed and
every ``DataSpec`` field in field order, and the manifest lost its
``dataset_meta`` copy of the old nested generator dicts.  No array, CSV,
metrics file, checkpoint or run-directory name changed.  The run-directory
names, the five ``manifest.json`` digests and the ``train`` and ``ablate``
``HELP_DIGESTS`` were re-recorded when the ``consistency_squared`` switch
was deleted: the config, which the manifest records and the directory name
hashes, lost that key, and both commands lost its flag.  ``TRAIN_ARGS``
dropped ``--consistency-squared off``, which never reached a loss there,
because its config's ``cdan_m_d`` has no consistency term.  No metrics
file, checkpoint or ``ablation.json`` changed.  The five checkpoint digests
and the five ``manifest.json`` digests were re-recorded when the checkpoint
became ``checkpoint.npz``, an uncompressed .npz in place of the
``renlab-params 1`` text file, whose name the manifest's ``outputs`` gives.
The arrays it holds are the same bits; no metrics file, run-directory name
or ``ablation.json`` changed.  The run-directory names, the five
``manifest.json`` digests and the two ``dataset.meta`` digests were
re-recorded when ``DataSpec.trans``, the one pair-valued recipe field,
became the two floats ``trans_x`` and ``trans_y``: the data recipe, which
``dataset.meta`` lists, the manifest records and the directory name
hashes, swapped one key for two.  The flags kept their spelling, so
``HELP_DIGESTS`` held, as did every dataset CSV, metrics file, checkpoint
and ``ablation.json``.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from renlab import tensor as T
from renlab.checks import loss_check_suite, run_loss_checks
from renlab.cli import main
from renlab.datasets import standard_benchmark
from renlab.evaluation import metrics_to_csv
from renlab.trainer import VARIANTS, TrainConfig, run_ablation

# sha256 of metrics_to_csv per variant: seed 0, 300 steps, standard_benchmark(0)
ABLATION_DIGESTS = {
    "source_only": "fd3b5e107723077aafef3cc9bb8cd3d8399ab74a7f61afc9d419c9f0acd82e1f",
    "cdan": "52df9ff3550746efa21aebb2f02d08fb87e20c09d3ad33f8860831880f9a7dac",
    "cdan_m": "c1cb279d360b19f25a19e6e9bf78537019535982dae6fd6181539ee9f5662b28",
    "cdan_m_d": "6806ac69356602e251bf0cf3fc075b8e7be9b9aa9b78ca8177c2fc6af83c8e1f",
    "ren": "99b5e3323660c61e316e21b2b0eeb49c0e470575f546208be4898b2f68626cfe",
}

ABLATE_ARGS = ["ablate", "--variants", "ren,cdan", "--seeds", "1,0", "--n", "60",
               "--steps", "30", "--eval-every", "15", "--alpha-theta", "0.95",
               "--eta0", "0.02"]
TRAIN_CONFIG = ("variant = cdan_m_d\ntotal_steps = 50\neval_every = 10\n"
                "alpha_theta = 0.9\ngrl_ramp = off\n")
TRAIN_ARGS = ["train", "--steps", "30", "--gen", "blobs", "--classes", "3", "--n", "60"]

# sha256 of every file each command leaves under --out, by relative path
ABLATE_TREE = {
    "1ba98d057aba-s0/checkpoint.npz": "d007da978751043bbe63d57a1104c7cc3ea72b9c202c3974d2e92b5ff740c713",
    "1ba98d057aba-s0/manifest.json": "34fb4b84e5644255d34e9693a7e53b96872cf7e168d7c2bc39672b1da1530587",
    "1ba98d057aba-s0/metrics.csv": "c710fe873caf14e1bc3c71c64311a3018231a49cb18c9281ed527bd1e4c7160c",
    "595fa9d45a2c-s0/checkpoint.npz": "244245b9d45345b158c48ff839d2993861c1f340fb167a170c08959b540a28fa",
    "595fa9d45a2c-s0/manifest.json": "365701336a34925caa6845306939efa7058ecba57e94f2362328a1209f8ad3d4",
    "595fa9d45a2c-s0/metrics.csv": "3d607757af0c61e2adc93becbfb011128dd571b0935caf23a3606146816df3f2",
    "ablation.json": "ea39aa93eac92a3b57189ec482c99b1d1ffb864660b386c8d6271d2215aac629",
    "d99e13a97160-s1/checkpoint.npz": "62567ae8590dcd030821cdc5432499aad73eb38bf18c67a6517fd41dbadddfaf",
    "d99e13a97160-s1/manifest.json": "90c574e7636d2ed4b1770e95c6bf439d167bb79c4efe75c4ed31642f3d41c5b9",
    "d99e13a97160-s1/metrics.csv": "150ce51833265c2a9e1d78a917b8c6f2e837adf470ae1bbe3d6eb5d13227a6c4",
    "fe63bf52a852-s1/checkpoint.npz": "b98d506855ee73524f813687daee5771b9e46981d62369acad6a877259907cb2",
    "fe63bf52a852-s1/manifest.json": "ed5cb045e8b167133f66413737ae6c188215331fdf9934ccb32c5cf60ba86a25",
    "fe63bf52a852-s1/metrics.csv": "ee2fac386e54ea4834922f4ec603ecca98c5650bf4393b7af2d600cb43f7a864",
}
TRAIN_TREE = {
    "0081b164d507-s0/checkpoint.npz": "1878ca27b6d3e1a6d006a0f0313b33ba65ac0ac75465cce92d78d2324bf49cfb",
    "0081b164d507-s0/manifest.json": "52242c6fbc9395bbe8bb142cda6c6bc9950c5869bbd367c21b5a5673af2d7387",
    "0081b164d507-s0/metrics.csv": "49c30fa11975ba1f117804ec39015f4c1ddd77fcb6d632bfb70d1a13a7400eb7",
}


# sha256 of the two files each ``datagen`` run writes, by run name
DATAGEN_ARGS = {
    "defaults": [],
    "blobs": ["--gen", "blobs", "--classes", "6", "--imbalance", "3", "--lift-dim", "64",
              "--n", "300"],
}
DATAGEN_DIGESTS = {
    "defaults": {
        "dataset.csv": "0f9fc565a368b4e3964ba16c9441299fa828a465bdeadfa350db8aae395781d2",
        "dataset.meta": "634599379b93fe5ec01a2dd3df8c96b4e89839dee69e1e60ce7209d204814ed0",
    },
    "blobs": {
        "dataset.csv": "3ef068aaab2a28b4b4b455bb1a67361ccd4447708ac090401110cc1fc3805909",
        "dataset.meta": "89421d82706605070881774b67cafddb765670eb36c4ccb3c2c8c76b16a82981",
    },
}


# sha256 of the full-precision repr of run_loss_checks(seed) for seeds 0-19
GRADCHECK_SEEDS = range(20)
GRADCHECK_DIGEST = "9afd68de38d448ace4b29d4274c95ff910bca3c091ea9a0d631e0b9133857aac"

# sha256 over every LossCheck's name, parameter bytes and loss value, seeds 0-19
SCENARIO_SEEDS = range(20)
SCENARIO_DIGEST = "8cd1254db2e048adbda3c2813eb0a328289d1e6e2ad7248c67cbd74dc73c6df3"

# sha256 of ``renlab --help`` and of each subcommand's ``--help`` at COLUMNS=80
HELP_COMMANDS = ("", "datagen", "train", "ablate", "gradcheck", "report")
HELP_DIGESTS = {
    "renlab": "64f132546d29db0929e712b442f222f8ceb058a8014c2d509fba3b7f758288de",
    "renlab datagen": "081d76d9ebc1c353a4084d26ca1bc7a9753836e040ce25130dfe5cb135ef6cc1",
    "renlab train": "94687754cd2d70e243c966b2582d1531002d50349c969890118e3ae8dd029bee",
    "renlab ablate": "ee9ec27a48ce6ef9286b544f434be38643f109bc9bd728aaae127af4ac71e8f2",
    "renlab gradcheck": "31bc31230be6b37f5dad29c699c2d0f2b1c4bcba48522f64668c484c04844b2d",
    "renlab report": "e5cd0fb4cc0af8f64c19106faf70c21c74a3c0ead2ea639047b253015fc8e0f1",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digests(root) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): sha(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def ablation_digests() -> dict[str, str]:
    ds = standard_benchmark(0)
    runs = run_ablation(TrainConfig(total_steps=300), VARIANTS, [0], lambda seed: ds)
    return {v: sha(metrics_to_csv(r.records).encode()) for (v, _), r in runs.items()}


def cli_tree_digests(root) -> tuple[dict[str, str], dict[str, str]]:
    """Run the two CLI commands under ``root``; the digests of their trees."""
    assert main([*ABLATE_ARGS, "--out", str(root / "ablate")]) == 0
    cfg = root / "train.cfg"
    cfg.write_text(TRAIN_CONFIG)
    assert main([*TRAIN_ARGS, "--config", str(cfg), "--out", str(root / "train")]) == 0
    return tree_digests(root / "ablate"), tree_digests(root / "train")


def datagen_digests(root) -> dict[str, dict[str, str]]:
    """Run each ``datagen`` of DATAGEN_ARGS under ``root``; its files' digests."""
    for name, args in DATAGEN_ARGS.items():
        assert main(["datagen", *args, "--out", str(root / name)]) == 0
    return {name: tree_digests(root / name) for name in DATAGEN_ARGS}


def help_digests() -> dict[str, str]:
    """Each command's ``--help`` text at 80 columns, hashed by command line."""
    digests = {}
    for command in HELP_COMMANDS:
        argv = [command, "--help"] if command else ["--help"]
        out = io.StringIO()
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(out):
            try:
                main(argv)
            except SystemExit as exc:
                assert exc.code == 0
        digests[" ".join(["renlab", *argv[:-1]])] = sha(out.getvalue().encode())
    return digests


def gradcheck_digest() -> str:
    """One digest over every report field, floats at full precision."""
    return sha("\n".join(repr(run_loss_checks(s)) for s in GRADCHECK_SEEDS).encode())


def scenario_digest() -> str:
    """One digest over each seed's scenario, its first draw."""
    h = hashlib.sha256()
    for s in SCENARIO_SEEDS:
        for check in loss_check_suite(s):
            h.update(check.name.encode())
            for arr in check.params.values():
                h.update(arr.tobytes())
            h.update(repr(check.build(T.Graph())[0].item()).encode())
    return h.hexdigest()


def test_gradcheck_scenarios_match_golden_digest():
    assert scenario_digest() == SCENARIO_DIGEST


def test_gradcheck_reports_match_golden_digest():
    assert gradcheck_digest() == GRADCHECK_DIGEST


def test_cli_help_matches_golden_digests():
    assert help_digests() == HELP_DIGESTS


def test_datagen_files_match_golden_digests(tmp_path, capsys):
    assert datagen_digests(tmp_path) == DATAGEN_DIGESTS


def test_ablation_metrics_match_golden_digests():
    assert ablation_digests() == ABLATION_DIGESTS


def test_cli_run_trees_match_golden_digests(tmp_path, capsys):
    """Its manifest digests and run-directory names were last re-recorded
    when ``trans`` became ``trans_x`` and ``trans_y`` (see above)."""
    ablate, train = cli_tree_digests(tmp_path)
    assert ablate == ABLATE_TREE
    assert train == TRAIN_TREE


def _print_dict(name: str, digests: dict) -> None:
    print(f"{name} = {json.dumps(digests, indent=4)}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        ablate, train = cli_tree_digests(Path(tmp))
        datagen = datagen_digests(Path(tmp) / "datagen")
    _print_dict("ABLATION_DIGESTS", ablation_digests())
    _print_dict("ABLATE_TREE", ablate)
    _print_dict("TRAIN_TREE", train)
    _print_dict("DATAGEN_DIGESTS", datagen)
    _print_dict("HELP_DIGESTS", help_digests())
    print(f"GRADCHECK_DIGEST = {gradcheck_digest()!r}")
    print(f"SCENARIO_DIGEST = {scenario_digest()!r}")
