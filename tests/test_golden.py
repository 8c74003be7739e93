"""Golden digests: a pure refactor must leave every training artifact byte
for byte as it was.

The digests were recorded before the CLI was rebuilt on the trainer's
config parser and ``run_ablation``.  They pin float bits, so they hold for
one numpy/BLAS build; a change that alters float bits on purpose records
new digests and says why.
"""

import hashlib

from renlab.cli import main
from renlab.datasets import standard_benchmark
from renlab.evaluation import metrics_to_csv
from renlab.trainer import VARIANTS, TrainConfig, run_ablation

# sha256 of metrics_to_csv per variant: seed 0, 300 steps, standard_benchmark(0)
ABLATION_DIGESTS = {
    "source_only": "fd3b5e107723077aafef3cc9bb8cd3d8399ab74a7f61afc9d419c9f0acd82e1f",
    "cdan": "8600174e254b7a47c4777d69ab1a0f8d2ad5f59fbb52dd4fcb00b2e99e2f6e65",
    "cdan_m": "5dbc8fb6f1e911d70c21ed1ce04bbd2c469dad90adc5599c996aa5d5e343d6bc",
    "cdan_m_d": "a3c26890335ab7ecdcc8ee797efb032ebdcbd96b1eebfe844918e86b258c95eb",
    "ren": "5b1083efea2723bc38275e4250406a5ae8ea74396e279dbdcdad14138caad66b",
}

ABLATE_ARGS = ["ablate", "--variants", "ren,cdan", "--seeds", "1,0", "--n", "60",
               "--steps", "30", "--eval-every", "15", "--alpha-theta", "0.95",
               "--eta0", "0.02"]
TRAIN_CONFIG = ("variant = cdan_m_d\ntotal_steps = 50\neval_every = 10\n"
                "alpha_theta = 0.9\ngrl_ramp = off\n")
TRAIN_ARGS = ["train", "--steps", "30", "--gen", "blobs", "--classes", "3", "--n", "60",
              "--consistency-squared", "off"]

# sha256 of every file each command leaves under --out, by relative path
ABLATE_TREE = {
    "16a44f12860b-s0/checkpoint.txt": "5cb5dc2ab399f05ce9822b61058b11cffa3cc76521142c33f9a2bee7abd809ab",
    "16a44f12860b-s0/manifest.json": "7312581bac5fb8c6148d33e3dfa2cd4ae4b69736d69894a62250bdfa6b72e9e5",
    "16a44f12860b-s0/metrics.csv": "851215bdb32e60f94f83b7f1bc78e7da8b57b6d0e1b08b09d04e4c3f609a745d",
    "6d4820d05d26-s1/checkpoint.txt": "4e6a0ff3ed7181edccda80bc1ab6ae1240cb93c42946d8772d463c0aa9b63262",
    "6d4820d05d26-s1/manifest.json": "8becfb8891439389db0a4dcda71a8b51d049ef09da4b7b4d8c3d57ae3ab5bc70",
    "6d4820d05d26-s1/metrics.csv": "150ce51833265c2a9e1d78a917b8c6f2e837adf470ae1bbe3d6eb5d13227a6c4",
    "7b85e2d96bf5-s0/checkpoint.txt": "cb022e7c925e88f4a168e25790cb794dfb4452015a9754cd862948469eb70b30",
    "7b85e2d96bf5-s0/manifest.json": "96901cdcbba890c0280deffbd539db58d7a5c44cb210e193cdf0bb7df7ee570f",
    "7b85e2d96bf5-s0/metrics.csv": "d7d2a9c599d943c742f3aa5d75ad094c9145e7e13f4efbc004a7e6818c9afa70",
    "99addedb0b69-s1/checkpoint.txt": "7f89bf1d7b974a8b2c635ae624bb629986647417ac535724829b919758fdaa31",
    "99addedb0b69-s1/manifest.json": "375523315cab28709783ce2eef0156b4fea239b20de76021dc7c20e0081070fb",
    "99addedb0b69-s1/metrics.csv": "7776bc97b01f5471c76542ae8b8a559ad4d40a2e2cfd83e21eb7e0839c0de2d8",
    "ablation.json": "ea39aa93eac92a3b57189ec482c99b1d1ffb864660b386c8d6271d2215aac629",
}
TRAIN_TREE = {
    "247cc37bee57-s0/checkpoint.txt": "04d185ec8c8fb367e053f068bbd7747a6a2ab4531fc639e832570bf491fc46e2",
    "247cc37bee57-s0/manifest.json": "9dae092825ddfa96057b9522ce34d3b2ebae944c0721c9a0c134ff47fc11339e",
    "247cc37bee57-s0/metrics.csv": "59c4035d44be6b49d3b122b1ddbdff1cd02c4cb08bb94dbfb85b45cd1d30c649",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digests(root) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): sha(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_ablation_metrics_match_golden_digests():
    ds = standard_benchmark(0)
    runs = run_ablation(TrainConfig(total_steps=300), VARIANTS, [0], lambda seed: ds)
    got = {v: sha(metrics_to_csv(r.records).encode()) for (v, _), r in runs.items()}
    assert got == ABLATION_DIGESTS


def test_cli_run_trees_match_golden_digests(tmp_path, capsys):
    assert main([*ABLATE_ARGS, "--out", str(tmp_path / "ablate")]) == 0
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CONFIG)
    assert main([*TRAIN_ARGS, "--config", str(cfg), "--out", str(tmp_path / "train")]) == 0
    assert tree_digests(tmp_path / "ablate") == ABLATE_TREE
    assert tree_digests(tmp_path / "train") == TRAIN_TREE
