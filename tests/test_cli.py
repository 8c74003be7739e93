"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import ast
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import renlab.checks
import renlab.cli
from renlab.cli import build_parser, main
from renlab.datasets import (DataSpec, load_dataset, make_domain_dataset, save_dataset,
                             standard_benchmark)
from renlab.evaluation import load_metrics
from renlab.exceptions import ConfigError, ContractError
from renlab.networks import load_paramsets
from renlab.trainer import VARIANTS, TrainConfig, load_config


def run_train(out, extra=()):
    args = ["train", "--variant", "ren", "--n", "60", "--steps", "40",
            "--eval-every", "20", "--seed", "3", "--out", str(out), *extra]
    return main(args)


def test_datagen_writes_loadable_dataset(tmp_path):
    assert main(["datagen", "--n", "40", "--seed", "2", "--out", str(tmp_path)]) == 0
    ds = load_dataset(tmp_path / "dataset.csv")
    assert ds.n_source == 40 and ds.n_target == 40
    assert ds.input_dim == 16
    assert "rot = 45.0" in (tmp_path / "dataset.meta").read_text().splitlines()


def test_every_command_first_releases_the_free_heap(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(renlab.cli, "release_free_heap", lambda: calls.append(1))
    assert main(["datagen", "--n", "40", "--out", str(tmp_path)]) == 0
    assert main(["report", "--runs", str(tmp_path / "none")]) == 1
    assert calls == [1, 1]


def test_every_command_runs_on_one_blas_thread(tmp_path, monkeypatch, blas_threads):
    seen = []
    run, build = renlab.cli.Trainer.run, renlab.cli.make_domain_dataset

    def recording_run(self):
        seen.append(("run", blas_threads()))
        return run(self)

    def recording_build(spec, seed):
        seen.append(("build", blas_threads()))
        return build(spec, seed)

    monkeypatch.setattr(renlab.cli.Trainer, "run", recording_run)
    monkeypatch.setattr(renlab.cli, "make_domain_dataset", recording_build)
    assert main(["datagen", "--n", "40", "--out", str(tmp_path)]) == 0
    assert seen == [("build", 1)] and blas_threads() == 2
    assert run_train(tmp_path / "runs") == 0
    assert seen[1:] == [("build", 1), ("run", 1)] and blas_threads() == 2


def test_a_failing_command_gives_back_the_callers_blas_threads(tmp_path, monkeypatch,
                                                                 blas_threads):
    assert run_train(tmp_path, ["--eta0", "-1"]) == 1  # a ConfigError
    assert blas_threads() == 2

    def failing_run(self):
        raise RuntimeError("run failed")

    monkeypatch.setattr(renlab.cli.Trainer, "run", failing_run)
    with pytest.raises(RuntimeError, match="run failed"):
        run_train(tmp_path)
    assert blas_threads() == 2


def test_datagen_meta_records_each_domain_count(tmp_path):
    assert main(["datagen", "--n", "200", "--n-target", "50", "--out", str(tmp_path)]) == 0
    meta = (tmp_path / "dataset.meta").read_text().splitlines()
    assert "n = 200" in meta and "n_target = 50" in meta
    ds = load_dataset(tmp_path / "dataset.csv")
    assert (ds.n_source, ds.n_target) == (200, 50)


@pytest.mark.parametrize("flags", [
    [],
    ["--gen", "blobs", "--classes", "4", "--imbalance", "2", "--n", "60", "--n-target", "45",
     "--trans-x", "0.5", "--shift-noise", "0.3", "--lift-dim", "6", "--seed", "5"],
], ids=["defaults", "blobs"])
def test_datagen_meta_is_a_complete_recipe(tmp_path, flags):
    assert main(["datagen", *flags, "--out", str(tmp_path / "cli")]) == 0
    recipe = {}
    for line in (tmp_path / "cli" / "dataset.meta").read_text().splitlines():
        key, value = line.split(" = ", 1)
        recipe[key] = ast.literal_eval(value)
    seed = recipe.pop("seed")
    rebuilt = make_domain_dataset(DataSpec(**recipe), seed)
    save_dataset(rebuilt, tmp_path / "dataset.csv", tmp_path / "dataset.meta")
    for name in ("dataset.csv", "dataset.meta"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()


@pytest.mark.parametrize("seed", [0, 7])
def test_standard_benchmark_is_the_default_datagen_dataset(tmp_path, seed):
    assert main(["datagen", "--seed", str(seed), "--out", str(tmp_path / "cli")]) == 0
    save_dataset(standard_benchmark(seed), tmp_path / "dataset.csv", tmp_path / "dataset.meta")
    for name in ("dataset.csv", "dataset.meta"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()


# a value other than the default for every field of both recipes, and the
# flags that set them
EVERY_FIELD = DataSpec(gen="blobs", n=40, n_target=30, noise=0.2, classes=4, imbalance=2.0,
                       rot=30.0, trans_x=0.5, trans_y=-0.25, scale=1.5, shift_noise=0.1,
                       lift_dim=8, lift_noise=0.01)
EVERY_FIELD_FLAGS = ["--gen", "blobs", "--n", "40", "--n-target", "30", "--noise", "0.2",
                     "--classes", "4", "--imbalance", "2", "--rot", "30", "--trans-x", "0.5",
                     "--trans-y", "-0.25", "--scale", "1.5", "--shift-noise", "0.1",
                     "--lift-dim", "8", "--lift-noise", "0.01"]
EVERY_CONFIG = TrainConfig(eta0=0.02, anneal_alpha=5.0, anneal_beta=0.5, momentum=0.8,
                           batch_size=8, total_steps=2, alpha_theta=0.9, alpha_p=0.5,
                           lambda_stu=0.5, lambda_tea=2.0, gamma=3.0, grl_ramp=False,
                           gamma_ramp=False, eval_every=1, seed=3, variant="cdan_m_d",
                           feature_hidden=8, feature_dim=4, disc_hidden=8)
EVERY_CONFIG_FLAGS = ["--eta0", "0.02", "--anneal-alpha", "5", "--anneal-beta", "0.5",
                      "--momentum", "0.8", "--batch-size", "8", "--steps", "2",
                      "--alpha-theta", "0.9", "--alpha-p", "0.5", "--lambda-stu", "0.5",
                      "--lambda-tea", "2", "--gamma", "3", "--grl-ramp", "off",
                      "--gamma-ramp", "off", "--eval-every", "1", "--feature-hidden", "8",
                      "--feature-dim", "4", "--disc-hidden", "8"]
RUN_FLAGS = ["--seed", "3", "--variant", "cdan_m_d"]  # ablate's come from --seeds, --variants


@pytest.mark.parametrize("argv", [
    ["datagen", "--seed", "3"],
    ["train", *EVERY_CONFIG_FLAGS, *RUN_FLAGS],
    ["ablate", "--seeds", "3", "--variants", "cdan_m_d", *EVERY_CONFIG_FLAGS],
], ids=lambda argv: argv[0])
def test_every_data_spec_field_has_a_flag(tmp_path, monkeypatch, argv):
    # and every TrainConfig field too, on the commands that train
    for recipe, every in ((DataSpec, EVERY_FIELD), (TrainConfig, EVERY_CONFIG)):
        assert all(getattr(every, f.name) != f.default for f in fields(recipe))
    built, datasets, configs = [], [], []

    def build(spec, seed):
        built.append(spec)
        datasets.append(make_domain_dataset(spec, seed))
        return datasets[-1]

    def load(path=None, **overrides):
        configs.append(load_config(path, **overrides))
        return configs[-1]

    monkeypatch.setattr(renlab.cli, "make_domain_dataset", build)
    monkeypatch.setattr(renlab.cli, "load_config", load)
    assert main([*argv, *EVERY_FIELD_FLAGS, "--out", str(tmp_path)]) == 0
    assert built == [EVERY_FIELD]
    assert configs == {"datagen": [], "train": [EVERY_CONFIG],
                       "ablate": [replace(EVERY_CONFIG, seed=0, variant="ren")]}[argv[0]]
    assert (datasets[0].n_source, datasets[0].n_target) == (40, 30)
    manifests = [json.loads(p.read_text()) for p in tmp_path.glob("*/manifest.json")]
    assert len(manifests) == (argv[0] != "datagen")
    for manifest in manifests:
        assert set(manifest) == {"tool", "config", "seeds", "data", "outputs"}
        assert manifest["config"] == asdict(EVERY_CONFIG)
        assert manifest["data"] == json.loads(json.dumps(asdict(EVERY_FIELD)))
        assert manifest["data"]["n"] == 40 and manifest["data"]["n_target"] == 30


def flag_of(command: str, name: str) -> str:
    """The flag that sets recipe field ``name`` on ``command``, as the parser spells it."""
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    return next(a.option_strings[0] for a in commands.choices[command]._actions
                if a.dest == name)


RECIPE_FIELDS = [(recipe, f.name) for recipe in (TrainConfig, DataSpec) for f in fields(recipe)]


@pytest.mark.parametrize("recipe, name", RECIPE_FIELDS,
                         ids=[f"{recipe.__name__}.{name}" for recipe, name in RECIPE_FIELDS])
def test_every_flag_reaches_the_artifact(tmp_path, recipe, name):
    value = getattr(EVERY_CONFIG if recipe is TrainConfig else EVERY_FIELD, name)
    text = ("on" if value else "off") if isinstance(value, bool) else str(value)
    # classes and imbalance need blobs; gen itself is given from its default
    data_base = ["--n", "60", *(["--gen", "blobs"] if name != "gen" else [])]
    out = tmp_path / "train"
    assert main(["train", *data_base, "--steps", "0", flag_of("train", name), text,
                 "--out", str(out)]) == 0
    (manifest,) = [json.loads(p.read_text()) for p in out.glob("*/manifest.json")]
    assert manifest["config" if recipe is TrainConfig else "data"][name] == value
    if recipe is DataSpec:
        out = tmp_path / "datagen"
        assert main(["datagen", *data_base, flag_of("datagen", name), text,
                     "--out", str(out)]) == 0
        lines = (out / "dataset.meta").read_text().splitlines()
        meta = dict(line.split(" = ", 1) for line in lines)
        assert ast.literal_eval(meta[name]) == value
    elif name in ("seed", "variant"):  # the two that ablate sets for each run
        out = tmp_path / "ablate"
        assert main(["ablate", "--n", "60", "--steps", "0", flag_of("ablate", name), text,
                     "--out", str(out)]) == 1
        assert not out.exists()


def test_datagen_blobs_variant(tmp_path):
    assert main(["datagen", "--gen", "blobs", "--n", "30", "--classes", "3",
                 "--noise", "0.2", "--out", str(tmp_path)]) == 0
    ds = load_dataset(tmp_path / "dataset.csv")
    assert ds.n_classes == 3


def test_train_writes_run_artifacts(tmp_path, capsys):
    assert run_train(tmp_path / "runs") == 0
    out = capsys.readouterr().out
    assert "final step 40" in out
    run_dir = next((tmp_path / "runs").iterdir())
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["variant"] == "ren"
    assert manifest["config"]["total_steps"] == 40
    assert manifest["seeds"] == [3]
    records = load_metrics(run_dir / "metrics.csv")
    assert [r.step for r in records] == [20, 40]
    assert manifest["outputs"] == {"metrics": "metrics.csv", "checkpoint": "checkpoint.npz"}
    checkpoint = load_paramsets(run_dir / "checkpoint.npz")
    assert list(checkpoint) == ["student_F", "student_C", "teacher_F", "teacher_C", "disc"]


CHECKPOINT_SETS = {
    "source_only": ["student_F", "student_C"],
    "cdan": ["student_F", "student_C", "disc"],
    **{v: ["student_F", "student_C", "teacher_F", "teacher_C", "disc"]
       for v in ("cdan_m", "cdan_m_d", "ren")},
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_train_checkpoint_holds_the_variant_s_sets(tmp_path, variant):
    assert run_train(tmp_path, extra=["--variant", variant, "--steps", "2"]) == 0
    with np.load(next(tmp_path.iterdir()) / "checkpoint.npz") as checkpoint:
        assert checkpoint["sets"][:, 0].tolist() == CHECKPOINT_SETS[variant]


def test_train_zero_steps_single_row(tmp_path):
    assert run_train(tmp_path, extra=["--steps", "0"]) == 0
    run_dir = next(tmp_path.iterdir())
    records = load_metrics(run_dir / "metrics.csv")
    assert len(records) == 1 and records[0].step == 0


def test_train_repeat_is_byte_identical(tmp_path):
    assert run_train(tmp_path / "a") == 0
    assert run_train(tmp_path / "b") == 0
    a = next((tmp_path / "a").glob("*/metrics.csv")).read_bytes()
    b = next((tmp_path / "b").glob("*/metrics.csv")).read_bytes()
    assert a == b
    ca = next((tmp_path / "a").glob("*/checkpoint.npz")).read_bytes()
    cb = next((tmp_path / "b").glob("*/checkpoint.npz")).read_bytes()
    assert ca == cb


def test_train_config_file_with_cli_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("variant = source_only\ntotal_steps = 20\neval_every = 10\n")
    assert main(["train", "--config", str(cfg), "--steps", "30", "--n", "60",
                 "--out", str(tmp_path / "runs")]) == 0
    run_dir = next((tmp_path / "runs").iterdir())
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["total_steps"] == 30  # flag beats file
    assert manifest["config"]["variant"] == "source_only"


def test_unknown_config_key_exits_one_and_names_it(tmp_path, capsys):
    # config files written for older versions may set consistency_squared
    for key, value in (("wizardry", "3"), ("consistency_squared", "on")):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "runs")])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


def test_invalid_config_value_exits_one(tmp_path, capsys):
    code = main(["train", "--momentum", "1.5", "--out", str(tmp_path / "runs")])
    assert code == 1
    assert "momentum" in capsys.readouterr().err


BAD_INPUT = [
    (["train", "--eta0", "nan"], "finite"),
    (["train", "--gamma", "nan"], "finite"),
    (["train", "--lambda-stu", "inf"], "finite"),
    (["train", "--rot", "nan"], "finite"),
    (["train", "--scale", "inf"], "finite"),
    (["train", "--noise", "nan"], "finite"),
    (["datagen", "--noise", "nan"], "finite"),
    (["datagen", "--lift-dim", "0", "--lift-noise", "nan"], "finite"),
    (["ablate", "--eta0", "nan"], "finite"),
    # finite recipes whose samples overflow: refused before anything is written
    (["datagen", "--lift-noise", "1e308"], "non-finite coordinate"),
    (["datagen", "--scale", "1e308", "--rot", "30"], "non-finite coordinate"),
    (["datagen", "--lift-noise", "-0.5"], "lift_noise must be >= 0"),
    (["datagen", "--gen", "blobs", "--n-target", "-5"], "n_target"),
    (["datagen", "--n", "abc"], "config key 'n' expects an integer, got 'abc'"),
    (["datagen", "--noise", "-1"], "noise must be >= 0, got -1.0"),
    (["train", "--steps", "2.5"], "config key 'total_steps' expects an integer, got '2.5'"),
    (["ablate", "--seeds", "1.5"], "config key 'seed' expects an integer, got '1.5'"),
    (["datagen", "--seed", "x"], "config key 'seed' expects an integer, got 'x'"),
    (["train", "--classes", "-4"], "classes must be >= 2, got -4"),
    (["train", "--classes", "5"], "classes applies to the blobs generator only"),
    # a one-sample source holds one class: its softmax is the constant 1
    (["train", "--gen", "blobs", "--n", "1", "--n-target", "1", "--batch-size", "1",
      "--steps", "2"], "source labels must name at least 2 classes, got 1"),
]


@pytest.mark.parametrize("argv, word", BAD_INPUT,
                         ids=["-".join(a.lstrip("-") for a in argv) for argv, _ in BAD_INPUT])
def test_non_finite_input_exits_one_and_writes_nothing(tmp_path, capsys, argv, word):
    out = tmp_path / "out"
    # the shared --n goes first, so a case's own --n comes last and wins
    assert main([argv[0], "--n", "60", *argv[1:], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and word in err
    assert not out.exists()


@pytest.mark.parametrize("argv, says", [
    # weights that stay finite but overflow the logits: argmax would count
    # each NaN row as class 0 and record accuracies of 0.5
    (["--steps", "3", "--batch-size", "8", "--gamma", "1e308"],
     "evaluation logits hold NaN or infinity"),
    (["--steps", "3", "--eta0", "1e308"], "op 'matmul' produced NaN or infinity"),
], ids=["gamma", "eta0"])
def test_a_non_finite_value_exits_two_with_only_the_error_line(tmp_path, capsys, argv, says):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["train", "--n", "40", *argv, "--out", str(tmp_path / "runs")]) == 2
    assert [str(w.message) for w in seen] == []  # no numpy RuntimeWarning
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {says}\n"
    assert not (tmp_path / "runs").exists()


def test_a_failed_checkpoint_write_leaves_no_run_that_report_counts(tmp_path, capsys):
    # no evaluation reads the discriminator, so only the checkpoint writer
    # meets its overflow, after the metrics are written
    out = tmp_path / "runs"
    assert main(["train", "--variant", "cdan", "--steps", "1", "--eval-every", "1",
                 "--lambda-stu", "1e300", "--eta0", "1e10", "--n", "60", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: checkpoint array disc.b0 holds a non-finite value\n"
    assert not list(out.glob("*/manifest.json"))
    assert main(["report", "--runs", str(out)]) == 1
    assert "no run directories" in capsys.readouterr().err


def test_target_label_beyond_the_source_classes_exits_one(tmp_path, capsys):
    # three blob classes, but the two source rows hold labels 0 and 1 while
    # the target holds 1 and 2: no classifier output for class 2
    out = tmp_path / "runs"
    assert main(["train", "--gen", "blobs", "--classes", "3", "--n", "2", "--n-target", "2",
                 "--imbalance", "3", "--batch-size", "2", "--steps", "2",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: target label 2 ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag, value, key", [
    ("--steps", "ten", "total_steps"),
    ("--alpha-theta", "soon", "alpha_theta"),
    ("--eta0", "fast", "eta0"),
])
def test_flag_values_are_parsed_like_config_values(tmp_path, capsys, flag, value, key):
    assert main(["train", flag, value, "--out", str(tmp_path / "runs")]) == 1
    assert f"config key '{key}' expects" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_usage_errors_exit_one(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["train", "--variant", "warp", "--out", str(tmp_path)])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["no_such_command"])
    assert e.value.code == 1


def test_python_m_renlab_runs_the_command_line():
    src = Path(renlab.cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "renlab", "--help"], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: renlab")


def test_gradcheck_passes_and_names_every_loss(capsys):
    assert main(["gradcheck", "--seed", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    names = [ln.split(":")[0] for ln in out]
    assert names == ["cross_entropy", "adv_student", "adv_teacher",
                     "consistency", "total"]
    assert all("PASS" in ln and "max_rel_error" in ln for ln in out)


def test_gradcheck_refuses_one_class_before_any_report(capsys):
    # with one class every softmax row is the constant 1, so cross-entropy
    # and consistency cannot move and their checks would pass vacuously
    assert main(["gradcheck", "--classes", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_classes must be >= 2, got 1\n"


def test_gradcheck_detects_corrupted_gradient(capsys, monkeypatch):
    real = renlab.checks.finite_diff_check

    def poisoned(loss_fn, params, grads, **kwargs):
        # only the total's gradients name all three nets
        grads = [{**m, "F.w0": m["F.w0"] + 1e-3} if {"C.w0", "D.w0"} <= m.keys() else m
                 for m in grads]
        return real(loss_fn, params, grads, **kwargs)

    monkeypatch.setattr(renlab.checks, "finite_diff_check", poisoned)
    assert main(["gradcheck", "--seed", "1"]) == 2
    out = capsys.readouterr().out.strip().splitlines()
    assert [ln.split(":")[0] for ln in out if ln.endswith("FAIL")] == ["total"]


@pytest.mark.parametrize("argv, word", [
    (["--batch", "0"], "batch"),
    (["--h", "nan"], "step"),
    (["--h", "0"], "step"),
    (["--tol", "nan"], "tolerance"),
    (["--tol", "-1"], "tolerance"),
    (["--batch", "1.5"], "config key 'batch' expects an integer, got '1.5'"),
    (["--h", "small"], "config key 'h' expects a number, got 'small'"),
], ids=["batch-0", "h-nan", "h-0", "tol-nan", "tol-negative", "batch-1.5", "h-small"])
def test_gradcheck_bad_input_exits_one_with_one_line(capsys, argv, word):
    assert main(["gradcheck", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert word in captured.err


@pytest.mark.parametrize("argv", [
    ["--hidden", "48", "--feature-dim", "8", "--classes", "5"],
    ["--hidden", "32", "--feature-dim", "8", "--classes", "5"],
    ["--hidden", "64", "--feature-dim", "16", "--classes", "6"],
    ["--batch", "32"],
    ["--batch", "256"],
    ["--in-dim", "16", "--hidden", "64", "--feature-dim", "16", "--classes", "2", "--batch", "8"],
], ids=["hidden-48", "hidden-32", "hidden-64", "batch-32", "batch-256", "trained-widths"])
def test_gradcheck_passes_at_wide_and_trained_shapes(capsys, argv):
    # wide layers and large batches leave no scenario draw far from every
    # rectifier kink; the perturbed copies replay the base point's branch,
    # so the seed's first draw is checked as it is
    assert main(["gradcheck", *argv]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5 and all(ln.endswith("PASS") for ln in out)


@pytest.mark.parametrize("argv, seed", [
    (["train", "--seed", "-1"], "-1"),
    (["ablate", "--seeds", "0,-2"], "-2"),
    (["datagen", "--seed", "-1"], "-1"),
    (["gradcheck", "--seed", "-1"], "-1"),
], ids=["train", "ablate", "datagen", "gradcheck"])
def test_negative_seed_exits_one_and_writes_nothing(tmp_path, capsys, argv, seed):
    out = tmp_path / "out"
    if argv[0] != "gradcheck":  # the one command that writes no files
        argv = [*argv, "--n", "60", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"seed must be >= 0, got {seed}" in err
    assert not out.exists()


def test_ablate_writes_summary(tmp_path, capsys):
    code = main(["ablate", "--variants", "cdan,ren", "--seeds", "0,1",
                 "--n", "60", "--steps", "30", "--eval-every", "15",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "ordering satisfied:" in out
    report = json.loads((tmp_path / "ablation.json").read_text())
    assert set(report["variants"]) == {"cdan", "ren"}
    assert report["variants"]["ren"]["n_seeds"] == 2
    assert len(list(tmp_path.glob("*/manifest.json"))) == 4


def test_ablate_rejects_bad_variant(tmp_path, capsys):
    assert main(["ablate", "--variants", "warp", "--out", str(tmp_path)]) == 1
    assert "warp" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--seed", "7"), ("--variant", "cdan")],
                         ids=["seed", "variant"])
def test_ablate_refuses_the_flags_its_sweep_sets(tmp_path, capsys, monkeypatch, flag, value):
    built = []
    monkeypatch.setattr(renlab.cli, "make_domain_dataset", lambda *args: built.append(args))
    out = tmp_path / "runs"
    assert main(["ablate", "--variants", "source_only", "--seeds", "0", flag, value,
                 "--n", "60", "--steps", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: ablate takes each run's {flag[2:]} from {flag}s, not {flag}\n"
    assert not built and not out.exists()


@pytest.mark.parametrize("lines, key", [
    ("seed = 7\n", "seed"),
    ("variant = cdan\n", "variant"),
    ("variant = cdan\nseed = 7\n", "seed"),
], ids=["seed", "variant", "both"])
def test_ablate_refuses_a_config_file_that_sets_what_its_sweep_sets(tmp_path, capsys,
                                                                     monkeypatch, lines, key):
    built = []
    monkeypatch.setattr(renlab.cli, "make_domain_dataset", lambda *args: built.append(args))
    cfg, out = tmp_path / "run.cfg", tmp_path / "runs"
    cfg.write_text("gamma = 2.0\n" + lines)
    assert main(["ablate", "--config", str(cfg), "--variants", "source_only", "--seeds", "0",
                 "--n", "60", "--steps", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: ablate takes each run's {key} from --{key}s, "
                   f"not from config key '{key}' of {cfg}\n")
    assert not built and not out.exists()


def test_ablate_takes_every_other_key_of_a_config_file(tmp_path, capsys):
    cfg, out = tmp_path / "run.cfg", tmp_path / "runs"
    cfg.write_text("gamma = 2.0\neta0 = 0.02\n")
    assert main(["ablate", "--config", str(cfg), "--variants", "source_only", "--seeds", "3",
                 "--n", "60", "--steps", "0", "--out", str(out)]) == 0
    (manifest,) = [json.loads(p.read_text()) for p in out.glob("*/manifest.json")]
    assert manifest["config"] == asdict(TrainConfig(gamma=2.0, eta0=0.02, total_steps=0,
                                                    seed=3, variant="source_only"))


def test_report_reaggregates_run_directories(tmp_path, capsys):
    main(["ablate", "--variants", "cdan,ren", "--seeds", "0",
          "--n", "60", "--steps", "30", "--eval-every", "15",
          "--out", str(tmp_path)])
    capsys.readouterr()
    json_out = tmp_path / "summary.json"
    assert main(["report", "--runs", str(tmp_path), "--json", str(json_out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == json.loads(json_out.read_text())
    # the re-aggregated accuracies match the live ablation summary
    live = json.loads((tmp_path / "ablation.json").read_text())
    assert printed["variants"] == live["variants"]


def test_report_rejects_two_runs_of_one_variant_and_seed(tmp_path, capsys):
    # same variant and seed, different configs: neither run may be dropped
    out = tmp_path / "runs"
    for steps in ("20", "40"):
        assert main(["train", "--variant", "ren", "--n", "60", "--steps", steps,
                     "--out", str(out)]) == 0
    run_dirs = sorted(p.name for p in out.iterdir())
    assert len(run_dirs) == 2
    capsys.readouterr()
    assert main(["report", "--runs", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and all(name in err for name in run_dirs)


def test_report_empty_directory_exits_one(tmp_path, capsys):
    assert main(["report", "--runs", str(tmp_path)]) == 1
    assert "no run directories" in capsys.readouterr().err


GOOD_METRICS = ("step,lr,l_c,l_d_stu,l_d_tea,l_con,total,acc_student_source,"
                "acc_student_target,acc_teacher_target\n"
                "10,0.01,0.5,0.0,0.0,0.0,0.5,0.9,0.8,0.85\n")


def manifest_text(**config) -> str:
    """A manifest whose whole config evaluates once, at step 10, the one row
    of GOOD_METRICS, with ``config``'s keys changed; a key given as None is
    left out."""
    full = {**asdict(TrainConfig(total_steps=10, eval_every=10)), **config}
    return json.dumps({"config": {k: v for k, v in full.items() if v is not None}})


GOOD_MANIFEST = manifest_text()


def one_run_dir(tmp_path, manifest: str, metrics: str) -> str:
    run = tmp_path / "runs" / "run-s0"
    run.mkdir(parents=True)
    (run / "manifest.json").write_text(manifest)
    (run / "metrics.csv").write_text(metrics)
    return str(run.parent)


@pytest.mark.parametrize("manifest, metrics", [
    ("{", GOOD_METRICS),
    ("[]", GOOD_METRICS),
    ('{"seeds": [0]}', GOOD_METRICS),
    (manifest_text(seed="zero"), GOOD_METRICS),
    (manifest_text(seed=1.5), GOOD_METRICS),
    (manifest_text(seed=True), GOOD_METRICS),
    (manifest_text(seed="2"), GOOD_METRICS),
    (manifest_text(seed=-3), GOOD_METRICS),
    (manifest_text(variant="warp"), GOOD_METRICS),
    (GOOD_MANIFEST, GOOD_METRICS.replace(",0.85\n", "\n")),
    (GOOD_MANIFEST, GOOD_METRICS.split("\n", 1)[0] + "\n"),
    (GOOD_MANIFEST, GOOD_METRICS.replace(",0.85\n", ",nan\n")),
    (manifest_text(total_steps=None), GOOD_METRICS),
    (manifest_text(eval_every=0), GOOD_METRICS),
    (manifest_text(total_steps=20), GOOD_METRICS),
    (manifest_text(total_steps=10**15, eval_every=1), GOOD_METRICS),
    (manifest_text(wizardry=3), GOOD_METRICS),
    (manifest_text(consistency_squared=True), GOOD_METRICS),
    (manifest_text(gamma=None), GOOD_METRICS),
    (manifest_text(momentum=1.5), GOOD_METRICS),
    ('{"config": []}', GOOD_METRICS),
], ids=["not-json", "not-an-object", "no-config", "bad-seed", "float-seed", "bool-seed",
         "string-seed", "negative-seed", "unknown-variant",
        "short-metrics-row", "no-metrics-rows", "nan-metric", "no-total-steps",
        "zero-eval-every", "rows-short-of-the-schedule", "a-schedule-too-long-to-list",
        "unknown-key", "removed-key", "no-gamma", "bad-momentum", "config-not-an-object"])
def test_report_rejects_corrupt_run_directories(tmp_path, capsys, manifest, metrics):
    assert main(["report", "--runs", one_run_dir(tmp_path, manifest, metrics)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_report_reads_a_well_formed_run_directory(tmp_path, capsys):
    assert main(["report", "--runs", one_run_dir(tmp_path, GOOD_MANIFEST, GOOD_METRICS)]) == 0
    assert json.loads(capsys.readouterr().out)["variants"]["ren"]["mean"] == 0.85


@pytest.fixture(scope="module")
def four_row_run(tmp_path_factory):
    """A trained run whose metrics.csv holds a header and 4 rows (steps 10-40)."""
    out = tmp_path_factory.mktemp("runs")
    assert main(["train", "--variant", "cdan", "--steps", "40", "--eval-every", "10",
                 "--n", "100", "--out", str(out)]) == 0
    (run,) = out.iterdir()
    return run


# each edit maps the file's lines (header first) to the lines written back
METRICS_EDITS = {
    **{f"cut-after-line-{k}": (lambda lines, k=k: lines[:k]) for k in range(5)},
    "last-row-twice": lambda lines: lines + lines[-1:],
    "middle-row-twice": lambda lines: lines[:3] + lines[2:],
    "middle-rows-swapped": lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:],
    "last-row-first": lambda lines: lines[:1] + lines[-1:] + lines[1:-1],
}


@pytest.mark.parametrize("edit", METRICS_EDITS.values(), ids=METRICS_EDITS.keys())
def test_report_refuses_metrics_rows_that_depart_from_the_run_s_schedule(
        tmp_path, capsys, four_row_run, edit):
    # a cut at a row boundary leaves a file that loads; its last row is
    # then an earlier evaluation than the run's final one
    run = tmp_path / "runs" / four_row_run.name
    shutil.copytree(four_row_run, run)
    metrics = run / "metrics.csv"
    lines = metrics.read_text().splitlines(keepends=True)
    assert len(lines) == 5
    metrics.write_text("".join(edit(lines)))
    capsys.readouterr()
    assert main(["report", "--runs", str(run.parent)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and str(metrics) in err


def test_report_reads_the_untouched_four_row_run(tmp_path, capsys, four_row_run):
    assert main(["report", "--runs", str(four_row_run.parent)]) == 0
    final = load_metrics(four_row_run / "metrics.csv")[-1].acc_teacher_target
    assert json.loads(capsys.readouterr().out)["variants"]["cdan"]["mean"] == final


NOT_UTF8 = b"\xff" + np.random.default_rng(0).bytes(299)  # 0xff starts no UTF-8 sequence


@pytest.mark.parametrize("read, error", [
    (load_config, ConfigError), (load_metrics, ContractError), (load_dataset, ContractError),
    (load_paramsets, ContractError), ("train", ConfigError), ("report", ContractError),
], ids=["load_config", "load_metrics", "load_dataset", "load_paramsets", "train", "report"])
def test_a_file_that_is_not_utf8_is_refused_with_one_error(tmp_path, capsys, read, error):
    path = tmp_path / "bytes"
    path.write_bytes(NOT_UTF8)
    message = f"non-UTF-8 bytes in {path}: invalid start byte"
    if read is load_paramsets:  # a binary format: the bytes are no zip archive
        message = f"corrupt checkpoint {path}: BadZipFile('File is not a zip file')"
    if callable(read):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            read(path)
        return
    if read == "train":
        argv = ["train", "--config", str(path), "--n", "60", "--out", str(tmp_path / "out")]
    else:
        runs = one_run_dir(tmp_path, GOOD_MANIFEST, GOOD_METRICS)
        path = Path(runs) / "run-s0" / "metrics.csv"
        path.write_bytes(NOT_UTF8)
        message = f"non-UTF-8 bytes in {path}: invalid start byte"
        argv = ["report", "--runs", runs]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()
