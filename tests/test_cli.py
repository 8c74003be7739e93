"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import ast
import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import renlab.checks
import renlab.cli
from renlab.cli import main
from renlab.datasets import (DataSpec, load_dataset, make_domain_dataset, save_dataset,
                             standard_benchmark)
from renlab.evaluation import load_metrics


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


# a value other than the default for every DataSpec field, and the flags that set them
EVERY_FIELD = DataSpec(gen="blobs", n=40, n_target=30, noise=0.2, classes=4, imbalance=2.0,
                       rot=30.0, trans=(0.5, -0.25), scale=1.5, shift_noise=0.1,
                       lift_dim=8, lift_noise=0.01)
EVERY_FIELD_FLAGS = ["--gen", "blobs", "--n", "40", "--n-target", "30", "--noise", "0.2",
                     "--classes", "4", "--imbalance", "2", "--rot", "30", "--trans-x", "0.5",
                     "--trans-y", "-0.25", "--scale", "1.5", "--shift-noise", "0.1",
                     "--lift-dim", "8", "--lift-noise", "0.01"]


@pytest.mark.parametrize("argv", [
    ["datagen", "--seed", "3"],
    ["train", "--seed", "3", "--steps", "0", "--batch-size", "8"],
    ["ablate", "--seeds", "3", "--variants", "ren", "--steps", "0", "--batch-size", "8"],
], ids=lambda argv: argv[0])
def test_every_data_spec_field_has_a_flag(tmp_path, monkeypatch, argv):
    assert all(getattr(EVERY_FIELD, f.name) != f.default for f in fields(DataSpec))
    built, datasets = [], []

    def build(spec, seed):
        built.append(spec)
        datasets.append(make_domain_dataset(spec, seed))
        return datasets[-1]

    monkeypatch.setattr(renlab.cli, "make_domain_dataset", build)
    assert main([*argv, *EVERY_FIELD_FLAGS, "--out", str(tmp_path)]) == 0
    assert built == [EVERY_FIELD]
    assert (datasets[0].n_source, datasets[0].n_target) == (40, 30)
    manifests = [json.loads(p.read_text()) for p in tmp_path.glob("*/manifest.json")]
    assert len(manifests) == (argv[0] != "datagen")
    for manifest in manifests:
        assert set(manifest) == {"tool", "config", "seeds", "data", "outputs"}
        assert manifest["data"] == json.loads(json.dumps(asdict(EVERY_FIELD)))
        assert manifest["data"]["n"] == 40 and manifest["data"]["n_target"] == 30


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
    checkpoint = (run_dir / "checkpoint.txt").read_text()
    for name in ("student_F", "student_C", "teacher_F", "teacher_C", "disc"):
        assert f"set {name} " in checkpoint


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
    ca = next((tmp_path / "a").glob("*/checkpoint.txt")).read_bytes()
    cb = next((tmp_path / "b").glob("*/checkpoint.txt")).read_bytes()
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
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wizardry = 3\n")
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "runs")])
    assert code == 1
    assert "wizardry" in capsys.readouterr().err


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
    (["datagen", "--lift-noise", "-0.5"], "lift_noise must be >= 0"),
    (["datagen", "--gen", "blobs", "--n-target", "-5"], "n_target"),
]


@pytest.mark.parametrize("argv, word", BAD_INPUT,
                         ids=["-".join(a.lstrip("-") for a in argv) for argv, _ in BAD_INPUT])
def test_non_finite_input_exits_one_and_writes_nothing(tmp_path, capsys, argv, word):
    out = tmp_path / "out"
    assert main([*argv, "--n", "60", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and word in err
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


def test_gradcheck_passes_and_names_every_loss(capsys):
    assert main(["gradcheck", "--seed", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    names = [ln.split(":")[0] for ln in out]
    assert names == ["cross_entropy", "adv_student", "adv_teacher",
                     "consistency", "total"]
    assert all("PASS" in ln and "max_rel_error" in ln for ln in out)


def test_gradcheck_names_a_tensor_when_an_error_is_exactly_zero(capsys):
    # with one class the cross-entropy and consistency losses are constant,
    # so every relative error is 0; the report still names an entry
    assert main(["gradcheck", "--classes", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    zero = [ln for ln in out if "max_rel_error=0.000e+00" in ln]
    assert [ln.split(":")[0] for ln in zero] == ["cross_entropy", "consistency"]
    assert all(" worst=F.w0[0,0] " in ln for ln in zero)


def test_gradcheck_detects_corrupted_gradient(capsys, monkeypatch):
    real = renlab.checks.finite_diff_check

    def poisoned(loss_fn, params, grads, **kwargs):
        if {"C.w0", "D.w0"} <= grads.keys():  # only the total binds all three nets
            first = next(iter(grads))
            grads = {**grads, first: grads[first] + 1e-3}
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
], ids=["batch-0", "h-nan", "h-0", "tol-nan", "tol-negative"])
def test_gradcheck_bad_input_exits_one_with_one_line(capsys, argv, word):
    assert main(["gradcheck", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert word in captured.err


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
GOOD_MANIFEST = '{"config": {"variant": "ren", "seed": 0}}'


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
    ('{"config": {"variant": "ren", "seed": "zero"}}', GOOD_METRICS),
    ('{"config": {"variant": "ren", "seed": 1.5}}', GOOD_METRICS),
    ('{"config": {"variant": "ren", "seed": true}}', GOOD_METRICS),
    ('{"config": {"variant": "ren", "seed": "2"}}', GOOD_METRICS),
    ('{"config": {"variant": "ren", "seed": -3}}', GOOD_METRICS),
    ('{"config": {"variant": "warp", "seed": 0}}', GOOD_METRICS),
    (GOOD_MANIFEST, GOOD_METRICS.replace(",0.85\n", "\n")),
    (GOOD_MANIFEST, GOOD_METRICS.split("\n", 1)[0] + "\n"),
    (GOOD_MANIFEST, GOOD_METRICS.replace(",0.85\n", ",nan\n")),
], ids=["not-json", "not-an-object", "no-config", "bad-seed", "float-seed", "bool-seed",
         "string-seed", "negative-seed", "unknown-variant",
        "short-metrics-row", "no-metrics-rows", "nan-metric"])
def test_report_rejects_corrupt_run_directories(tmp_path, capsys, manifest, metrics):
    assert main(["report", "--runs", one_run_dir(tmp_path, manifest, metrics)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_report_reads_a_well_formed_run_directory(tmp_path, capsys):
    assert main(["report", "--runs", one_run_dir(tmp_path, GOOD_MANIFEST, GOOD_METRICS)]) == 0
    assert json.loads(capsys.readouterr().out)["variants"]["ren"]["mean"] == 0.85
