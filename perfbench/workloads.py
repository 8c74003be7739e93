"""The benchmark's workloads.  WORKLOADS.md says why each was chosen and
which end-to-end metric each layer metric should move on it.

A workload builds its inputs from the benchmark seed in ``setup`` and then
runs one fixed unit of work per ``unit(tick)`` call, calling ``tick()``
between two operations so the clock can rescale each stretch (see run.py).
``unit`` returns ``(ops, info)``: ``ops`` maps each operation to a digest of
its output, or to None if it failed; ``info`` holds workload-level values
named like the per-layer metrics they are reported as.  Repeats of a unit
must give the same digests, traced or not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import statistics
import time
import traceback
from pathlib import Path

import renlab.checks
import renlab.cli
import renlab.datasets
import renlab.evaluation
import renlab.networks
import renlab.trainer
from renlab.trainer import VARIANTS

# tape ops every training step records; sqrt, sum_all and concat_rows have no
# caller at the default settings
_STEP_OPS = tuple(f"tensor.op.{op}" for op in (
    "matmul", "add", "sub", "scale", "neg", "rsub_const", "square", "log",
    "relu", "sigmoid", "clamp", "softmax_rows", "grad_reverse", "gather_rows",
    "mean_all", "sum_rows", "slice_rows", "multilinear", "constant", "parameter"))
_LOSS_SPANS = ("losses.cross_entropy", "losses.adv", "losses.consistency",
               "losses.total_loss")
_STEP_SPANS = _STEP_OPS + _LOSS_SPANS + (
    "tensor.backward", "conditioning.pred_ema", "networks.bind", "networks.forward_fc",
    "networks.forward_fc_plain", "networks.ema_update", "trainer.train_step",
    "trainer.sgd", "evaluation.accuracy", "datasets.batches")

# workload-level values, reported with the per-layer metrics; 0 where a
# workload has no such value
INFO_METRICS = tuple(f"trainer.ms_per_step.{v}" for v in VARIANTS) + (
    "evaluation.deployed_acc_mean", "evaluation.adapt_gain", "datasets.csv_bytes",
    "checks.fd_evals_per_s", "cli.train_ms_per_step", "cli.artifact_bytes")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _accuracy_summary(variants: dict) -> dict[str, float]:
    """Mean final teacher-target accuracy over all runs, and ren minus
    source_only, from the ``variants`` part of an ablation report."""
    accs = [a for entry in variants.values() for a in entry["per_seed"].values()]
    return {"evaluation.deployed_acc_mean": statistics.fmean(accs),
            "evaluation.adapt_gain": variants["ren"]["mean"] - variants["source_only"]["mean"]}


class SweepDefault:
    """The paper's ablation matrix: every variant x several seeds through
    ``trainer.run_ablation`` on ``datasets.standard_benchmark`` at package
    defaults (500/500 two moons, 16-D lift, batch 32, evaluation every 50
    steps).  Arrays are tiny, so per-node Python cost in the tape, losses,
    conditioning and trainer dominates.  One ``run_ablation`` call per
    variant times each variant apart whatever run_ablation does inside."""

    SEEDS = 3  # training seeds per unit
    STEPS = 150  # per run; the package default (3000) would not fit a run
    exercises = _STEP_SPANS + ("trainer.sweep", "evaluation.ablation_report",
                               "datasets.generate")

    def __init__(self, seed: int, workdir: Path):
        self.seeds = [seed * self.SEEDS + i for i in range(self.SEEDS)]
        self.cfg = renlab.trainer.TrainConfig(total_steps=self.STEPS)

    def setup(self) -> None:
        self.data = {s: renlab.datasets.standard_benchmark(s) for s in self.seeds}

    def unit(self, tick):
        ops, info, accs = {}, {}, {}
        for i, variant in enumerate(VARIANTS):
            if i:
                tick()
            start = time.perf_counter()
            try:
                runs = renlab.trainer.run_ablation(self.cfg, [variant], self.seeds,
                                                   self.data.__getitem__)
            except Exception:
                traceback.print_exc()
                ops.update({f"{variant}/seed{s}": None for s in self.seeds})
                continue
            wall = time.perf_counter() - start
            info[f"trainer.ms_per_step.{variant}"] = 1e3 * wall / (self.STEPS * len(self.seeds))
            for (v, s), result in runs.items():
                csv = renlab.evaluation.metrics_to_csv(result.records)
                ops[f"{v}/seed{s}"] = _sha(csv.encode())
                accs.setdefault(v, {})[s] = result.final_accuracy
        if len(accs) == len(VARIANTS):
            info.update(_accuracy_summary(renlab.evaluation.ablation_report(accs)["variants"]))
        return ops, info


class GradcheckSuite:
    """``checks.run_loss_checks`` over a range of seeds: thousands of 4-row
    forward+backward tapes and no trainer, conditioning, evaluation or I/O.
    A tape change shows its largest effect here; a trainer-only change
    should show none."""

    SEEDS = 4  # gradcheck seeds per unit
    exercises = tuple(op for op in _STEP_OPS if op != "tensor.op.grad_reverse") + _LOSS_SPANS + (
        "tensor.backward", "networks.bind", "networks.forward_fc",
        "networks.forward_fc_plain", "checks.suite_build", "checks.fd")

    def __init__(self, seed: int, workdir: Path):
        self.seeds = [seed * self.SEEDS + i for i in range(self.SEEDS)]

    def setup(self) -> None:
        # loss evaluations per seed: one baseline plus two per parameter entry
        self.evals = {s: sum(1 + 2 * sum(a.size for a in check.params.values())
                             for check in renlab.checks.loss_check_suite(s))
                      for s in self.seeds}

    def unit(self, tick):
        ops, evals, busy = {}, 0, 0.0
        for i, s in enumerate(self.seeds):
            if i:
                tick()
            start = time.perf_counter()
            try:
                reports = renlab.checks.run_loss_checks(s)
            except Exception:
                traceback.print_exc()
                ops[f"seed{s}"] = None
                continue
            busy += time.perf_counter() - start
            evals += self.evals[s]
            summary = [(name, r.max_rel_error, r.worst_param, r.worst_index,
                        sorted(r.per_param.items())) for name, r in reports]
            passed = all(r.passed for _, r in reports)
            ops[f"seed{s}"] = _sha(repr(summary).encode()) if passed else None
        info = {"checks.fd_evals_per_s": evals / busy} if busy else {}
        return ops, info


@contextlib.contextmanager
def _capture(owner, attr: str, calls: list):
    """Record the arguments of every call to ``owner.attr`` during the block."""
    original = getattr(owner, attr)

    def recorder(*args):
        calls.append(args)
        return original(*args)

    setattr(owner, attr, recorder)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _same(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _dataset_round_trip(saved, csv_path) -> bool:
    loaded = renlab.datasets.load_dataset(csv_path)
    return all(_same(getattr(saved, f), getattr(loaded, f))
               for f in ("source_x", "source_y", "target_x", "target_y"))


def _checkpoint_round_trip(path, saved: dict) -> bool:
    loaded = renlab.networks.load_paramsets(path)
    return list(loaded) == list(saved) and all(
        loaded[k].spec == ps.spec and list(loaded[k].params) == list(ps.params)
        and all(_same(arr, loaded[k].params[n]) for n, arr in ps.items())
        for k, ps in saved.items())


class CliWideBlobs:
    """``cli.main`` end to end on a 6-class blobs shift (imbalance 3, rot 30,
    scale 1.3, 8000/8000 samples, 64-D lift, batch 256, evaluation every 10
    steps): datagen, train source_only and ren, report, then the dataset
    CSV and checkpoints are read back and compared bit for bit.  Array work
    outweighs per-node overhead; evaluation over 16k rows, the 256-row
    pred_ema loop and the CSV/checkpoint I/O each carry a large share."""

    STEPS = 150
    TRAINED = ("source_only", "ren")
    DATA = ["--gen", "blobs", "--classes", "6", "--imbalance", "3", "--rot", "30",
            "--scale", "1.3", "--n", "8000", "--lift-dim", "64"]
    exercises = _STEP_SPANS + (
        "networks.save_paramsets", "networks.load_paramsets", "evaluation.metrics_io",
        "evaluation.ablation_report", "datasets.generate", "datasets.save",
        "datasets.load", "cli.command.datagen", "cli.command.train", "cli.command.report")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _cli(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return renlab.cli.main(argv)

    def unit(self, tick):
        data_dir, runs_dir = self.workdir / "data", self.workdir / "runs"
        summary = self.workdir / "summary.json"
        ops, info, train_wall = {}, {}, 0.0
        datasets, checkpoints = [], []
        with _capture(renlab.cli, "save_dataset", datasets), \
                _capture(renlab.cli, "save_paramsets", checkpoints):
            try:
                rc = self._cli(["datagen", *self.DATA, "--seed", str(self.seed),
                                "--out", str(data_dir)])
                csv, meta = data_dir / "dataset.csv", data_dir / "dataset.meta"
                ok = rc == 0 and _dataset_round_trip(datasets[-1][0], csv)
                ops["datagen"] = _sha(csv.read_bytes() + meta.read_bytes()) if ok else None
                info["datasets.csv_bytes"] = csv.stat().st_size
            except Exception:
                traceback.print_exc()
                ops["datagen"] = None
            for variant in self.TRAINED:
                tick()
                start = time.perf_counter()
                try:
                    rc = self._cli(["train", *self.DATA, "--variant", variant,
                                    "--seed", str(self.seed), "--batch-size", "256",
                                    "--eval-every", "10", "--steps", str(self.STEPS),
                                    "--out", str(runs_dir)])
                    train_wall += time.perf_counter() - start
                    ok = rc == 0 and _checkpoint_round_trip(*checkpoints[-1])
                    metrics = Path(checkpoints[-1][0]).parent / "metrics.csv"
                    ops[f"train.{variant}"] = _sha(metrics.read_bytes()) if ok else None
                except Exception:
                    traceback.print_exc()
                    ops[f"train.{variant}"] = None
        tick()
        try:
            rc = self._cli(["report", "--runs", str(runs_dir), "--json", str(summary)])
            ops["report"] = _sha(summary.read_bytes()) if rc == 0 else None
            info.update(_accuracy_summary(json.loads(summary.read_text())["variants"]))
        except Exception:
            traceback.print_exc()
            ops["report"] = None
        info["cli.train_ms_per_step"] = 1e3 * train_wall / (self.STEPS * len(self.TRAINED))
        info["cli.artifact_bytes"] = sum(p.stat().st_size for p in self.workdir.rglob("*")
                                         if p.is_file())
        shutil.rmtree(self.workdir, ignore_errors=True)
        return ops, info


WORKLOADS = {"sweep_default": SweepDefault, "gradcheck_suite": GradcheckSuite,
             "cli_wide_blobs": CliWideBlobs}
