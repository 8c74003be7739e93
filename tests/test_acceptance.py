"""Acceptance gate: nine go/no-go checks, one printed verdict line each.

The benchmark checks (4, 5, 6) share a single 5-seed sweep of every variant
at the package defaults; everything else is a direct property check.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from renlab.checks import run_loss_checks
from renlab.cli import main
from renlab.conditioning import PredEmaState, pred_ema
from renlab.datasets import standard_benchmark
from renlab.evaluation import ablation_report, stability
from renlab.networks import DualNet, NetSpec, ema_update, init_params
from renlab.trainer import VARIANTS, TrainConfig, lr_schedule, run_ablation

SEEDS = (0, 1, 2, 3, 4)


def verdict(num: int, label: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}  ({detail})")
    return ok


@pytest.fixture(scope="session")
def benchmark_matrix():
    """Five variants x five seeds on the default benchmark, with wall times."""
    datasets = {s: standard_benchmark(s) for s in SEEDS}
    runs: dict = {}
    elapsed: dict = {}
    for variant in VARIANTS:
        t0 = time.monotonic()
        runs.update(run_ablation(TrainConfig(), [variant], SEEDS, datasets.__getitem__))
        elapsed[variant] = time.monotonic() - t0
    return runs, elapsed


def mean_accuracy(runs, variant: str) -> float:
    return float(np.mean([runs[(variant, s)].final_accuracy for s in SEEDS]))


def test_1_gradient_correctness():
    t0 = time.monotonic()
    worst = 0.0
    ok = True
    for seed in range(20):
        for name, rep in run_loss_checks(seed, batch=4, feature_dim=4, n_classes=3):
            worst = max(worst, rep.max_rel_error)
            ok = ok and rep.passed
    took = time.monotonic() - t0
    ok = ok and took < 60.0
    assert verdict(1, "gradient correctness", ok,
                   f"20 seeds, max rel err {worst:.2e}, {took:.1f}s")


def test_2_teacher_smoothing_geometric_decay(rng):
    def norm_gap(dn):
        sq = 0.0
        for student, teacher in ((dn.student_F, dn.teacher_F),
                                 (dn.student_C, dn.teacher_C)):
            for k, arr in student.items():
                sq += float(np.sum((teacher.params[k] - arr) ** 2))
        return np.sqrt(sq)

    worst = 0.0
    for alpha in (0.0, 0.5, 0.9, 0.99, 1.0):
        f = init_params(NetSpec((3, 4, 2), "relu"), [7, 11])
        c = init_params(NetSpec((2, 2)), [7, 12])
        dn = DualNet(f, c)
        for k, arr in dn.teacher_F.items():
            arr += rng.normal(size=arr.shape)
        for k, arr in dn.teacher_C.items():
            arr += rng.normal(size=arr.shape)
        gap0 = norm_gap(dn)
        for n in range(1, 51):
            ema_update(dn, alpha)
            worst = max(worst, abs(norm_gap(dn) / gap0 - alpha ** n))
    ok = worst <= 1e-10
    assert verdict(2, "teacher weight smoothing law", ok, f"max deviation {worst:.2e}")


def test_3_prediction_smoothing_properties(rng):
    branches = {"student": PredEmaState(0.6, 3), "teacher": PredEmaState(0.6, 3)}
    worst = 0.0
    for _ in range(1000):
        branch = "student" if rng.uniform() < 0.5 else "teacher"
        ids = rng.choice(40, size=8, replace=False)
        raw = rng.dirichlet(np.full(3, 0.4), size=8)
        out = pred_ema(branches[branch], ids, raw)
        worst = max(worst, float(np.max(np.abs(out.sum(axis=1) - 1.0))),
                    float(max(0.0, -out.min())))
    raw_state = PredEmaState(1.0, 3)
    first = rng.dirichlet(np.ones(3), size=5)
    second = rng.dirichlet(np.ones(3), size=5)
    raw_ok = (np.array_equal(pred_ema(raw_state, np.arange(5), first), first)
              and np.array_equal(pred_ema(raw_state, np.arange(5), second), second))
    fp_state = PredEmaState(0.6, 3)
    const = rng.dirichlet(np.ones(3), size=4)
    fixed_ok = all(
        np.allclose(pred_ema(fp_state, np.arange(4), const.copy()), const,
                    rtol=0, atol=1e-12)
        for _ in range(20))
    ok = worst <= 1e-9 and raw_ok and fixed_ok
    assert verdict(3, "prediction smoothing properties", ok,
                   f"1000 updates, worst row defect {worst:.2e}, "
                   f"raw-at-one {raw_ok}, fixed point {fixed_ok}")


def test_4_adaptation_gain(benchmark_matrix):
    runs, elapsed = benchmark_matrix
    gain = mean_accuracy(runs, "ren") - mean_accuracy(runs, "source_only")
    took = elapsed["ren"] + elapsed["source_only"]
    ok = gain >= 0.10 and took <= 300.0
    assert verdict(4, "adaptation gain", ok,
                   f"5-seed mean gain {gain:+.4f} vs +0.10 bar, 10 runs in {took:.0f}s")


def test_5_cumulative_variant_ordering(benchmark_matrix):
    runs, _ = benchmark_matrix
    results = {v: {s: runs[(v, s)].final_accuracy for s in SEEDS}
               for v in ("cdan", "cdan_m", "cdan_m_d", "ren")}
    report = ablation_report(results, tolerance=0.005)
    deltas = " ".join(f"{step['delta']:+.4f}" for step in report["ordering"]["steps"])
    ok = report["ordering"]["satisfied"]
    assert verdict(5, "cumulative variant ordering", ok, f"chain deltas {deltas}")


def test_6_teacher_is_steadier_than_student(benchmark_matrix):
    runs, _ = benchmark_matrix
    teacher, student = [], []
    for s in SEEDS:
        records = runs[("ren", s)].records
        teacher.append(stability([r.acc_teacher_target for r in records]))
        student.append(stability([r.acc_student_target for r in records]))
    t_mean, s_mean = float(np.mean(teacher)), float(np.mean(student))
    ok = t_mean <= s_mean
    assert verdict(6, "teacher accuracy steadier than student", ok,
                   f"rolling std: teacher {t_mean:.4f} <= student {s_mean:.4f}")


def test_7_parameter_accounting(benchmark_matrix):
    runs, _ = benchmark_matrix
    ren = runs[("ren", 0)]
    single = ren.student_F.param_count() + ren.student_C.param_count()
    ok = (ren.dualnet is not None
          and ren.dualnet.param_count() == 2 * single
          and runs[("cdan", 0)].dualnet is None)
    assert verdict(7, "dual-network parameter accounting", ok,
                   f"dual {ren.dualnet.param_count()} == 2 x {single}; "
                   f"cdan teacher-free")


def test_8_training_is_byte_deterministic(tmp_path):
    args = ["train", "--variant", "ren", "--n", "120", "--steps", "200",
            "--eval-every", "50", "--seed", "11"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = next((tmp_path / "a").glob("*/metrics.csv")).read_bytes()
    b = next((tmp_path / "b").glob("*/metrics.csv")).read_bytes()
    ok = a == b
    assert verdict(8, "byte-identical repeated training", ok,
                   f"metrics CSV {len(a)} bytes")


def test_9_learning_rate_anchors():
    cfg = TrainConfig()
    start_ok = lr_schedule(0.0, cfg) == 0.01
    end_err = abs(lr_schedule(1.0, cfg) - 0.01 * 11.0 ** -0.75)
    ok = start_ok and end_err < 1e-12
    assert verdict(9, "learning-rate schedule anchors", ok,
                   f"start exact {start_ok}, end deviation {end_err:.2e}")
