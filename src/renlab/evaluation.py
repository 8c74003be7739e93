"""Accuracy, stability, and ablation summaries over trained networks.

Read-only: everything here works on parameter snapshots and recorded metric
series.  Target labels enter the pipeline only through this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .exceptions import ContractError, NonFiniteError, ShapeError, open_text
from .losses import LossBreakdown
from .networks import ParamSet, forward_fc_plain

# canonical order of the cumulative ablation chain (weakest first)
ABLATION_CHAIN = ("cdan", "cdan_m", "cdan_m_d", "ren")
# rows per forward pass in `accuracy`: at a 64-wide hidden layer one block's
# output is 0.5 MB, where a full 8000-row pass allocates 4 MB arrays that
# the heap unmaps after each evaluation and faults back in at the next
EVAL_ROWS = 1024


@dataclass
class MetricsRecord:
    """One evaluation snapshot during a run.

    For variants without a teacher, acc_teacher_target holds the student's
    accuracy (the deployed-network reading).
    """

    step: int
    lr: float
    parts: LossBreakdown
    acc_student_source: float
    acc_student_target: float
    acc_teacher_target: float


def accuracy(params_F: ParamSet, params_C: ParamSet, x: np.ndarray, y) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class.

    ``y`` holds one integer label in [0, logit columns) per row of ``x``.
    The forward pass runs over blocks of ``EVAL_ROWS`` rows, whose layer
    outputs stay in cache and in the heap; a one-row tail joins the last
    block, so the logits equal those of one pass over all rows bit for bit.
    A NaN or infinite logit raises NonFiniteError.
    """
    y = np.asarray(y).reshape(-1)
    if y.size == 0:
        raise ContractError("accuracy over an empty sample set")
    if y.dtype.kind not in "iu":  # a float or bool label would be truncated
        raise ContractError(f"labels must have an integer dtype, got {y.dtype}")
    x = np.asarray(x, dtype=np.float64)
    if y.size != x.shape[0]:
        raise ShapeError(f"{y.size} labels for {x.shape[0]} rows")
    c = params_C.spec.widths[-1]
    if y.min() < 0 or y.max() >= c:  # it would silently count as a miss
        raise ContractError(f"label out of range [0, {c})")
    hits = start = 0
    while start < y.size:
        stop = start + EVAL_ROWS
        if y.size - stop == 1:  # a one-row matmul sums in another order; join the block
            stop = y.size
        logits = forward_fc_plain(params_F, params_C, x[start:stop])
        if not np.isfinite(logits).all():  # argmax would count a NaN row as class 0
            raise NonFiniteError("evaluation logits hold NaN or infinity")
        hits += int(np.count_nonzero(np.argmax(logits, axis=1) == y[start:stop]))
        start = stop
    return hits / y.size


def stability(series, window_fraction: float = 0.5) -> float:
    """Sample standard deviation over the final window of an accuracy series.

    The window holds the last ceil(len * window_fraction) points and must
    contain at least two of them.
    """
    vals = np.asarray(series, dtype=np.float64).reshape(-1)
    if not (0.0 < window_fraction <= 1.0):
        raise ContractError(f"window_fraction must lie in (0, 1], got {window_fraction}")
    k = max(2, math.ceil(vals.size * window_fraction))
    if vals.size < k:
        raise ContractError(f"series of length {vals.size} too short for a window of {k}")
    return float(np.std(vals[-k:], ddof=1))


def ablation_report(results: dict[str, dict[int, float]],
                    tolerance: float = 0.005) -> dict:
    """Per-variant mean/std accuracies plus the cumulative-ordering verdict.

    results maps variant name -> {seed: final accuracy}.  The ordering check
    walks ABLATION_CHAIN restricted to the variants present: each mean may
    fall below its predecessor by at most `tolerance` (0.5 accuracy points
    by default, with accuracies on the 0..1 scale), which must be finite.
    """
    if not math.isfinite(tolerance):  # nan would fail every link, inf pass every one
        raise ContractError(f"ablation tolerance must be finite, got {tolerance}")
    variants = {}
    for name in sorted(results):
        per_seed = results[name]
        if not per_seed:
            raise ContractError(f"variant {name!r} has no runs")
        accs = [per_seed[s] for s in sorted(per_seed)]
        mean = float(np.mean(accs))
        std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
        variants[name] = {"mean": mean, "std": std, "n_seeds": len(accs),
                          "per_seed": {str(s): per_seed[s] for s in sorted(per_seed)}}
    chain = [v for v in ABLATION_CHAIN if v in variants]
    ok = True
    steps = []
    for lo, hi in zip(chain, chain[1:]):
        delta = variants[hi]["mean"] - variants[lo]["mean"]
        holds = delta >= -tolerance
        ok = ok and holds
        steps.append({"from": lo, "to": hi, "delta": delta, "holds": holds})
    return {"variants": variants,
            "ordering": {"chain": chain, "tolerance": tolerance,
                         "steps": steps, "satisfied": ok}}


# ---------------------------------------------------------------------------
# serialization: metrics CSV, ablation JSON

METRICS_COLUMNS = ("step", "lr", "l_c", "l_d_stu", "l_d_tea", "l_con", "total",
                   "acc_student_source", "acc_student_target", "acc_teacher_target")
_PARTS = {f.name for f in fields(LossBreakdown)}  # the columns held in MetricsRecord.parts


def metrics_to_csv(records: list[MetricsRecord]) -> str:
    lines = [",".join(METRICS_COLUMNS)]
    for r in records:
        values = (getattr(r.parts if c in _PARTS else r, c) for c in METRICS_COLUMNS[1:])
        lines.append(",".join([str(r.step), *(repr(float(v)) for v in values)]))
    return "\n".join(lines) + "\n"


def save_metrics(records: list[MetricsRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(metrics_to_csv(records))


def load_metrics(path) -> list[MetricsRecord]:
    """Read a metrics CSV; a corrupt, truncated or row-less file, or one
    holding nan or inf, raises ContractError (every run evaluates at least
    once, and every recorded value is finite)."""
    with open_text(path) as fh:
        text = fh.read()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ",".join(METRICS_COLUMNS):
        raise ContractError(f"unrecognized metrics header in {path}")
    if len(lines) == 1 or not text.endswith("\n"):
        raise ContractError(f"truncated metrics file {path}")
    out = []
    for ln in lines[1:]:
        try:
            step, *rest = ln.split(",")
            nums = [float(v) for v in rest]
            values = dict(zip(METRICS_COLUMNS[1:], nums, strict=True))
            parts = LossBreakdown(**{c: values.pop(c) for c in _PARTS})
            record = MetricsRecord(step=int(step), parts=parts, **values)
        except ValueError:
            raise ContractError(f"malformed metrics row in {path}: {ln[:60]!r}") from None
        if not all(map(math.isfinite, nums)):
            raise ContractError(f"non-finite value in {path}: {ln[:60]!r}")
        out.append(record)
    return out


def save_ablation(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

