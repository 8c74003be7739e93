"""Per-sample smoothing of the predictions that condition the domain
discriminators.

An exponential moving average over each sample's prediction rows; the
losses couple the smoothed rows with features through the tape's
``multilinear`` op.  Ensembled predictions are conditioning signals only,
so they are stored and returned as plain arrays, never attached to a graph.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ContractError, ShapeError
from .recipe import UNIT_RANGE, check_value


def _check_prob_rows(p: np.ndarray, what: str) -> None:
    if p.size == 0:
        return
    # NaN fails every comparison below, so it is caught first
    if not np.isfinite(p).all():
        raise ContractError(f"{what} holds NaN or infinity")
    if p.min() < -1e-12:
        raise ContractError(f"{what} has a negative entry ({p.min()})")
    sums = p.sum(axis=1)
    worst = np.abs(sums - 1.0).max()
    if worst > 1e-9:
        raise ContractError(f"{what} rows must sum to 1 (off by {worst:.3e})")


class PredEmaState:
    """Per-sample smoothed predictions of one branch, student or teacher.

    Each sample id maps to one probability row; the first visit stores the
    prediction unchanged, later visits blend:
        smoothed_new = (1 - alpha_p) * smoothed_old + alpha_p * current
    Note the orientation: alpha_p weights the CURRENT prediction, which is
    the opposite of the weight-ensembling update.  alpha_p = 1 makes this
    the identity on the current prediction.

    Storage is dense: a (capacity, n_classes) table indexed by sample id and
    a mask of the ids seen so far.  Both grow geometrically to cover the
    largest id, so memory follows the largest id, not the number of
    distinct ids.
    """

    def __init__(self, alpha_p: float, n_classes: int):
        check_value("alpha_p", "float", UNIT_RANGE, alpha_p)
        alpha_p = float(alpha_p)
        check_value("n_classes", "int", {"ge": 1}, n_classes)
        self.alpha_p = alpha_p
        self.n_classes = n_classes
        self._table = np.zeros((0, n_classes))
        self._seen = np.zeros(0, dtype=bool)

    def row(self, sample_id: int) -> np.ndarray:
        """A copy of the smoothed row stored for one sample id."""
        if not (0 <= sample_id < self._seen.shape[0] and self._seen[sample_id]):
            raise ContractError(f"no prediction stored for sample {sample_id}")
        return self._table[sample_id].copy()

    def _blend(self, ids: np.ndarray, p_n: np.ndarray) -> np.ndarray:
        """One gather/blend/scatter over distinct ids, after growing the
        table and mask to hold the largest id."""
        have = self._seen.shape[0]
        if (size := int(ids.max()) + 1) > have:
            grow = max(size, 2 * have) - have
            self._table = np.concatenate([self._table, np.zeros((grow, self.n_classes))])
            self._seen = np.concatenate([self._seen, np.zeros(grow, dtype=bool)])
        a = self.alpha_p
        out = (1.0 - a) * self._table[ids] + a * p_n
        first = ~self._seen[ids]
        out[first] = p_n[first]
        self._table[ids] = out
        self._seen[ids] = True
        return out


def _sample_ids(sample_ids) -> np.ndarray:
    """Sample ids as a flat int64 array; non-integer or negative ids raise."""
    raw = np.asarray(sample_ids).reshape(-1)
    if raw.size == 0:
        return raw.astype(np.int64)
    if raw.dtype.kind not in "iu":
        raise ContractError(f"sample ids must be integers, got dtype {raw.dtype}")
    ids = raw.astype(np.int64)
    if ids.min() < 0:
        raise ContractError(f"sample ids must be >= 0, got {ids.min()}")
    return ids


def pred_ema(state: PredEmaState, sample_ids, p_n: np.ndarray) -> np.ndarray:
    """Blend current predictions into the stored per-sample average.

    Returns the updated rows in sample order as a detached array; the caller
    wraps them as a graph constant if they feed a loss.  An id may appear
    once per call: a repeat raises ContractError before any row changes.
    """
    p_n = np.asarray(p_n, dtype=np.float64)
    ids = _sample_ids(sample_ids)
    if p_n.ndim != 2 or p_n.shape != (ids.shape[0], state.n_classes):
        raise ShapeError(f"predictions {p_n.shape} do not match {ids.shape[0]} ids "
                         f"x {state.n_classes} classes")
    _check_prob_rows(p_n, "prediction batch")
    if ids.size == 0:
        return p_n.copy()
    ordered = np.sort(ids)
    repeats = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeats.size:
        raise ContractError(f"sample id {repeats[0]} appears more than once in one call")
    return state._blend(ids, p_n)
