"""Loss terms for adversarial domain adaptation with a student/teacher pair.

Four pieces: supervised cross-entropy on labeled source data, two conditional
adversarial losses (one conditioned on smoothed student predictions, one on
smoothed teacher predictions, both driven by student features through a
shared discriminator, each in one pass over the stacked source and target
rows), and a consistency penalty tying student predictions to the
teacher's.  The min-max game is realized by a gradient-reversal node in
front of the discriminator, so one backward pass updates everything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .exceptions import ConfigError, ContractError
from .networks import BoundNet, discriminate


def cross_entropy(p: T.Tensor, labels) -> T.Tensor:
    """Mean over the batch of -log p[i, label_i], p floored at 1e-12."""
    picked = T.gather_rows(p, labels)
    return T.neg(T.mean_all(T.log(T.clamp(picked, lo=1e-12))))


def domain_adv_loss(bound_D: BoundNet, h: T.Tensor, n_src: int,
                    lambda_grl: float, reverse: bool = True) -> T.Tensor:
    """Binary domain loss over stacked rows: the first ``n_src`` rows are
    source, pushed toward 1; the rest are target, pushed toward 0.

    All rows pass through one gradient-reversal node and one discriminator
    pass; only the 1-wide output is split for the two log terms.  The
    feature extractor is trained to confuse the discriminator while the
    discriminator itself receives ordinary gradients.  ``reverse=False``
    drops the reversal node (used by the finite-difference harness, which can
    only see the plain minimization objective).
    """
    rows = h.shape[0]
    if not 0 < n_src < rows:
        raise ContractError(f"domain_adv_loss needs 0 < n_src < {rows} rows, got n_src={n_src}")
    if reverse:
        h = T.grad_reverse(h, lambda_grl)
    d = discriminate(bound_D, h)
    loss_src = T.neg(T.mean_all(T.log(T.slice_rows(d, 0, n_src))))
    loss_tgt = T.neg(T.mean_all(T.log(T.rsub_const(1.0, T.slice_rows(d, n_src, rows)))))
    return T.add(loss_src, loss_tgt)


def adv_student(bound_D: BoundNet, f: T.Tensor, phat: np.ndarray, n_src: int,
                lambda_grl: float, reverse: bool = True) -> T.Tensor:
    """Conditioned adversarial loss: ``domain_adv_loss`` over the
    multilinear map of student features and condition rows.

    ``f`` stacks source feature rows over target ones, the first ``n_src``
    being source; ``phat`` holds the condition rows in the same order as a
    plain detached array, so gradients flow only through the student
    features and the discriminator.  REN applies this one term twice, under
    two names: ``adv_student`` conditions on smoothed student predictions,
    ``adv_teacher`` on smoothed teacher predictions, which keeps the
    teacher gradient-free.
    """
    h = T.multilinear(f, f.graph.constant(phat))
    return domain_adv_loss(bound_D, h, n_src, lambda_grl, reverse)


adv_teacher = adv_student


def consistency(p_stu: T.Tensor, p_tea: np.ndarray, squared: bool = True) -> T.Tensor:
    """Mean per-sample distance between student and teacher prediction rows.

    Default is the squared Euclidean distance (smooth at the student==teacher
    fixed point); squared=False uses the plain Euclidean norm.  The teacher
    side is a detached array, so gradients reach the student only.
    """
    g = p_stu.graph
    tea = T.as_matrix(p_tea)
    if tea.shape != p_stu.shape:
        raise ContractError(f"prediction shapes differ: {p_stu.shape} vs {tea.shape}")
    per_row = T.sum_rows(T.square(T.sub(p_stu, g.constant(tea))))
    if not squared:
        per_row = T.sqrt(per_row)
    return T.mean_all(per_row)


@dataclass
class LossBreakdown:
    """Scalar values of the four loss terms and their weighted total."""

    l_c: float
    l_d_stu: float
    l_d_tea: float
    l_con: float
    total: float

    def matches(self, lambda_stu: float, lambda_tea: float, gamma: float,
                tol: float = 1e-10) -> bool:
        """Recompute the weighted sum from parts and compare against total."""
        want = (self.l_c + lambda_stu * self.l_d_stu
                + lambda_tea * self.l_d_tea + gamma * self.l_con)
        return abs(want - self.total) <= tol


def total_loss(l_c: T.Tensor, l_d_stu: T.Tensor | None, l_d_tea: T.Tensor | None,
               l_con: T.Tensor | None, lambda_stu: float, lambda_tea: float,
               gamma: float) -> tuple[T.Tensor, LossBreakdown]:
    """Weighted sum of the active terms; inactive terms pass None.

    Returns the graph scalar to run backward on plus a detached breakdown
    whose total always satisfies the weighted-sum identity within 1e-10.
    """
    for name, w in (("lambda_stu", lambda_stu), ("lambda_tea", lambda_tea), ("gamma", gamma)):
        if w < 0:
            raise ConfigError(f"{name} must be >= 0, got {w}")
    total = l_c
    if l_d_stu is not None:
        total = T.add(total, T.scale(l_d_stu, lambda_stu))
    if l_d_tea is not None:
        total = T.add(total, T.scale(l_d_tea, lambda_tea))
    if l_con is not None:
        total = T.add(total, T.scale(l_con, gamma))
    parts = LossBreakdown(
        l_c=l_c.item(),
        l_d_stu=0.0 if l_d_stu is None else l_d_stu.item(),
        l_d_tea=0.0 if l_d_tea is None else l_d_tea.item(),
        l_con=0.0 if l_con is None else l_con.item(),
        total=total.item(),
    )
    return total, parts
