"""Finite-difference verification of every loss term's analytic gradient.

Builds a small seeded scenario (student nets, discriminator, one batch,
frozen conditioning rows) and compares graph gradients against central
differences.  The ``total`` check is the training step's own objective: it
records the four terms through ``trainer.step_terms``, the function
``Trainer.train_step`` calls, then weighs them with ``total_loss``.  Each
check records its loss with the model's own code: one backward pass gives
the analytic gradients, and every perturbed evaluation runs the same code
on a forward-only graph, which keeps no tape.  The adversarial terms are
built WITHOUT the gradient-reversal node: reversal makes the analytic
gradient -lambda times the loss gradient by construction, which central
differences cannot see.  The reversal algebra itself is covered by a
separate identity (see losses/adv tests).

Central differences presuppose the loss is smooth within +-h of the base
point.  Rectifier kinks and the discriminator's probability clamp break
that: with zero-initialized biases a fully rectified feature row puts the
discriminator's first layer exactly on its kink, where the numeric estimate
is a one-sided half-slope.  Scenario inputs are therefore redrawn until
every rectifier input and clamp distance on the ``total`` check's own tape
clears KINK_MARGIN, comfortably above the largest shift any single +-h
parameter perturbation can cause.  That tape holds every rectifier and
sigmoid the other checks run.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import tensor as T
from .exceptions import ContractError
from .losses import adv_student, adv_teacher, consistency, cross_entropy, total_loss
from .networks import (DISC_EPS, BoundNet, NetSpec, collect_grads, flat_arrays, forward_fc,
                       forward_fc_plain, init_params)
from .recipe import SEED_RANGE, check_value
from .tensor import GradCheckReport, finite_diff_check
from .trainer import step_terms

KINK_MARGIN = 2e-3


class LossCheck(NamedTuple):
    """One named loss and the parameters under test.

    ``build(g)`` records the loss on graph ``g`` and returns it with the
    nets it bound, whose gradients are the analytic ones to check.
    """

    name: str
    build: Callable[[T.Graph], tuple[T.Tensor, tuple[BoundNet, ...]]]
    params: dict[str, np.ndarray]


def _kink_margin(g: T.Graph) -> float:
    """Smallest distance on tape ``g`` to a non-smooth point: the |input| of
    every rectifier and every sigmoid output's distance from the clamp.

    A forward-only graph has no tape to scan, so it raises ContractError
    rather than read an empty tape as infinitely far from every kink."""
    if not g.record:
        raise ContractError("kink scan needs a recorded graph, got a forward-only one")
    margins = [math.inf]
    for node in g.nodes:
        if node.op == "relu":
            margins.append(np.abs(g.nodes[node.parents[0][0]].values).min())
        elif node.op == "sigmoid":
            out = node.values
            margins.append(min((out - DISC_EPS).min(), (1.0 - DISC_EPS - out).min()))
    return float(min(margins))


def loss_check_suite(seed: int, batch: int = 4, in_dim: int = 5, hidden: int = 6,
                     feature_dim: int = 4, n_classes: int = 3) -> list[LossCheck]:
    """Every loss term plus the unit-weighted total on one seeded scenario.

    Conditioning rows and the teacher's predictions are frozen at scenario
    build time, exactly as a training step treats them: constants that do
    not move when the checked parameters are perturbed.  The first ``batch``
    rows of every stacked array are source, the rest target.
    """
    check_value("seed", "int", SEED_RANGE, seed)
    check_value("batch", "int", {"ge": 1}, batch)

    def build_ce(g):
        bF, bC = BoundNet(g, ps_F, "F"), BoundNet(g, ps_C, "C")
        _, p = forward_fc(bF, bC, g.constant(xs))
        return cross_entropy(p, ys), (bF, bC)

    def adv_build(adv, phat):
        def build(g):
            bF, bD = BoundNet(g, ps_F, "F"), BoundNet(g, ps_D, "D")
            return adv(bD, bF(g.constant(x_all)), phat, batch, 1.0, reverse=False), (bF, bD)
        return build

    def build_con(g):
        bF, bC = BoundNet(g, ps_F, "F"), BoundNet(g, ps_C, "C")
        _, p = forward_fc(bF, bC, g.constant(x_all))
        return consistency(p, tea_all), (bF, bC)

    def build_total(g):
        bF, bC, bD = BoundNet(g, ps_F, "F"), BoundNet(g, ps_C, "C"), BoundNet(g, ps_D, "D")
        f_all, p_all = forward_fc(bF, bC, g.constant(x_all))
        terms = step_terms(bD, f_all, p_all, ys, batch, cond_all, tea_all, tea_all, 1.0,
                           reverse=False)
        total, _ = total_loss(*terms, 1.0, 1.0, 1.0)
        return total, (bF, bC, bD)

    for attempt in range(1000):
        ps_F = init_params(NetSpec((in_dim, hidden, feature_dim), "relu"), [seed, 11, attempt])
        ps_C = init_params(NetSpec((feature_dim, n_classes)), [seed, 12, attempt])
        ps_D = init_params(NetSpec((feature_dim * n_classes, hidden, 1), "sigmoid"),
                           [seed, 13, attempt])
        tea_F = init_params(NetSpec((in_dim, hidden, feature_dim), "relu"), [seed, 21, attempt])
        tea_C = init_params(NetSpec((feature_dim, n_classes)), [seed, 22, attempt])
        rng = np.random.default_rng([seed, 50, attempt])
        xs = rng.normal(size=(batch, in_dim))
        xt = rng.normal(size=(batch, in_dim))
        ys = rng.integers(0, n_classes, size=batch)
        x_all = np.vstack([xs, xt])
        cond_all = T.stable_softmax(forward_fc_plain(ps_F, ps_C, x_all))
        tea_all = T.stable_softmax(forward_fc_plain(tea_F, tea_C, x_all))
        g = T.Graph()
        build_total(g)
        if _kink_margin(g) > KINK_MARGIN:
            break
    else:
        raise ContractError(f"no finite-difference-safe scenario found for seed {seed}")

    fc = flat_arrays(("F", ps_F), ("C", ps_C))
    fd = flat_arrays(("F", ps_F), ("D", ps_D))
    fcd = flat_arrays(("F", ps_F), ("C", ps_C), ("D", ps_D))
    return [
        LossCheck("cross_entropy", build_ce, fc),
        LossCheck("adv_student", adv_build(adv_student, cond_all), fd),
        LossCheck("adv_teacher", adv_build(adv_teacher, tea_all), fd),
        LossCheck("consistency", build_con, fc),
        LossCheck("total", build_total, fcd),
    ]


def run_loss_checks(seed: int, h: float = 1e-5, tol: float = 1e-4, **suite_kwargs
                    ) -> list[tuple[str, GradCheckReport]]:
    """Finite-difference report per loss term.

    Each check records one graph and runs one backward pass on it for its
    analytic gradients; every perturbed evaluation builds on a forward-only
    graph, which records no node.
    """
    out = []
    for check in loss_check_suite(seed, **suite_kwargs):
        g = T.Graph()
        loss, nets = check.build(g)
        g.backward(loss)
        report = finite_diff_check(lambda: check.build(T.Graph(record=False))[0].item(),
                                   check.params, collect_grads(*nets), h=h, tol=tol)
        out.append((check.name, report))
    return out
