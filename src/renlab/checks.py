"""Finite-difference verification of every loss term's analytic gradient.

Builds a small seeded scenario (student nets, discriminator, one batch,
frozen conditioning rows) and compares graph gradients against central
differences.  Every check is the training step's own objective,
``trainer.step_terms``, the function ``Trainer.train_step`` calls, with the
other terms off: a per-term check passes None for every other term's input
and reads its own term, and ``total`` turns all four on and weighs them with
``total_loss``.  A check binds only the nets its terms read.  One backward
pass gives the analytic gradients, and the perturbed evaluations run the
same code as forward-only stacks, which keep no tape: the perturbed copies
of all of a check's arrays sit on a leading axis of one forward pass (one
per check at default sizes), and each copy gets the bits of its own rank-2
run.  The adversarial terms are built WITHOUT the gradient-reversal node:
reversal makes the analytic gradient -lambda times the loss gradient by
construction, which central differences cannot see.  The reversal algebra
itself is covered by a separate identity (see losses/adv tests).

Central differences presuppose the loss is smooth within +-h of the base
point.  Rectifier kinks and the discriminator's probability clamp break
that: with zero-initialized biases a fully rectified feature row puts the
discriminator's first layer exactly on its kink, where the numeric estimate
is a one-sided half-slope.  Scenario inputs are therefore redrawn until
every rectifier input and clamp distance on the ``total`` check's own tape
clears KINK_MARGIN, comfortably above the largest shift any single +-h
parameter perturbation can cause.  That tape holds every rectifier and
sigmoid the other checks run.  It is recorded for KINK_STACK attempts at
once, stacked, with one margin read per attempt.  When no attempt clears
the margin, the error gives the largest margin any attempt reached.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import tensor as T
from .exceptions import ContractError
# only total_loss is called here; perfbench/tracing.py still wraps the four terms at this module
from .losses import adv_student, adv_teacher, consistency, cross_entropy, total_loss
from .networks import (DISC_EPS, BoundNet, NetSpec, ParamSet, collect_grads, flat_arrays,
                       forward_fc, forward_fc_plain, init_params)
from .recipe import SEED_RANGE, check_value
from .tensor import GradCheckReport, finite_diff_check
from .trainer import step_terms

KINK_MARGIN = 2e-3
KINK_STACK = 4  # scenario attempts whose kink margins one recorded tape reads


class LossCheck(NamedTuple):
    """One named loss and the parameters under test.

    ``build(g, arrays=None)`` records the loss on graph ``g`` with its nets
    bound from the flat ``"<prefix>.<array>"`` dict ``arrays``, the
    scenario's own when None, and returns it with the bound nets, whose
    gradients are the analytic ones to check.  Arrays stacked on a leading
    axis the scenario's own do not have give one loss per copy: the frozen
    inputs are lifted to that axis.
    """

    name: str
    build: Callable[..., tuple[T.Tensor, tuple[BoundNet, ...]]]
    params: dict[str, np.ndarray]


class _Inputs(NamedTuple):
    """A scenario's frozen inputs: source rows over target rows, the source
    labels, and the student's and the teacher's prediction rows."""

    x_all: np.ndarray
    ys: np.ndarray
    cond_all: np.ndarray
    tea_all: np.ndarray


def _kink_margin(g: T.Graph) -> float | np.ndarray:
    """Smallest distance on tape ``g`` to a non-smooth point, one per matrix
    of a stacked tape: the |input| of every rectifier and every sigmoid
    output's distance from the clamp.

    A forward-only graph has no tape to scan, so it raises ContractError
    rather than read an empty tape as infinitely far from every kink."""
    if not g.record:
        raise ContractError("kink scan needs a recorded graph, got a forward-only one")
    margin = math.inf
    for node in g.nodes:
        if node.op == "relu":
            m = np.abs(g.nodes[node.parents[0][0]].values).min(axis=(-2, -1))
        elif node.op == "sigmoid":
            out = node.values
            m = np.minimum((out - DISC_EPS).min(axis=(-2, -1)),
                           (1.0 - DISC_EPS - out).min(axis=(-2, -1)))
        else:
            continue
        margin = np.minimum(margin, m)
    return margin


def _suite(specs: dict[str, NetSpec], batch: int, own: dict[str, np.ndarray],
           inputs: _Inputs) -> list[LossCheck]:
    """The five checks of one scenario: nets ``specs`` with the flat arrays
    ``own``, and ``inputs`` whose first ``batch`` rows are source."""

    def check(name, term, prefixes):
        def build(g, arrays=None):
            arrays = own if arrays is None else arrays
            # every check binds F; the axes its arrays have beyond own's are the lead
            lead = arrays["F.w0"].shape[:arrays["F.w0"].ndim - own["F.w0"].ndim]
            nets = {p: BoundNet(g, ParamSet(specs[p], {k[len(p) + 1:]: v for k, v in arrays.items()
                                                       if k.startswith(p + ".")}), p)
                    for p in prefixes}
            c = _Inputs(*(np.broadcast_to(a, lead + a.shape) for a in inputs))
            x = g.constant(c.x_all)
            if "C" in nets:
                f_all, p_all = forward_fc(nets["F"], nets["C"], x)
            else:
                f_all, p_all = nets["F"](x), None
            switches = (c.ys, c.cond_all, c.tea_all, c.tea_all)  # step_terms' per-term inputs
            if term is not None:  # every term but this one off
                switches = [v if i == term else None for i, v in enumerate(switches)]
            ys, cond, tea_cond, tea_p = switches
            terms = step_terms(nets.get("D"), f_all, p_all, ys, batch, cond, tea_cond, tea_p, 1.0,
                               reverse=False)
            loss = total_loss(*terms, 1.0, 1.0, 1.0)[0] if term is None else terms[term]
            return loss, tuple(nets.values())
        return LossCheck(name, build, {k: v for k, v in own.items()
                                       if k.split(".", 1)[0] in prefixes})

    return [check("cross_entropy", 0, ("F", "C")), check("adv_student", 1, ("F", "D")),
            check("adv_teacher", 2, ("F", "D")), check("consistency", 3, ("F", "C")),
            check("total", None, ("F", "C", "D"))]


def loss_check_suite(seed: int, batch: int = 4, in_dim: int = 5, hidden: int = 6,
                     feature_dim: int = 4, n_classes: int = 3) -> list[LossCheck]:
    """Every loss term plus the unit-weighted total on one seeded scenario.

    Conditioning rows and the teacher's predictions are frozen at scenario
    build time, exactly as a training step treats them: constants that do
    not move when the checked parameters are perturbed.  The first ``batch``
    rows of every stacked array are source, the rest target.  Attempts are
    drawn each from its own seed keys and scanned for kinks KINK_STACK at a
    time, on one stacked ``total`` tape; the first attempt that clears
    KINK_MARGIN is the scenario.
    """
    check_value("seed", "int", SEED_RANGE, seed)
    check_value("batch", "int", {"ge": 1}, batch)
    # one class makes the softmax the constant 1, so no loss term could move
    check_value("n_classes", "int", {"ge": 2}, n_classes)
    specs = {"F": NetSpec((in_dim, hidden, feature_dim), "relu"),
             "C": NetSpec((feature_dim, n_classes)),
             "D": NetSpec((feature_dim * n_classes, hidden, 1), "sigmoid")}

    def draw(attempt):
        ps = {net: init_params(specs[net], [seed, key, attempt])
              for net, key in (("F", 11), ("C", 12), ("D", 13))}
        tea_F = init_params(specs["F"], [seed, 21, attempt])
        tea_C = init_params(specs["C"], [seed, 22, attempt])
        rng = np.random.default_rng([seed, 50, attempt])
        xs = rng.normal(size=(batch, in_dim))
        xt = rng.normal(size=(batch, in_dim))
        ys = rng.integers(0, n_classes, size=batch)
        x_all = np.vstack([xs, xt])
        cond_all = T.stable_softmax(forward_fc_plain(ps["F"], ps["C"], x_all))
        tea_all = T.stable_softmax(forward_fc_plain(tea_F, tea_C, x_all))
        return flat_arrays(*ps.items()), _Inputs(x_all, ys, cond_all, tea_all)

    best = 0.0  # the largest margin any attempt reached
    for first in range(0, 1000, KINK_STACK):
        draws = [draw(a) for a in range(first, min(first + KINK_STACK, 1000))]
        arrays, inputs = zip(*draws)
        stacked = _suite(specs, batch, {k: np.stack([a[k] for a in arrays]) for k in arrays[0]},
                         _Inputs(*map(np.stack, zip(*inputs))))
        g = T.Graph()
        stacked[-1].build(g)
        margins = _kink_margin(g)
        clear = np.flatnonzero(margins > KINK_MARGIN)
        if clear.size:
            return _suite(specs, batch, *draws[clear[0]])
        best = max(best, float(np.max(margins)))
    raise ContractError(f"no finite-difference-safe scenario found for seed {seed}: the best of "
                        f"1000 attempts has kink margin {best:.3g} < KINK_MARGIN {KINK_MARGIN}")


def run_loss_checks(seed: int, h: float = 1e-5, tol: float = 1e-4, **suite_kwargs
                    ) -> list[tuple[str, GradCheckReport]]:
    """Finite-difference report per loss term.

    Each check records one graph and runs one backward pass on it for its
    analytic gradients.  The perturbed evaluations build on forward-only
    graphs, which record no node: each ``loss_fn`` call of
    ``finite_diff_check`` is one stacked forward pass over every perturbed
    copy it asks for, and at default sizes a check makes one such call.
    """
    out = []
    for check in loss_check_suite(seed, **suite_kwargs):
        g = T.Graph()
        loss, nets = check.build(g)
        g.backward(loss)
        report = finite_diff_check(
            lambda stacks: check.build(T.Graph(record=False), stacks)[0].values,
            check.params, collect_grads(*nets), h=h, tol=tol)
        out.append((check.name, report))
    return out
