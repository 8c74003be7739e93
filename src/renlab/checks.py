"""Finite-difference verification of every loss term's analytic gradient.

Builds a small seeded scenario (student nets, discriminator, one batch,
frozen conditioning rows) and compares graph gradients against central
differences.  Every check reads the training step's own objective,
``trainer.step_terms``, the function ``Trainer.train_step`` calls, with F, C
and D bound and all four terms on: the per-term checks read one term each,
and ``total`` their unit-weighted sum from ``total_loss``.  The scenario's
objective is recorded once, on one tape, and each check's analytic
gradients come from one backward pass of its own loss on that tape.  The
perturbed evaluations run the same code as forward-only stacks, which keep
no tape: the perturbed copies of every F, C and D entry sit on a leading
axis of one forward pass (one per scenario at default sizes), which returns
all five losses of each copy, and each copy gets the bits of its own rank-2
run.  Each check's report reads its own loss over its own nets' entries
only.  The adversarial terms are built WITHOUT the gradient-reversal node:
reversal makes the analytic gradient -lambda times the loss gradient by
construction, which central differences cannot see.  The reversal algebra
itself is covered by a separate identity (see losses/adv tests).

Central differences presuppose the loss is smooth within +-h of the base
point, and rectifier kinks and probability clamps break that: a zero input
row meets zero biases on every rectifier's kink.  So every perturbed pass
replays the relu and clamp selections the tape recorded at the scenario's
own arrays (``replaying_losses``).  It computes the smooth branch function
whose derivative the tape's vjps give, and equals the plain forward pass
bit for bit wherever no selection flips.  A scenario is its seed's first
draw.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import tensor as T
from .exceptions import ContractError
# only total_loss is called here; perfbench/tracing.py still wraps the four terms at this module
from .losses import adv_student, adv_teacher, consistency, cross_entropy, total_loss
from .networks import (BoundNet, NetSpec, ParamSet, collect_grads, flat_arrays,
                       forward_fc, forward_fc_plain, init_params)
from .recipe import SEED_RANGE, check_value
from .tensor import GradCheckReport, finite_diff_check
from .trainer import step_terms


class LossCheck(NamedTuple):
    """One named loss of the scenario's objective and the parameters under test.

    ``objective(g, arrays=None)`` records the scenario's five losses on
    graph ``g``, in the suite's check order, with F, C and D bound from the
    flat ``"<prefix>.<array>"`` dict ``arrays``, the scenario's own when
    None, and returns them with the bound nets by prefix.  Arrays stacked on
    a leading axis the scenario's own do not have give five losses per
    copy: the frozen inputs are lifted to that axis.  This check's loss is
    number ``index``, and ``params`` holds the arrays of the nets it reads.
    """

    name: str
    index: int
    objective: Callable[..., tuple[tuple[T.Tensor, ...], dict[str, BoundNet]]]
    params: dict[str, np.ndarray]

    def build(self, g: T.Graph, arrays: dict[str, np.ndarray] | None = None
              ) -> tuple[T.Tensor, tuple[BoundNet, ...]]:
        """This check's loss on ``g`` and the bound nets its ``params`` name."""
        losses, nets = self.objective(g, arrays)
        return losses[self.index], tuple(net for prefix, net in nets.items()
                                         if f"{prefix}.w0" in self.params)


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
    # one class makes the softmax the constant 1, so no loss term could move
    check_value("n_classes", "int", {"ge": 2}, n_classes)
    # F has training's depth, two hidden layers, and ``hidden`` sets both
    specs = {"F": NetSpec((in_dim, hidden, hidden, feature_dim), "relu"),
             "C": NetSpec((feature_dim, n_classes)),
             "D": NetSpec((feature_dim * n_classes, hidden, 1), "sigmoid")}
    ps = {net: init_params(specs[net], [seed, key])
          for net, key in (("F", 11), ("C", 12), ("D", 13))}
    tea_F = init_params(specs["F"], [seed, 21])
    tea_C = init_params(specs["C"], [seed, 22])
    rng = np.random.default_rng([seed, 50])
    xs = rng.normal(size=(batch, in_dim))
    xt = rng.normal(size=(batch, in_dim))
    ys = rng.integers(0, n_classes, size=batch)
    x_all = np.vstack([xs, xt])
    # the frozen inputs: source rows over target rows, the source labels, and
    # the student's and the teacher's prediction rows
    inputs = (x_all, ys, T.stable_softmax(forward_fc_plain(ps["F"], ps["C"], x_all)),
              T.stable_softmax(forward_fc_plain(tea_F, tea_C, x_all)))
    own = flat_arrays(*ps.items())

    def objective(g, arrays=None):
        arrays = own if arrays is None else arrays
        # the axes the arrays have beyond own's are the lead
        lead = arrays["F.w0"].shape[:arrays["F.w0"].ndim - own["F.w0"].ndim]
        nets = {p: BoundNet(g, ParamSet(spec, {k[len(p) + 1:]: v for k, v in arrays.items()
                                               if k.startswith(p + ".")}), p)
                for p, spec in specs.items()}
        x, ys, cond, tea = (np.broadcast_to(a, lead + a.shape) for a in inputs)
        f_all, p_all = forward_fc(nets["F"], nets["C"], g.constant(x))
        terms = step_terms(nets["D"], f_all, p_all, ys, batch, cond, tea, tea, 1.0, reverse=False)
        return (*terms, total_loss(*terms, 1.0, 1.0, 1.0)[0]), nets

    return [LossCheck(name, i, objective, {k: v for k, v in own.items()
                                           if k.split(".", 1)[0] in prefixes})
            for i, (name, prefixes) in enumerate((
                ("cross_entropy", "FC"), ("adv_student", "FD"), ("adv_teacher", "FD"),
                ("consistency", "FC"), ("total", "FCD")))]


def replaying_losses(objective: Callable, selections: list
                     ) -> Callable[[dict[str, np.ndarray]], np.ndarray]:
    """``finite_diff_check``'s ``loss_fn`` over every loss ``objective``
    records: each call records them from ``stacks`` on a forward-only graph
    that replays ``selections``, a tape's relu and clamp selections at the
    scenario's own arrays, and returns them side by side on the last axis,
    shape (K, 1, L) for K stacked copies.  A call that replays another
    number of selections raises ContractError."""
    def loss_fn(stacks):
        g = T.Graph(record=False, replay=selections)
        losses = objective(g, stacks)[0]
        if len(g.selections) != len(selections):
            raise ContractError(f"the objective replayed {len(g.selections)} of "
                                f"{len(selections)} recorded selections")
        return np.concatenate([loss.values for loss in losses], axis=-1)

    return loss_fn


def run_loss_checks(seed: int, h: float = 1e-5, tol: float = 1e-4, **suite_kwargs
                    ) -> list[tuple[str, GradCheckReport]]:
    """Finite-difference report per loss term.

    One tape records the scenario's objective, and one backward pass of
    each check's loss on it gives that check's analytic gradients.  Each
    ``loss_fn`` call of ``finite_diff_check`` is one stacked forward pass on
    the tape's branch (``replaying_losses``) that returns all five losses,
    and at default sizes one such call covers the whole scenario.
    """
    checks = loss_check_suite(seed, **suite_kwargs)
    objective = checks[0].objective  # the one every check reads
    g = T.Graph()
    losses, nets = objective(g)
    grads = []
    for check in checks:
        g.backward(losses[check.index])
        every = collect_grads(*nets.values())
        grads.append({k: every[k] for k in check.params})
    params = {k: v for check in checks for k, v in check.params.items()}
    reports = finite_diff_check(replaying_losses(objective, g.selections), params, grads,
                                h=h, tol=tol)
    return [(check.name, report) for check, report in zip(checks, reports)]
