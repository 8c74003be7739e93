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
point, and rectifier kinks and probability clamps break that: a zero input
row meets zero biases on every rectifier's kink.  So every perturbed pass
replays the relu and clamp selections of one forward-only pass at the
scenario's own arrays (``replaying_loss``).  It computes the smooth branch
function whose derivative the tape's vjps give, and equals the plain
forward pass bit for bit wherever no selection flips.  A scenario is its
seed's first draw.
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
    specs = {"F": NetSpec((in_dim, hidden, feature_dim), "relu"),
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

    def check(name, term, prefixes):
        def build(g, arrays=None):
            arrays = own if arrays is None else arrays
            # every check binds F; the axes its arrays have beyond own's are the lead
            lead = arrays["F.w0"].shape[:arrays["F.w0"].ndim - own["F.w0"].ndim]
            nets = {p: BoundNet(g, ParamSet(specs[p], {k[len(p) + 1:]: v for k, v in arrays.items()
                                                       if k.startswith(p + ".")}), p)
                    for p in prefixes}
            x, ys, cond, tea = (np.broadcast_to(a, lead + a.shape) for a in inputs)
            x = g.constant(x)
            f_all, p_all = (forward_fc(nets["F"], nets["C"], x) if "C" in nets
                            else (nets["F"](x), None))
            switches = (ys, cond, tea, tea)  # step_terms' per-term inputs
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


def replaying_loss(check: LossCheck) -> Callable[[dict[str, np.ndarray]], np.ndarray]:
    """``check``'s ``loss_fn`` for ``finite_diff_check``: each call builds
    the loss from ``stacks`` on a forward-only graph that replays the relu
    and clamp selections of one forward-only pass at the scenario's own
    arrays.  A call that replays another number of selections raises
    ContractError."""
    base = T.Graph(record=False)
    check.build(base)

    def loss_fn(stacks):
        g = T.Graph(record=False, replay=base.selections)
        loss = check.build(g, stacks)[0]
        if len(g.selections) != len(base.selections):
            raise ContractError(f"{check.name} replayed {len(g.selections)} of "
                                f"{len(base.selections)} recorded selections")
        return loss.values

    return loss_fn


def run_loss_checks(seed: int, h: float = 1e-5, tol: float = 1e-4, **suite_kwargs
                    ) -> list[tuple[str, GradCheckReport]]:
    """Finite-difference report per loss term.

    Each check records one graph and runs one backward pass on it for its
    analytic gradients.  Each ``loss_fn`` call of ``finite_diff_check`` is
    one stacked forward pass on the base point's branch
    (``replaying_loss``), and at default sizes a check makes one such call.
    """
    out = []
    for check in loss_check_suite(seed, **suite_kwargs):
        g = T.Graph()
        loss, nets = check.build(g)
        g.backward(loss)
        report = finite_diff_check(replaying_loss(check), check.params, collect_grads(*nets),
                                   h=h, tol=tol)
        out.append((check.name, report))
    return out
