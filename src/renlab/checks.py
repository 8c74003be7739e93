"""Finite-difference verification of every loss term's analytic gradient.

Builds a small seeded scenario (student nets, discriminator, one batch,
frozen conditioning rows) and compares graph gradients against central
differences.  The adversarial terms are built WITHOUT the gradient-reversal
node: reversal makes the analytic gradient -lambda times the loss gradient
by construction, which central differences cannot see.  The reversal algebra
itself is covered by a separate identity (see losses/adv tests).

Central differences presuppose the loss is smooth within +-h of the base
point.  Rectifier kinks and the discriminator's probability clamp break
that: with zero-initialized biases a fully rectified feature row puts the
discriminator's first layer exactly on its kink, where the numeric estimate
is a one-sided half-slope.  Scenario inputs are therefore redrawn until
every preactivation and clamp distance clears KINK_MARGIN, comfortably
above the largest shift any single +-h parameter perturbation can cause.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .conditioning import multilinear_plain
from .exceptions import ContractError
from .losses import adv_student, adv_teacher, consistency, cross_entropy, total_loss
from .networks import (DISC_EPS, BoundNet, NetSpec, ParamSet, collect_grads,
                       forward_fc, forward_fc_plain, init_params)
from .tensor import GradCheckReport, finite_diff_check

KINK_MARGIN = 2e-3


@dataclass
class LossCheck:
    """One named loss with its closure and the parameters under test."""

    name: str
    loss_fn: Callable[[], tuple[float, dict[str, np.ndarray]]]
    params: dict[str, np.ndarray]


def _flat(prefix: str, ps: ParamSet) -> dict[str, np.ndarray]:
    return {f"{prefix}.{k}": v for k, v in ps.items()}


def _nonsmoothness_margins(ps: ParamSet, x: np.ndarray) -> tuple[list[float], np.ndarray]:
    """Distance of every rectifier preactivation (and sigmoid output from its
    clamp) to the nearest non-smooth point, plus the forward output."""
    margins: list[float] = []
    h = x
    for i in range(ps.n_layers):
        z = h @ ps.params[f"w{i}"] + ps.params[f"b{i}"]
        last = i == ps.n_layers - 1
        if not last or ps.spec.final == "relu":
            margins.append(float(np.abs(z).min()))
            h = np.maximum(z, 0.0)
        elif ps.spec.final == "sigmoid":
            p = T.stable_sigmoid(z)
            margins.append(float(min((p - DISC_EPS).min(), (1.0 - DISC_EPS - p).min())))
            h = p
        else:
            h = z
    return margins, h


def loss_check_suite(seed: int, batch: int = 4, in_dim: int = 5, hidden: int = 6,
                     feature_dim: int = 4, n_classes: int = 3,
                     lambda_stu: float = 1.0, lambda_tea: float = 1.0,
                     gamma: float = 1.0, squared: bool = True) -> list[LossCheck]:
    """Every loss term plus the weighted total on one seeded scenario.

    Conditioning rows and the teacher's predictions are frozen at scenario
    build time, exactly as a training step treats them: constants that do
    not move when the checked parameters are perturbed.
    """
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
        _, _, cond_src = forward_fc_plain(ps_F, ps_C, xs)
        _, _, cond_tgt = forward_fc_plain(ps_F, ps_C, xt)
        _, _, tea_src = forward_fc_plain(tea_F, tea_C, xs)
        _, _, tea_tgt = forward_fc_plain(tea_F, tea_C, xt)
        margins, feats = [], {}
        for name, x in (("src", xs), ("tgt", xt)):
            m, feats[name] = _nonsmoothness_margins(ps_F, x)
            margins += m
        for f, cond in ((feats["src"], cond_src), (feats["tgt"], cond_tgt),
                        (feats["src"], tea_src), (feats["tgt"], tea_tgt)):
            m, _ = _nonsmoothness_margins(ps_D, multilinear_plain(f, cond))
            margins += m
        if min(margins) > KINK_MARGIN:
            break
    else:
        raise ContractError(f"no finite-difference-safe scenario found for seed {seed}")
    x_all = np.vstack([xs, xt])
    cond_all = np.vstack([cond_src, cond_tgt])
    tea_all = np.vstack([tea_src, tea_tgt])

    def loss_ce():
        g = T.Graph()
        bF, bC = BoundNet(g, ps_F, "F"), BoundNet(g, ps_C, "C")
        _, _, p = forward_fc(bF, bC, g.constant(xs))
        loss = cross_entropy(p, ys)
        g.backward(loss)
        return loss.item(), collect_grads(bF, bC)

    def _adv(term):
        g = T.Graph()
        bF, bD = BoundNet(g, ps_F, "F"), BoundNet(g, ps_D, "D")
        f_all = bF(g.constant(x_all))
        if term == "student":
            loss = adv_student(bD, f_all, cond_all, batch, 1.0, reverse=False)
        else:
            loss = adv_teacher(bD, f_all, tea_all, batch, 1.0, reverse=False)
        g.backward(loss)
        return loss.item(), collect_grads(bF, bD)

    def loss_con():
        g = T.Graph()
        bF, bC = BoundNet(g, ps_F, "F"), BoundNet(g, ps_C, "C")
        _, _, p = forward_fc(bF, bC, g.constant(x_all))
        loss = consistency(p, tea_all, squared=squared)
        g.backward(loss)
        return loss.item(), collect_grads(bF, bC)

    def loss_total():
        g = T.Graph()
        bF, bC, bD = BoundNet(g, ps_F, "F"), BoundNet(g, ps_C, "C"), BoundNet(g, ps_D, "D")
        f_all, _, p_all = forward_fc(bF, bC, g.constant(x_all))
        l_c = cross_entropy(T.slice_rows(p_all, 0, batch), ys)
        l_stu = adv_student(bD, f_all, cond_all, batch, 1.0, reverse=False)
        l_tea = adv_teacher(bD, f_all, tea_all, batch, 1.0, reverse=False)
        l_con = consistency(p_all, tea_all, squared=squared)
        total, _ = total_loss(l_c, l_stu, l_tea, l_con, lambda_stu, lambda_tea, gamma)
        g.backward(total)
        return total.item(), collect_grads(bF, bC, bD)

    fc = {**_flat("F", ps_F), **_flat("C", ps_C)}
    fd = {**_flat("F", ps_F), **_flat("D", ps_D)}
    fcd = {**fc, **_flat("D", ps_D)}
    return [
        LossCheck("cross_entropy", loss_ce, fc),
        LossCheck("adv_student", lambda: _adv("student"), fd),
        LossCheck("adv_teacher", lambda: _adv("teacher"), fd),
        LossCheck("consistency", loss_con, fc),
        LossCheck("total", loss_total, fcd),
    ]


def run_loss_checks(seed: int, h: float = 1e-5, tol: float = 1e-4,
                    corrupt: bool = False, **suite_kwargs
                    ) -> list[tuple[str, GradCheckReport]]:
    """Finite-difference report per loss term; `corrupt` poisons one analytic
    gradient so harness failure handling can be exercised."""
    out = []
    for check in loss_check_suite(seed, **suite_kwargs):
        fn = check.loss_fn
        if corrupt and check.name == "total":
            inner = fn

            def fn():
                loss, grads = inner()
                first = next(iter(grads))
                grads[first] = grads[first] + 1e-3
                return loss, grads

        out.append((check.name, finite_diff_check(fn, check.params, h=h, tol=tol)))
    return out
