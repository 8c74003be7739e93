"""Training loop: per-step loss assembly, SGD with momentum, learning-rate
annealing, teacher weight smoothing, and the ablation-variant switchboard.

Variants form a cumulative chain:
  source_only  supervised cross-entropy only
  cdan         + adversarial loss conditioned on raw student predictions
  cdan_m       + teacher maintained by weight smoothing (evaluation only)
  cdan_m_d     + second adversarial term; both now condition on smoothed
                 per-sample predictions (student and teacher branches)
  ren          + consistency penalty between student and teacher predictions
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import tensor as T
from .conditioning import PredEmaState, pred_ema
from .datasets import Batch, DomainDataset, batch_stream
from .evaluation import ABLATION_CHAIN, MetricsRecord, accuracy
from .exceptions import ConfigError, ContractError, ShapeError
from .losses import (LossBreakdown, adv_student, adv_teacher, consistency,
                     cross_entropy, total_loss)
from .networks import (BoundNet, DualNet, NetSpec, ParamSet, alpha_theta_ramp,
                       collect_grads, ema_update, forward_fc, forward_fc_plain,
                       init_params)
from .recipe import SEED_RANGE, check_fields, parse_field

VARIANTS = ("source_only", *ABLATION_CHAIN)

# which mechanisms each variant switches on
_USES_DISC = set(ABLATION_CHAIN)
_USES_TEACHER = {"cdan_m", "cdan_m_d", "ren"}
_USES_SMOOTHED_CONDITIONS = {"cdan_m_d", "ren"}
_USES_CONSISTENCY = {"ren"}
# variants that read the teacher's per-step predictions; cdan_m keeps a
# teacher for evaluation only
_USES_TEACHER_PREDICTIONS = _USES_SMOOTHED_CONDITIONS | _USES_CONSISTENCY


@dataclass(frozen=True)
class TrainConfig:
    """The training recipe: each field is a config key and a flag (see renlab.recipe)."""

    eta0: float = field(default=0.01, metadata={"gt": 0})
    anneal_alpha: float = field(default=10.0, metadata={"ge": 0})
    anneal_beta: float = field(default=0.75, metadata={"ge": 0})
    momentum: float = field(default=0.9, metadata={"ge": 0, "lt": 1})
    batch_size: int = field(default=32, metadata={"ge": 1})
    total_steps: int = field(default=3000, metadata={"ge": 0})
    alpha_theta: float | str = field(default="ramp",
                                     metadata={"ge": 0, "le": 1, "choices": ("ramp",)})
    alpha_p: float = field(default=0.6, metadata={"ge": 0, "le": 1})
    lambda_stu: float = field(default=1.0, metadata={"ge": 0})
    lambda_tea: float = field(default=1.0, metadata={"ge": 0})
    gamma: float = field(default=1.0, metadata={"ge": 0})
    grl_ramp: bool = True
    gamma_ramp: bool = True
    eval_every: int = field(default=50, metadata={"ge": 1})
    seed: int = field(default=0, metadata=SEED_RANGE)
    variant: str = field(default="ren", metadata={"choices": VARIANTS})
    feature_hidden: int = field(default=64, metadata={"ge": 1})
    feature_dim: int = field(default=16, metadata={"ge": 1})
    disc_hidden: int = field(default=64, metadata={"ge": 1})

    def __post_init__(self):
        check_fields(self)


parse_config_value = functools.partial(parse_field, TrainConfig)


def parse_config_text(text: str) -> dict:
    """Flat `key = value` lines, each key at most once; blank lines and #
    comments are skipped."""
    out: dict = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in first_line:
            raise ConfigError(f"config key '{key}' is set twice, on lines "
                              f"{first_line[key]} and {lineno}")
        first_line[key] = lineno
        out[key] = parse_config_value(key, raw)
    return out


def load_config(path=None, **overrides) -> TrainConfig:
    """The config file at `path`, if one is given, under `overrides`."""
    values = {}
    if path is not None:
        with open(path) as fh:
            values = parse_config_text(fh.read())
    return TrainConfig(**{**values, **overrides})


# ---------------------------------------------------------------------------
# schedules


def lr_schedule(p: float, cfg: TrainConfig) -> float:
    """eta0 * (1 + anneal_alpha * p) ** (-anneal_beta) for progress p."""
    if not (0.0 <= p <= 1.0):
        raise ContractError(f"progress must lie in [0, 1], got {p}")
    return cfg.eta0 * (1.0 + cfg.anneal_alpha * p) ** (-cfg.anneal_beta)


def grl_lambda(p: float, ramp: bool = True) -> float:
    """Reversal strength 2/(1+exp(-10p)) - 1, or constant 1 without the ramp."""
    if not (0.0 <= p <= 1.0):
        raise ContractError(f"progress must lie in [0, 1], got {p}")
    if not ramp:
        return 1.0
    return 2.0 / (1.0 + math.exp(-10.0 * p)) - 1.0


def gamma_factor(p: float, ramp: bool = True) -> float:
    """Sigmoid gate on the consistency weight, saturating near 20% progress."""
    if not (0.0 <= p <= 1.0):
        raise ContractError(f"progress must lie in [0, 1], got {p}")
    if not ramp:
        return 1.0
    return 1.0 / (1.0 + math.exp(6.0 - 60.0 * p))


# ---------------------------------------------------------------------------
# optimizer


class OptimizerState:
    """Momentum buffers, one per parameter."""

    def __init__(self, momentum: float):
        if not (0.0 <= momentum < 1.0):
            raise ConfigError(f"momentum must lie in [0, 1), got {momentum}")
        self.momentum = momentum
        self.velocity: dict[str, np.ndarray] = {}


def sgd_momentum_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                      state: OptimizerState, eta: float) -> None:
    """v <- momentum * v + g; theta <- theta - eta * v, all in place."""
    for name, arr in params.items():
        g = grads[name]
        if g.shape != arr.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match "
                             f"parameter {name} shape {arr.shape}")
        v = state.velocity.get(name)
        if v is None:
            v = state.velocity[name] = np.zeros_like(arr)
        v *= state.momentum
        v += g
        arr -= eta * v


# ---------------------------------------------------------------------------
# training


@dataclass
class RunResult:
    cfg: TrainConfig
    records: list[MetricsRecord]
    student_F: ParamSet
    student_C: ParamSet
    dualnet: DualNet | None
    disc: ParamSet | None

    @property
    def final_accuracy(self) -> float:
        """Deployed-network target accuracy at the last evaluation."""
        return self.records[-1].acc_teacher_target


class Trainer:
    """Owns the networks, optimizer, and smoothing state for one run."""

    def __init__(self, cfg: TrainConfig, dataset: DomainDataset):
        self.cfg = cfg
        self.dataset = dataset
        c = dataset.n_classes
        f_spec = NetSpec((dataset.input_dim, cfg.feature_hidden, cfg.feature_hidden,
                          cfg.feature_dim), final="relu")
        c_spec = NetSpec((cfg.feature_dim, c))
        self.student_F = init_params(f_spec, [cfg.seed, 11])
        self.student_C = init_params(c_spec, [cfg.seed, 12])
        self.dualnet = None
        if cfg.variant in _USES_TEACHER:
            alpha0 = 0.0 if cfg.alpha_theta == "ramp" else float(cfg.alpha_theta)
            self.dualnet = DualNet(self.student_F, self.student_C, alpha0)
        self.disc = None
        if cfg.variant in _USES_DISC:
            d_spec = NetSpec((cfg.feature_dim * c, cfg.disc_hidden, 1), final="sigmoid")
            self.disc = init_params(d_spec, [cfg.seed, 13])
        self.pred_state = None
        if cfg.variant in _USES_SMOOTHED_CONDITIONS:
            self.pred_state = PredEmaState(cfg.alpha_p, c)
        self.opt = OptimizerState(cfg.momentum)
        self.params: dict[str, np.ndarray] = {}
        for prefix, ps in (("F", self.student_F), ("C", self.student_C), ("D", self.disc)):
            if ps is not None:
                for k, arr in ps.items():
                    self.params[f"{prefix}.{k}"] = arr

    def _progress(self, n: int) -> float:
        return n / self.cfg.total_steps if self.cfg.total_steps else 0.0

    def train_step(self, batch: Batch, n: int) -> LossBreakdown:
        """One optimizer step; returns the detached loss values."""
        cfg = self.cfg
        p_prog = self._progress(n)
        lam = grl_lambda(p_prog, cfg.grl_ramp)

        g = T.Graph()
        bound_F = BoundNet(g, self.student_F, "F")
        bound_C = BoundNet(g, self.student_C, "C")
        bound_D = BoundNet(g, self.disc, "D") if self.disc is not None else None

        m_src = batch.xs.shape[0]
        x_all = g.constant(np.vstack([batch.xs, batch.xt]))
        f_all, p_all = forward_fc(bound_F, bound_C, x_all)
        l_c = cross_entropy(T.slice_rows(p_all, 0, m_src), batch.ys)

        teacher_p_all = None
        if cfg.variant in _USES_TEACHER_PREDICTIONS:
            teacher_p_all = T.stable_softmax(forward_fc_plain(
                self.dualnet.teacher_F, self.dualnet.teacher_C, x_all.values))

        l_d_stu = l_d_tea = l_con = None
        if bound_D is not None:
            if cfg.variant in _USES_SMOOTHED_CONDITIONS:
                # target ids are offset by n_source, so the ids are distinct
                ids = np.concatenate([batch.src_ids, batch.tgt_ids])
                cond = pred_ema(self.pred_state, "student", ids, p_all.values)
            else:
                cond = p_all.values
            l_d_stu = adv_student(bound_D, f_all, cond, m_src, lam)
            if cfg.variant in _USES_SMOOTHED_CONDITIONS:
                tea = pred_ema(self.pred_state, "teacher", ids, teacher_p_all)
                l_d_tea = adv_teacher(bound_D, f_all, tea, m_src, lam)

        gamma_eff = cfg.gamma
        if cfg.variant in _USES_CONSISTENCY:
            l_con = consistency(p_all, teacher_p_all)
            gamma_eff = cfg.gamma * gamma_factor(p_prog, cfg.gamma_ramp)

        total, parts = total_loss(l_c, l_d_stu, l_d_tea, l_con,
                                  cfg.lambda_stu, cfg.lambda_tea, gamma_eff)
        g.backward(total)

        grads = collect_grads(bound_F, bound_C, bound_D)
        sgd_momentum_step(self.params, grads, self.opt, lr_schedule(p_prog, cfg))

        if self.dualnet is not None:
            if cfg.alpha_theta == "ramp":
                self.dualnet.alpha_theta = alpha_theta_ramp(n)
            ema_update(self.dualnet)
        return parts

    def _evaluate(self, step: int, lr: float, parts: LossBreakdown) -> MetricsRecord:
        ds = self.dataset
        acc_src = accuracy(self.student_F, self.student_C, ds.source_x, ds.source_y)
        acc_tgt = accuracy(self.student_F, self.student_C, ds.target_x, ds.target_y)
        if self.dualnet is not None:
            acc_tea = accuracy(self.dualnet.teacher_F, self.dualnet.teacher_C,
                               ds.target_x, ds.target_y)
        else:
            acc_tea = acc_tgt
        return MetricsRecord(step=step, lr=lr, parts=parts,
                             acc_student_source=acc_src, acc_student_target=acc_tgt,
                             acc_teacher_target=acc_tea)

    def run(self) -> RunResult:
        cfg = self.cfg
        records: list[MetricsRecord] = []
        if cfg.total_steps == 0:
            empty = LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)
            records.append(self._evaluate(0, lr_schedule(0.0, cfg), empty))
        else:
            stream = batch_stream(self.dataset, cfg.batch_size, cfg.seed)
            for n in range(cfg.total_steps):
                parts = self.train_step(next(stream), n)
                if (n + 1) % cfg.eval_every == 0 or n + 1 == cfg.total_steps:
                    records.append(self._evaluate(n + 1, lr_schedule(self._progress(n), cfg),
                                                  parts))
        return RunResult(cfg=cfg, records=records, student_F=self.student_F,
                         student_C=self.student_C, dualnet=self.dualnet, disc=self.disc)


# OpenBLAS thread-count entry points, by symbol naming scheme: numpy's
# bundled scipy-openblas, an ILP64 build, a plain build
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_api():
    """The (get, set) thread-count functions of the OpenBLAS this process
    has loaded, or None: no such library (MKL, Accelerate) or no
    /proc/self/maps to find it in."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {parts[5].strip() for parts in (line.split(None, 5) for line in fh)
                     if len(parts) == 6 and "openblas" in parts[5]}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread, then restore the caller's
    count; a no-op where no OpenBLAS is loaded.  Thread count changes no
    result bit, only where the CPU time goes."""
    api = _blas_thread_api()
    if api is None:
        yield
        return
    get, set_ = api
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def run_ablation(base_cfg: TrainConfig, variants, seeds,
                 dataset_for_seed: Callable[[int], DomainDataset]
                 ) -> dict[tuple[str, int], RunResult]:
    """Run every (variant, seed) pair in canonical sorted order.

    The runs use one BLAS thread.  OpenBLAS threads only the 500-row
    evaluation matmuls at the default sizes, and between them its idle
    worker spins on the second core: CPU time nearly doubles and wall time
    does not move.  A sweep's parallelism belongs across runs.
    """
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant {v!r}")
    ordered = sorted(set(variants), key=VARIANTS.index)
    out: dict[tuple[str, int], RunResult] = {}
    with _one_blas_thread():
        for variant in ordered:
            for seed in sorted(set(seeds)):
                cfg = replace(base_cfg, variant=variant, seed=int(seed))
                out[(variant, seed)] = Trainer(cfg, dataset_for_seed(int(seed))).run()
    return out


def ablation_accuracies(runs: dict[tuple[str, int], RunResult]) -> dict[str, dict[int, float]]:
    """Final deployed-network accuracy per variant per seed."""
    out: dict[str, dict[int, float]] = {}
    for (variant, seed), result in runs.items():
        out.setdefault(variant, {})[seed] = result.final_accuracy
    return out
