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
from typing import Callable, Iterator, Sequence

import numpy as np

from . import tensor as T
from .conditioning import PredEmaState, pred_ema
from .datasets import Batch, DomainDataset, batch_stream
from .evaluation import ABLATION_CHAIN, MetricsRecord, accuracy
from .exceptions import ConfigError, ContractError, ShapeError, open_text
from .losses import (LossBreakdown, adv_student, adv_teacher, consistency,
                     cross_entropy, total_loss)
from .networks import (BoundNet, DualNet, NetSpec, ParamSet, collect_grads, ema_update,
                       flat_arrays, forward_fc, forward_fc_plain, init_params, stack_params)
from .recipe import (MOMENTUM_RANGE, SEED_RANGE, UNIT_RANGE, WEIGHT_RANGE, check_fields,
                     check_value, parse_field)

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
    momentum: float = field(default=0.9, metadata=MOMENTUM_RANGE)
    batch_size: int = field(default=32, metadata={"ge": 1})
    total_steps: int = field(default=3000, metadata={"ge": 0})
    alpha_theta: float | str = field(default="ramp",
                                     metadata={**UNIT_RANGE, "choices": ("ramp",)})
    alpha_p: float = field(default=0.6, metadata=UNIT_RANGE)
    lambda_stu: float = field(default=1.0, metadata=WEIGHT_RANGE)
    lambda_tea: float = field(default=1.0, metadata=WEIGHT_RANGE)
    gamma: float = field(default=1.0, metadata=WEIGHT_RANGE)
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


def read_config(path) -> dict:
    """The parsed `key = value` lines of the config file at `path`."""
    with open_text(path, ConfigError) as fh:
        return parse_config_text(fh.read())


def load_config(path=None, **overrides) -> TrainConfig:
    """The config file at `path`, if one is given, under `overrides`."""
    values = {} if path is None else read_config(path)
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


def alpha_theta_ramp(step: int) -> float:
    """Warm-up schedule min(0.99, 1 - 1/(step+1)); the teacher tracks the
    student closely at the start and smooths more later."""
    if step < 0:
        raise ContractError(f"step must be non-negative, got {step}")
    return min(0.99, 1.0 - 1.0 / (step + 1))


def eval_steps(cfg: TrainConfig) -> Iterator[int]:
    """The steps a run evaluates after, in order: every ``eval_every``-th
    step and the last, so step 0 alone for a run of no steps."""
    yield from range(cfg.eval_every, cfg.total_steps, cfg.eval_every)
    yield cfg.total_steps


# ---------------------------------------------------------------------------
# optimizer


class OptimizerState:
    """Momentum buffers, one per parameter."""

    def __init__(self, momentum: float):
        check_value("momentum", "float", MOMENTUM_RANGE, momentum)
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


def stack_key(dataset: DomainDataset) -> tuple[int, int]:
    """What the datasets of one stack must share: input width and class
    count, which fix every network array's shape."""
    return dataset.input_dim, dataset.n_classes


def step_terms(bound_D, f_all, p_all, ys, m_src, cond, tea_cond, tea_p, lam, reverse=True):
    """REN's objective for the training step and every gradient check:
    (l_c, l_d_stu, l_d_tea, l_con), recorded in that order.  The first
    ``m_src`` rows of ``f_all`` and ``p_all`` are source, labelled ``ys``;
    ``cond`` and ``tea_cond`` condition the adversarial terms and ``tea_p``
    is the consistency target.  A term whose input is None is off: it reads
    None and records nothing."""
    return (None if ys is None else cross_entropy(T.slice_rows(p_all, 0, m_src), ys),
            None if cond is None else adv_student(bound_D, f_all, cond, m_src, lam, reverse),
            None if tea_cond is None else adv_teacher(bound_D, f_all, tea_cond, m_src, lam,
                                                      reverse),
            None if tea_p is None else consistency(p_all, tea_p))


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
    """Owns the networks, optimizer, and smoothing state of S runs of one
    recipe that differ only in seed, and trains them in lock step.

    ``cfg`` and ``dataset`` are one config and its dataset (S = 1), or equal
    length sequences of them.  Every network array stacks the S seeds' arrays
    on a leading axis, so one tape per step carries all S runs, and each
    seed gets the bits of its own solo run: no array is shared between
    seeds, and every op works on each seed's matrices as on a lone matrix.
    Each seed keeps its own batch stream and evaluation, and its own id range
    in each branch's prediction-smoothing state; the schedules depend only
    on the step, so the seeds share them.
    """

    def __init__(self, cfg: TrainConfig | Sequence[TrainConfig],
                 dataset: DomainDataset | Sequence[DomainDataset]):
        self.cfgs = [cfg] if isinstance(cfg, TrainConfig) else list(cfg)
        self.datasets = [dataset] if isinstance(dataset, DomainDataset) else list(dataset)
        if not self.cfgs or len(self.cfgs) != len(self.datasets):
            raise ConfigError(f"a stack needs one dataset per config, got {len(self.cfgs)} "
                              f"configs and {len(self.datasets)} datasets")
        self.cfg = cfg = self.cfgs[0]  # the recipe every seed shares
        if any(replace(other, seed=cfg.seed) != cfg for other in self.cfgs):
            raise ConfigError("the configs of a stack may differ only in seed")
        dataset = self.datasets[0]
        if any(stack_key(ds) != stack_key(dataset) for ds in self.datasets):
            raise ShapeError("the datasets of a stack must share input width and class count")
        for s, ds in enumerate(self.datasets):  # a DomainDataset takes any float it is given
            for split, x in (("source", ds.source_x), ("target", ds.target_x)):
                if not np.isfinite(x).all():
                    raise ContractError(f"dataset {s} of the stack has a non-finite "
                                        f"{split} sample")
        c = dataset.n_classes
        f_spec = NetSpec((dataset.input_dim, cfg.feature_hidden, cfg.feature_hidden,
                          cfg.feature_dim), final="relu")
        c_spec = NetSpec((cfg.feature_dim, c))

        def init(spec, key):
            return stack_params([init_params(spec, [run.seed, key]) for run in self.cfgs])

        self.student_F = init(f_spec, 11)
        self.student_C = init(c_spec, 12)
        self.dualnet = None
        if cfg.variant in _USES_TEACHER:
            self.dualnet = DualNet(self.student_F, self.student_C)
        self.disc = None
        if cfg.variant in _USES_DISC:
            self.disc = init(NetSpec((cfg.feature_dim * c, cfg.disc_hidden, 1), final="sigmoid"),
                             13)
        self.pred_student = self.pred_teacher = None  # one smoothing state per branch
        if cfg.variant in _USES_SMOOTHED_CONDITIONS:
            self.pred_student = PredEmaState(cfg.alpha_p, c)
            self.pred_teacher = PredEmaState(cfg.alpha_p, c)
        self.first_ids = np.cumsum([0] + [ds.n_source + ds.n_target for ds in self.datasets])[:-1]
        self.opt = OptimizerState(cfg.momentum)
        self.params = flat_arrays(("F", self.student_F), ("C", self.student_C), ("D", self.disc))

    def _progress(self, n: int) -> float:
        return n / self.cfg.total_steps if self.cfg.total_steps else 0.0

    def train_step(self, batches: Sequence[Batch], n: int) -> list[LossBreakdown]:
        """One optimizer step on one batch per seed; returns each seed's
        detached loss values."""
        cfg = self.cfg
        p_prog = self._progress(n)
        lam = grl_lambda(p_prog, cfg.grl_ramp)
        eta = lr_schedule(p_prog, cfg)
        gamma = cfg.gamma * gamma_factor(p_prog, cfg.gamma_ramp)
        alpha_theta = alpha_theta_ramp(n) if cfg.alpha_theta == "ramp" else float(cfg.alpha_theta)

        g = T.Graph()
        bound_F, bound_C = BoundNet(g, self.student_F, "F"), BoundNet(g, self.student_C, "C")
        bound_D = BoundNet(g, self.disc, "D") if self.disc is not None else None

        m_src = batches[0].xs.shape[0]
        x_all = g.constant(np.stack([np.vstack([b.xs, b.xt]) for b in batches]))
        f_all, p_all = forward_fc(bound_F, bound_C, x_all)
        teacher_p_all = cond = tea_cond = None
        if cfg.variant in _USES_TEACHER_PREDICTIONS:
            teacher_p_all = T.stable_softmax(forward_fc_plain(
                self.dualnet.teacher_F, self.dualnet.teacher_C, x_all.values))
        if cfg.variant in _USES_SMOOTHED_CONDITIONS:
            # target ids are offset by n_source, and seed s's ids by first_ids[s]
            ids = np.concatenate([first + np.concatenate([b.src_ids, b.tgt_ids])
                                  for first, b in zip(self.first_ids, batches)])
            rows, shape = (ids.size, -1), teacher_p_all.shape
            cond = pred_ema(self.pred_student, ids, p_all.values.reshape(rows))
            tea_cond = pred_ema(self.pred_teacher, ids, teacher_p_all.reshape(rows))
            cond, tea_cond = cond.reshape(shape), tea_cond.reshape(shape)
        elif cfg.variant in _USES_DISC:
            cond = p_all.values
        tea_p = teacher_p_all if cfg.variant in _USES_CONSISTENCY else None
        terms = step_terms(bound_D, f_all, p_all, np.stack([b.ys for b in batches]), m_src,
                           cond, tea_cond, tea_p, lam)
        total, parts = total_loss(*terms, cfg.lambda_stu, cfg.lambda_tea, gamma)
        g.backward(total)

        grads = collect_grads(bound_F, bound_C, bound_D)
        sgd_momentum_step(self.params, grads, self.opt, eta)
        if self.dualnet is not None:
            ema_update(self.dualnet, alpha_theta)
        return parts

    def _evaluate(self, s: int, step: int, lr: float, parts: LossBreakdown) -> MetricsRecord:
        ds = self.datasets[s]
        student_F, student_C = self.student_F.view(s), self.student_C.view(s)
        acc_src = accuracy(student_F, student_C, ds.source_x, ds.source_y)
        acc_tgt = accuracy(student_F, student_C, ds.target_x, ds.target_y)
        if self.dualnet is not None:
            acc_tea = accuracy(self.dualnet.teacher_F.view(s), self.dualnet.teacher_C.view(s),
                               ds.target_x, ds.target_y)
        else:
            acc_tea = acc_tgt
        return MetricsRecord(step=step, lr=lr, parts=parts,
                             acc_student_source=acc_src, acc_student_target=acc_tgt,
                             acc_teacher_target=acc_tea)

    def run(self) -> list[RunResult]:
        """Train every seed to the end; one result per seed, in stack order."""
        cfg, seeds = self.cfg, range(len(self.cfgs))
        records: list[list[MetricsRecord]] = [[] for _ in seeds]
        streams = [batch_stream(ds, cfg.batch_size, run.seed)
                   for run, ds in zip(self.cfgs, self.datasets)]
        parts = [LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)] * len(self.cfgs)  # no step trained
        done = 0
        for step in eval_steps(cfg):
            for n in range(done, step):
                parts = self.train_step([next(stream) for stream in streams], n)
            done = step
            # step - 1 is the last step trained; a run of no steps has progress 0
            lr = lr_schedule(self._progress(step - 1), cfg)
            for s in seeds:
                records[s].append(self._evaluate(s, step, lr, parts[s]))
        return [RunResult(cfg=self.cfgs[s], records=records[s],
                          student_F=self.student_F.view(s), student_C=self.student_C.view(s),
                          dualnet=None if self.dualnet is None else self.dualnet.view(s),
                          disc=None if self.disc is None else self.disc.view(s))
                for s in seeds]


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
    """Run every (variant, seed) pair; results in canonical sorted order.

    Each variant trains its seeds in lock step, one Trainer stack per group
    of seeds whose datasets share a ``stack_key``, so each run's bits are
    those of its solo run.  The runs use one BLAS thread, as every ``renlab``
    command does; this pin is for library callers.  OpenBLAS threads only
    the evaluation matmuls at the default sizes, and after each its idle
    worker spins on the second core: CPU time nearly doubles and wall time
    does not move.  A sweep's parallelism belongs across runs.
    """
    # each config checks its variant and seed, so a bad one raises before any dataset is built
    cfgs = {(v, s): replace(base_cfg, variant=v, seed=s) for v in variants for s in seeds}
    ordered = sorted({v for v, _ in cfgs}, key=VARIANTS.index)
    datasets = {seed: dataset_for_seed(seed) for seed in sorted({s for _, s in cfgs})}
    stacks: dict[tuple[int, int], list[int]] = {}
    for seed, ds in datasets.items():
        stacks.setdefault(stack_key(ds), []).append(seed)
    out: dict[tuple[str, int], RunResult] = {}
    with _one_blas_thread():
        for variant in ordered:
            for group in stacks.values():
                results = Trainer([cfgs[variant, s] for s in group],
                                  [datasets[s] for s in group]).run()
                out.update(((variant, s), r) for s, r in zip(group, results))
    return {(v, s): out[v, s] for v in ordered for s in datasets}


def ablation_accuracies(runs: dict[tuple[str, int], RunResult]) -> dict[str, dict[int, float]]:
    """Final deployed-network accuracy per variant per seed."""
    out: dict[str, dict[int, float]] = {}
    for (variant, seed), result in runs.items():
        out.setdefault(variant, {})[seed] = result.final_accuracy
    return out
