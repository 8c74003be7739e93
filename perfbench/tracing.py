"""Per-layer tracing of renlab from outside the program.

Each layer is timed by replacing a public function with a wrapper at the
name its caller looks up.  ``trainer.py`` does ``from .conditioning import
pred_ema``, so the wrapper goes on ``renlab.trainer.pred_ema``; a wrapper on
``renlab.conditioning.pred_ema`` would never be called and would read zero
(the per-workload coverage check in ``workloads.py`` catches that).  Nothing
under ``src/`` changes.

Spans are aggregated in memory per name: call count, inclusive time, and
self time (inclusive minus the time of wrapped calls nested inside it).  A
few wrappers also add work counts (rows, tape nodes, loss evaluations).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import renlab.checks
import renlab.cli
import renlab.datasets
import renlab.evaluation
import renlab.networks
import renlab.tensor
import renlab.trainer
from renlab.trainer import VARIANTS

# every public tape op, plus the two leaf constructors that also record nodes
OPS = ("matmul", "add", "sub", "scale", "neg", "rsub_const", "square", "sqrt",
       "log", "relu", "sigmoid", "clamp", "softmax_rows", "grad_reverse",
       "gather_rows", "sum_all", "mean_all", "sum_rows", "concat_rows",
       "slice_rows", "multilinear", "constant", "parameter")


class Tracer:
    """Aggregated spans and counts for one traced stretch of work."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.variant: str | None = None  # variant of the train_step in progress
        self._stack: list[float] = []  # child time of each open span

    def wrap(self, name, fn, count=None):
        """Time ``fn`` as span ``name``; ``count(tracer, args)`` runs first."""
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            if count is not None:
                count(self, args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - child

        return wrapper


def _train_step(tr, args):
    tr.variant = args[0].cfg.variant
    tr.counts[f"steps.{tr.variant}"] += 1


def _backward(tr, args):
    if tr.variant is not None:
        tr.counts[f"nodes.{tr.variant}"] += len(args[0].nodes)


def _pred_ema_rows(tr, args):
    tr.counts["pred_ema_rows"] += len(args[2])


def _accuracy_rows(tr, args):
    tr.counts["accuracy_rows"] += len(args[3])


def _loss_evals(tr, args):
    # one baseline evaluation plus two per perturbed parameter entry
    tr.counts["loss_evals"] += 1 + 2 * sum(a.size for a in args[1].values())


def _patches():
    """(owner, attribute, span name, count) for every traced call site."""
    T, tr, ch, cli = renlab.tensor, renlab.trainer, renlab.checks, renlab.cli
    ev, ds, nw = renlab.evaluation, renlab.datasets, renlab.networks
    out = [(T.Graph if op in ("constant", "parameter") else T, op, f"tensor.op.{op}", None)
           for op in OPS]
    out += [
        (T.Graph, "backward", "tensor.backward", _backward),
        (tr, "pred_ema", "conditioning.pred_ema", _pred_ema_rows),
        (nw.BoundNet, "__init__", "networks.bind", None),
        (tr, "ema_update", "networks.ema_update", None),
        (cli, "save_paramsets", "networks.save_paramsets", None),
        (nw, "load_paramsets", "networks.load_paramsets", None),
        (tr.Trainer, "train_step", "trainer.train_step", _train_step),
        (tr, "sgd_momentum_step", "trainer.sgd", None),
        (tr, "run_ablation", "trainer.sweep", None),
        (tr, "accuracy", "evaluation.accuracy", _accuracy_rows),
        (cli, "save_metrics", "evaluation.metrics_io", None),
        (cli, "load_metrics", "evaluation.metrics_io", None),
        (cli, "ablation_report", "evaluation.ablation_report", None),
        (ev, "ablation_report", "evaluation.ablation_report", None),
        (ds, "standard_benchmark", "datasets.generate", None),
        (cli, "make_domain_dataset", "datasets.generate", None),
        (ds, "batches", "datasets.batches", None),
        (cli, "save_dataset", "datasets.save", None),
        (ds, "load_dataset", "datasets.load", None),
        (ch, "loss_check_suite", "checks.suite_build", None),
        (ch, "finite_diff_check", "checks.fd", _loss_evals),
        (cli, "cmd_datagen", "cli.command.datagen", None),
        (cli, "cmd_train", "cli.command.train", None),
        (cli, "cmd_report", "cli.command.report", None),
    ]
    for module in (tr, ch):
        out += [(module, "cross_entropy", "losses.cross_entropy", None),
                (module, "adv_student", "losses.adv", None),
                (module, "adv_teacher", "losses.adv", None),
                (module, "consistency", "losses.consistency", None),
                (module, "total_loss", "losses.total_loss", None),
                (module, "forward_fc", "networks.forward_fc", None)]
    for module in (tr, ev, ch):
        out.append((module, "forward_fc_plain", "networks.forward_fc_plain", None))
    return out


@contextmanager
def traced(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, count in _patches():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metric values (ms, counts) for one traced stretch of work."""

    def ms(name, table=tr.total):
        return 1e3 * table[name]

    m: dict[str, float] = {}
    for op in OPS:
        m[f"tensor.op_ms.{op}"] = ms(f"tensor.op.{op}", tr.self_time)
        m[f"tensor.op_calls.{op}"] = tr.calls[f"tensor.op.{op}"]
    m["tensor.forward_ms"] = sum(m[f"tensor.op_ms.{op}"] for op in OPS)
    m["tensor.backward_ms"] = ms("tensor.backward")
    for v in VARIANTS:
        steps = tr.counts[f"steps.{v}"]
        m[f"tensor.nodes_per_step.{v}"] = tr.counts[f"nodes.{v}"] / steps if steps else 0.0
    m["conditioning.pred_ema_ms"] = ms("conditioning.pred_ema")
    m["conditioning.pred_ema_rows"] = tr.counts["pred_ema_rows"]
    for name in ("cross_entropy", "adv", "consistency", "total_loss"):
        m[f"losses.{name}_ms"] = ms(f"losses.{name}")
    for name in ("bind", "forward_fc", "forward_fc_plain", "ema_update",
                 "save_paramsets", "load_paramsets"):
        m[f"networks.{name}_ms"] = ms(f"networks.{name}")
    m["trainer.train_step_ms"] = ms("trainer.train_step")
    m["trainer.train_step_self_ms"] = ms("trainer.train_step", tr.self_time)
    m["trainer.sgd_ms"] = ms("trainer.sgd")
    m["trainer.steps"] = tr.calls["trainer.train_step"]
    m["trainer.sweep_ms"] = ms("trainer.sweep")
    m["evaluation.accuracy_ms"] = ms("evaluation.accuracy")
    m["evaluation.accuracy_rows"] = tr.counts["accuracy_rows"]
    m["evaluation.metrics_io_ms"] = ms("evaluation.metrics_io")
    m["evaluation.ablation_report_ms"] = ms("evaluation.ablation_report")
    for name in ("generate", "batches", "save", "load"):
        m[f"datasets.{name}_ms"] = ms(f"datasets.{name}")
    m["checks.suite_build_ms"] = ms("checks.suite_build")
    m["checks.fd_ms"] = ms("checks.fd")
    m["checks.loss_evals"] = tr.counts["loss_evals"]
    for cmd in ("datagen", "train", "report"):
        m[f"cli.command_ms.{cmd}"] = ms(f"cli.command.{cmd}")
    return m
