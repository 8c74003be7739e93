"""Small MLPs (feature extractor, classifier, discriminator) and the
student/teacher pair coupled by exponential-moving-average weight updates.

Parameters live as plain numpy arrays inside ParamSet objects and are bound
into a fresh Graph for each training step.  The teacher is never bound to a
graph: it moves only through ``ema_update``, so its gradient is structurally
zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tensor as T
from .exceptions import ConfigError, ContractError, ShapeError

DISC_EPS = 1e-7  # discriminator outputs are clamped to [eps, 1-eps] before log


@dataclass(frozen=True)
class NetSpec:
    """Architecture descriptor: layer widths plus optional final activation.

    Hidden layers always use ReLU; ``final`` is None (linear output),
    "relu" (rectified feature output), or "sigmoid" (discriminator head).
    ``activations`` spells this out per layer for every forward pass.
    """

    widths: tuple[int, ...]
    final: str | None = None

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ConfigError(f"need at least two widths, got {self.widths}")
        for w in self.widths:
            if int(w) < 1:
                raise ConfigError(f"layer widths must be positive, got {self.widths}")
        if self.final not in (None, "relu", "sigmoid"):
            raise ConfigError(f"unknown final activation {self.final!r}")

    @cached_property
    def activations(self) -> tuple[str | None, ...]:
        """Each layer's activation: "relu" after every hidden layer, then
        ``final``.  The one statement of that rule; computed once per spec."""
        return ("relu",) * (len(self.widths) - 2) + (self.final,)

    @property
    def in_width(self) -> int:
        return self.widths[0]

    @property
    def out_width(self) -> int:
        return self.widths[-1]


class ParamSet:
    """Ordered named weight/bias arrays for one MLP.

    Keys are w0, b0, w1, b1, ... in layer order; weight i has shape
    (widths[i], widths[i+1]) and bias i has shape (1, widths[i+1]).
    """

    def __init__(self, spec: NetSpec, params: dict[str, np.ndarray]):
        self.spec = spec
        self.params = params
        for i in range(len(spec.widths) - 1):
            w = params[f"w{i}"]
            b = params[f"b{i}"]
            want = (spec.widths[i], spec.widths[i + 1])
            if w.shape != want or b.shape != (1, want[1]):
                raise ShapeError(f"layer {i} arrays {w.shape}/{b.shape} do not match widths {want}")

    @property
    def n_layers(self) -> int:
        return len(self.spec.widths) - 1

    def param_count(self) -> int:
        return sum(a.size for a in self.params.values())

    def copy(self) -> "ParamSet":
        return ParamSet(self.spec, {k: v.copy() for k, v in self.params.items()})

    def items(self):
        return self.params.items()

    def forward_plain(self, x: np.ndarray) -> np.ndarray:
        """Numpy-only forward pass (no graph, no gradients).

        Each layer's matmul allocates a fresh array, so the bias and the
        rectifier work in place on it and the input is never written.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.spec.in_width:
            raise ShapeError(f"input shape {x.shape} does not match width {self.spec.in_width}")
        h = x
        for i, act in enumerate(self.spec.activations):
            h = h @ self.params[f"w{i}"]
            h += self.params[f"b{i}"]
            if act == "relu":
                np.maximum(h, 0.0, out=h)
            elif act == "sigmoid":
                h = T.stable_sigmoid(h)
        return h


def init_params(spec: NetSpec, seed: int) -> ParamSet:
    """Xavier-uniform weights, |w| <= sqrt(6/(fan_in+fan_out)); zero biases.

    Fully determined by the seed.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for i in range(len(spec.widths) - 1):
        fan_in, fan_out = spec.widths[i], spec.widths[i + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        params[f"w{i}"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params[f"b{i}"] = np.zeros((1, fan_out))
    return ParamSet(spec, params)


class BoundNet:
    """A ParamSet registered on a graph, reusable across several inputs."""

    def __init__(self, graph: T.Graph, ps: ParamSet, prefix: str):
        self.graph = graph
        self.spec = ps.spec
        self.prefix = prefix
        self.tensors = {k: graph.parameter(v) for k, v in ps.items()}

    def __call__(self, x: T.Tensor) -> T.Tensor:
        if x.shape[1] != self.spec.in_width:
            raise ShapeError(f"input width {x.shape[1]} does not match {self.spec.in_width}")
        h = x
        for i, act in enumerate(self.spec.activations):
            h = T.add(T.matmul(h, self.tensors[f"w{i}"]), self.tensors[f"b{i}"])
            if act == "relu":
                h = T.relu(h)
            elif act == "sigmoid":
                h = T.sigmoid(h)
        return h

    def grads(self) -> dict[str, np.ndarray]:
        """Per-array gradients populated by the last backward pass."""
        return {k: t.grad for k, t in self.tensors.items()}


def collect_grads(*bound: BoundNet | None) -> dict[str, np.ndarray]:
    """Gradients of every bound net, keyed "<prefix>.<array>"; None is skipped."""
    grads: dict[str, np.ndarray] = {}
    for b in bound:
        if b is not None:
            for k, arr in b.grads().items():
                grads[f"{b.prefix}.{k}"] = arr
    return grads


def forward_fc(bound_F: BoundNet, bound_C: BoundNet, x: T.Tensor):
    """Feature extractor then classifier: returns (features, probabilities)."""
    f = bound_F(x)
    return f, T.softmax_rows(bound_C(f))


def forward_fc_plain(ps_F: ParamSet, ps_C: ParamSet, x: np.ndarray) -> np.ndarray:
    """Graph-free twin of forward_fc: returns the classifier's logits.

    Callers that want probabilities apply ``T.stable_softmax``; the argmax
    of the logits needs none.
    """
    return ps_C.forward_plain(ps_F.forward_plain(x))


def discriminate(bound_D: BoundNet, h: T.Tensor) -> T.Tensor:
    """Domain probability in [eps, 1-eps] for each row of h."""
    if bound_D.spec.out_width != 1 or bound_D.spec.final != "sigmoid":
        raise ContractError("discriminator must end in a 1-wide sigmoid layer")
    return T.clamp(bound_D(h), DISC_EPS, 1.0 - DISC_EPS)


class DualNet:
    """Student (F, C) plus a teacher copy updated only by EMA.

    The teacher starts as an exact copy of the student and never receives
    gradients; ``ema_update`` is the only thing that moves it.
    """

    def __init__(self, student_F: ParamSet, student_C: ParamSet, alpha_theta: float = 0.99):
        self.student_F = student_F
        self.student_C = student_C
        self.teacher_F = student_F.copy()
        self.teacher_C = student_C.copy()
        self.alpha_theta = float(alpha_theta)

    def param_count(self) -> int:
        return (
            self.student_F.param_count()
            + self.student_C.param_count()
            + self.teacher_F.param_count()
            + self.teacher_C.param_count()
        )


def alpha_theta_ramp(step: int, cap: float = 0.99) -> float:
    """Warm-up schedule min(cap, 1 - 1/(step+1)); the teacher tracks the
    student closely at the start and smooths more later."""
    if step < 0:
        raise ContractError(f"step must be non-negative, got {step}")
    return min(cap, 1.0 - 1.0 / (step + 1))


def ema_update(net: DualNet) -> None:
    """teacher <- alpha * teacher + (1 - alpha) * student, entrywise.

    Applies net.alpha_theta exactly as stored; callers that want the warm-up
    ramp set alpha_theta from alpha_theta_ramp before each call.
    """
    a = net.alpha_theta
    if not (0.0 <= a <= 1.0):
        raise ConfigError(f"alpha_theta must lie in [0, 1], got {a}")
    for t_ps, s_ps in ((net.teacher_F, net.student_F), (net.teacher_C, net.student_C)):
        for k, t_arr in t_ps.items():
            t_arr *= a
            t_arr += (1.0 - a) * s_ps.params[k]


# ---------------------------------------------------------------------------
# checkpoint i/o: versioned text format, exact float round trip via repr


def save_paramsets(path, named: dict[str, ParamSet]) -> None:
    lines = ["renlab-params 1"]
    for set_name, ps in named.items():
        lines.append(f"set {set_name} {len(ps.params)} {' '.join(str(w) for w in ps.spec.widths)} "
                     f"{ps.spec.final or '-'}")
        for k, arr in ps.items():
            flat = " ".join(repr(float(v)) for v in arr.ravel())
            lines.append(f"tensor {k} {arr.shape[0]} {arr.shape[1]} {flat}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_paramsets(path) -> dict[str, ParamSet]:
    """Read a checkpoint; a corrupt or truncated file raises ContractError."""
    with open(path) as fh:
        text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "renlab-params 1":
        raise ContractError(f"unrecognized checkpoint header in {path}")
    if not text.endswith("\n"):
        raise ContractError(f"truncated checkpoint {path}")
    out: dict[str, ParamSet] = {}
    i = 1
    try:
        while i < len(lines):
            head = lines[i].split()
            if head[0] != "set":
                raise ContractError(f"expected 'set' line, got {lines[i][:40]!r}")
            set_name, n_tensors = head[1], int(head[2])
            if set_name in out:
                raise ContractError(f"set {set_name} appears twice in {path}")
            final = None if head[-1] == "-" else head[-1]
            widths = tuple(int(w) for w in head[3:-1])
            names = {f"{kind}{k}" for k in range(len(widths) - 1) for kind in "wb"}
            params: dict[str, np.ndarray] = {}
            for j in range(n_tensors):
                parts = lines[i + 1 + j].split()
                if parts[0] != "tensor":
                    raise ContractError(f"expected 'tensor' line, got {lines[i + 1 + j][:40]!r}")
                name, rows, cols = parts[1], int(parts[2]), int(parts[3])
                if name in params or name not in names:
                    raise ContractError(f"set {set_name}: tensor {name} is "
                                        f"{'repeated' if name in params else 'not in its spec'}")
                vals = np.array([float(v) for v in parts[4:]], dtype=np.float64)
                if vals.size != rows * cols:
                    raise ContractError(f"tensor {name}: {vals.size} values for shape "
                                        f"({rows}, {cols})")
                if not np.isfinite(vals).all():
                    raise ContractError(f"tensor {name} holds a non-finite value")
                params[name] = vals.reshape(rows, cols)
            out[set_name] = ParamSet(NetSpec(widths, final), params)
            i += 1 + n_tensors
    except (IndexError, KeyError, ValueError, ConfigError, ShapeError) as exc:
        raise ContractError(f"corrupt checkpoint {path}: {exc!r}") from None
    return out
