"""Small MLPs (feature extractor, classifier, discriminator) and the
student/teacher pair coupled by exponential-moving-average weight updates.

Parameters live as plain numpy arrays inside ParamSet objects and are bound
into a fresh Graph for each training step.  The teacher is never bound to a
graph: it moves only through ``ema_update``, so its gradient is structurally
zero.  A ParamSet may stack the arrays of several seeds on a leading axis;
``view`` then gives one seed's arrays as views into the stack, so an
in-place update of the stack shows in every view.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from zipfile import BadZipFile

import numpy as np

from . import tensor as T
from .exceptions import ConfigError, ContractError, ShapeError
from .recipe import UNIT_RANGE, check_value

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
            check_value("widths", "int", {"ge": 1}, w)
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
    (widths[i], widths[i+1]) and bias i has shape (1, widths[i+1]), each
    behind the same leading seed axis of length S in a stacked set.
    """

    def __init__(self, spec: NetSpec, params: dict[str, np.ndarray]):
        self.spec = spec
        self.params = params
        lead = params["w0"].shape[:-2]
        for i in range(len(spec.widths) - 1):
            w = params[f"w{i}"]
            b = params[f"b{i}"]
            want = (spec.widths[i], spec.widths[i + 1])
            if len(lead) > 1 or w.shape != lead + want or b.shape != lead + (1, want[1]):
                raise ShapeError(f"layer {i} arrays {w.shape}/{b.shape} do not match widths {want}")

    def param_count(self) -> int:
        return sum(a.size for a in self.params.values())

    def copy(self) -> "ParamSet":
        return ParamSet(self.spec, {k: v.copy() for k, v in self.params.items()})

    def items(self):
        return self.params.items()

    def view(self, s: int) -> "ParamSet":
        """Seed ``s`` of a stacked set, as views into the stack."""
        return ParamSet(self.spec, {k: v[s] for k, v in self.params.items()})

    def forward_plain(self, x: np.ndarray) -> np.ndarray:
        """Numpy-only forward pass (no graph, no gradients).

        Each layer's matmul allocates a fresh array, so the bias and the
        rectifier work in place on it and the input is never written.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != self.params["w0"].ndim or x.shape[-1] != self.spec.in_width:
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


def stack_params(sets: list[ParamSet]) -> ParamSet:
    """One set holding the arrays of ``sets``, one seed each, on a leading axis."""
    return ParamSet(sets[0].spec, {k: np.stack([ps.params[k] for ps in sets])
                                   for k in sets[0].params})


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
        self.spec = ps.spec
        self.prefix = prefix
        self.tensors = {k: graph.parameter(v) for k, v in ps.items()}

    def __call__(self, x: T.Tensor) -> T.Tensor:
        if x.shape[-1] != self.spec.in_width:
            raise ShapeError(f"input width {x.shape[-1]} does not match {self.spec.in_width}")
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


def flat_arrays(*named) -> dict[str, np.ndarray]:
    """The arrays of every (prefix, ParamSet or name -> array dict) pair in
    one dict keyed "<prefix>.<array>", the one flat name of a parameter and
    of its gradient; a pair whose arrays are None is skipped."""
    return {f"{prefix}.{k}": arr for prefix, arrays in named if arrays is not None
            for k, arr in arrays.items()}


def collect_grads(*bound: BoundNet | None) -> dict[str, np.ndarray]:
    """Gradients of every bound net, keyed by ``flat_arrays``; None is skipped."""
    return flat_arrays(*((b.prefix, b.grads()) for b in bound if b is not None))


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

    def __init__(self, student_F: ParamSet, student_C: ParamSet):
        self.student_F = student_F
        self.student_C = student_C
        self.teacher_F = student_F.copy()
        self.teacher_C = student_C.copy()

    def param_count(self) -> int:
        return (
            self.student_F.param_count()
            + self.student_C.param_count()
            + self.teacher_F.param_count()
            + self.teacher_C.param_count()
        )

    def view(self, s: int) -> "DualNet":
        """Seed ``s`` of a stacked pair, as views into the stacks."""
        out = DualNet.__new__(DualNet)
        out.student_F, out.student_C = self.student_F.view(s), self.student_C.view(s)
        out.teacher_F, out.teacher_C = self.teacher_F.view(s), self.teacher_C.view(s)
        return out


def ema_update(net: DualNet, alpha: float) -> None:
    """teacher <- alpha * teacher + (1 - alpha) * student, entrywise."""
    check_value("alpha_theta", "float", UNIT_RANGE, alpha)
    for t_ps, s_ps in ((net.teacher_F, net.student_F), (net.teacher_C, net.student_C)):
        for k, t_arr in t_ps.items():
            t_arr *= alpha
            t_arr += (1.0 - alpha) * s_ps.params[k]


# ---------------------------------------------------------------------------
# checkpoint i/o: one uncompressed .npz whose first member names all the others


def save_paramsets(path, named: dict[str, ParamSet]) -> None:
    """Write one seed's sets as an uncompressed .npz: ``sets`` (each set's
    name and final activation, "-" for none), then each set's ``<set>.widths``
    and arrays ``<set>.w0``, ``<set>.b0``, ...  zipfile dates every member
    1980-01-01, so equal sets give equal bytes."""
    members = {"sets": np.array([(n, ps.spec.final or "-") for n, ps in named.items()],
                                dtype=str).reshape(-1, 2)}
    for name, ps in named.items():
        members[f"{name}.widths"] = np.array(ps.spec.widths, dtype=np.int64)
        for key, arr in flat_arrays((name, ps)).items():
            if arr.ndim != 2:
                raise ShapeError(f"a checkpoint holds one seed's arrays; {key} is {arr.shape}")
            if not np.isfinite(arr).all():
                raise ContractError(f"checkpoint array {key} holds a non-finite value")
            members[key] = arr.astype(np.float64, copy=False)
    with open(path, "wb") as fh:  # np.savez would append .npz to the path
        np.savez(fh, allow_pickle=False, **members)


def _member(z, key: str, kind: str, ndim: int) -> np.ndarray:
    arr = z[key]  # an ndim-D array of dtype kind ``kind``; finite float64 if "f"
    if not (isinstance(arr, np.ndarray) and arr.dtype.kind == kind and arr.ndim == ndim
            and (kind != "f" or arr.dtype == np.float64 and np.isfinite(arr).all())):
        raise ValueError(f"member {key} is not a {ndim}-D array of kind {kind!r}")
    return arr


def load_paramsets(path) -> dict[str, ParamSet]:
    """Read a ``save_paramsets`` file; a corrupt, truncated or incomplete one
    raises ContractError.  The members must be exactly those ``sets`` and the
    widths name: zipfile does not check the central directory's entry count,
    so one flipped bit there can hide the trailing members of a file."""
    with open(path, "rb") as fh:  # np.load(path) leaks its handle on a bad zip
        try:
            with np.lib.npyio.NpzFile(fh) as z:
                if (bad := z.zip.testzip()) is not None:  # numpy parses headers unchecked
                    raise BadZipFile(f"bad CRC-32 for {bad}")
                out, members = {}, Counter(["sets"])
                for name, final in _member(z, "sets", "U", 2).tolist():
                    if name in out:
                        raise ValueError(f"set {name} appears twice")
                    spec = NetSpec(tuple(_member(z, f"{name}.widths", "i", 1).tolist()),
                                   None if final == "-" else final)
                    keys = [f"{kind}{i}" for i in range(len(spec.widths) - 1) for kind in "wb"]
                    members.update(f"{name}.{k}" for k in ("widths", *keys))
                    out[name] = ParamSet(spec, {k: _member(z, f"{name}.{k}", "f", 2) for k in keys})
                if odd := (Counter(z.files) - members) | (members - Counter(z.files)):
                    raise ValueError(f"members {sorted(odd)} are missing, extra or repeated")
                return out
        except (BadZipFile, EOFError, ValueError, KeyError, OSError, NotImplementedError,
                RuntimeError, ConfigError, ShapeError) as exc:
            raise ContractError(f"corrupt checkpoint {path}: {exc!r}") from None
