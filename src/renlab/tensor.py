"""Dense rank-<=2 float64 tensors with tape-based reverse-mode autodiff.

Everything is define-by-run: each operation appends one node to a Graph and
``Graph.backward`` walks the tape in exact reverse construction order, so a
given graph always produces bitwise-identical gradients.  The op set is the
minimum needed for small MLPs and the adversarial / consistency losses built
on top of them, plus ``grad_reverse`` which turns the discriminator's
maximization into a single minimization.

A node is plain data: its op name, its output array, and one
``(parent node id, vjp)`` pair per non-constant input, in input order.
Constant inputs get no pair, so their vjp is never called.
``Graph.backward`` is the one loop that calls vjps and accumulates their
results.  A vjp closes over arrays and scalars only, never a Graph or a
Tensor, so a graph holds no reference cycle and is freed by reference
counting as soon as its last Tensor goes away.

A forward-only graph, ``Graph(record=False)``, runs the same ops and the
same per-op finiteness check but appends no node, so its tensors carry
values only.  It serves callers that never run backward, such as the
perturbed evaluations of a finite-difference check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .exceptions import ContractError, NonFiniteError, ShapeError


def as_matrix(values) -> np.ndarray:
    """Coerce scalar / 1-D / 2-D input to a C-contiguous float64 matrix.

    1-D input becomes a single row; rank > 2 is rejected.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim > 2:
        raise ShapeError(f"rank-{arr.ndim} input not supported (rank <= 2 only)")
    return np.ascontiguousarray(arr)


# the per-op finiteness test, with its two ufuncs bound once: ``_all_finite``
# and the inlined copies in _unary/_binary run exactly this
_isfinite = np.isfinite
_and_reduce = np.logical_and.reduce


def _all_finite(arr: np.ndarray) -> bool:
    """Exact test that no entry is NaN or infinite; True on an empty array.

    ``logical_and.reduce`` skips the Python wrapper behind ``ndarray.all``.
    A test on the sum would be cheaper but warns when a finite sum overflows.
    """
    return _and_reduce(_isfinite(arr), axis=None)


def stable_softmax(arr: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction (overflow safe)."""
    e = arr - arr.max(axis=1, keepdims=True)  # fresh array: exp and divide in place
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def stable_sigmoid(arr: np.ndarray) -> np.ndarray:
    """Elementwise logistic function; exp only ever sees non-positive input."""
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    e = np.exp(arr[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class Tensor:
    """A 2-D float64 array on a graph.

    A tensor has no public constructor: ``Graph.parameter``/``constant`` and
    the ops are its only makers, so every tensor belongs to a graph.  Values
    are treated as immutable; ops always allocate fresh output arrays.
    """

    __slots__ = ("values", "graph", "node_id")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def grad(self) -> np.ndarray | None:
        """Gradient buffer populated by the last backward pass (or None,
        also on a forward-only graph)."""
        if self.node_id is None:
            return None
        return self.graph.nodes[self.node_id].grad

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.values[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Node:
    """One operation record on the tape: its output array and, per
    non-constant input, a (parent node id, vjp) pair in input order."""

    __slots__ = ("op", "values", "parents", "grad")

    def __init__(self, op, values, parents):
        self.op = op
        self.values = values
        self.parents = parents
        self.grad: np.ndarray | None = None


class Graph:
    """Tape of operation records in construction order.

    Every node's inputs precede it by construction; the backward pass visits
    nodes in exact reverse construction order.  A graph must only ever be
    mutated from a single thread.

    With ``record=False`` the graph is forward-only: ops return tensors that
    hold their values with ``node_id`` None, the tape stays empty, and
    ``backward`` raises ContractError.
    """

    def __init__(self, record: bool = True):
        self.nodes: list[Node] = []
        self.record = record
        self._param_ids: list[int] = []  # node ids of the parameter leaves
        self._swept = False  # whether a backward pass has written gradients

    def _record(self, op, values) -> Tensor:
        """Append a leaf node; on a forward-only graph only check the value."""
        if (type(values) is np.ndarray and values.ndim == 2
                and values.dtype == np.float64 and values.flags.c_contiguous):
            arr = values  # what as_matrix would return, without the call
        else:
            arr = as_matrix(values)
        if not _all_finite(arr):
            raise NonFiniteError(f"op '{op}' produced NaN or infinity")
        out = Tensor.__new__(Tensor)
        out.values = arr
        out.graph = self
        if not self.record:
            out.node_id = None
            return out
        nodes = self.nodes
        out.node_id = len(nodes)
        nodes.append(Node(op, arr, ()))
        return out

    def parameter(self, values) -> Tensor:
        """Register a trainable leaf; backward will populate its gradient."""
        out = self._record("param", values)
        if self.record:
            self._param_ids.append(out.node_id)
        return out

    def constant(self, values) -> Tensor:
        """Register a non-trainable leaf; gradients are not tracked for it."""
        return self._record("const", values)

    def backward(self, loss: Tensor) -> None:
        """Reverse-mode sweep from a scalar loss node.

        Populates gradients for every parameter leaf (zeros if the loss does
        not depend on it).
        """
        if not self.record:
            raise ContractError("backward on a forward-only graph")
        if loss.graph is not self:
            raise ContractError("loss tensor does not belong to this graph")
        if loss.shape != (1, 1):
            raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
        nodes = self.nodes
        if self._swept:
            for node in nodes:
                node.grad = None
        self._swept = True
        nodes[loss.node_id].grad = np.ones((1, 1))
        for node in reversed(nodes[: loss.node_id + 1]):
            grad = node.grad
            if grad is None:
                continue
            for parent_id, vjp in node.parents:
                target = nodes[parent_id]
                if target.grad is None:
                    # every vjp returns a fresh array that nothing else holds,
                    # so it becomes the buffer that later vjps add into
                    target.grad = vjp(grad)
                else:
                    target.grad += vjp(grad)
        for node_id in self._param_ids:
            node = nodes[node_id]
            if node.grad is None:
                node.grad = np.zeros_like(node.values)


# The one record path of every op, written out twice so that an op costs no
# call beyond its own: check that a binary op's operands share a graph, run
# the finiteness test of _all_finite on the output, and on a recording graph
# append the node with one (parent id, vjp) pair per non-constant input.
# ``out`` must already be a fresh C-contiguous float64 matrix; every op's
# forward makes one.


def _unary(op: str, x: Tensor, out: np.ndarray, vjp) -> Tensor:
    graph = x.graph
    if not _and_reduce(_isfinite(out), axis=None):
        raise NonFiniteError(f"op '{op}' produced NaN or infinity")
    t = Tensor.__new__(Tensor)
    t.values = out
    t.graph = graph
    if graph.record:
        nodes = graph.nodes
        t.node_id = len(nodes)
        xid = x.node_id
        nodes.append(Node(op, out, () if nodes[xid].op == "const" else ((xid, vjp),)))
    else:
        t.node_id = None
    return t


def _binary(op: str, a: Tensor, b: Tensor, out: np.ndarray, vjp_a, vjp_b) -> Tensor:
    graph = a.graph
    if b.graph is not graph:
        raise ContractError("operands belong to different graphs")
    if not _and_reduce(_isfinite(out), axis=None):
        raise NonFiniteError(f"op '{op}' produced NaN or infinity")
    t = Tensor.__new__(Tensor)
    t.values = out
    t.graph = graph
    if graph.record:
        nodes = graph.nodes
        t.node_id = len(nodes)
        aid, bid = a.node_id, b.node_id
        pa = () if nodes[aid].op == "const" else ((aid, vjp_a),)
        pb = () if nodes[bid].op == "const" else ((bid, vjp_b),)
        nodes.append(Node(op, out, pa + pb))
    else:
        t.node_id = None
    return t


# ---------------------------------------------------------------------------
# primitive operations
#
# Each op validates its inputs, computes its forward value and hands one vjp
# per input to _unary/_binary.  A vjp closes over arrays and scalars only, and
# returns a fresh C-contiguous array that shares memory with nothing: never
# ``grad`` itself or a view of it, since backward adds into what it returns.


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; gradients d(a) = g @ b^T, d(b) = a^T @ g."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes {a.shape} and {b.shape} do not chain")
    av, bv = a.values, b.values
    return _binary("matmul", a, b, av @ bv,
                   lambda grad: grad @ bv.T, lambda grad: av.T @ grad)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may be a 1xN row broadcast over a's rows (bias)."""
    broadcast = b.shape != a.shape
    if broadcast and not (b.shape == (1, a.shape[1])):
        raise ShapeError(f"add shapes {a.shape} and {b.shape} incompatible")
    return _binary("add", a, b, a.values + b.values, lambda grad: grad.copy(),
                   lambda grad: grad.sum(axis=0, keepdims=True) if broadcast else grad.copy())


def sub(a: Tensor, b: Tensor) -> Tensor:
    broadcast = b.shape != a.shape
    if broadcast and not (b.shape == (1, a.shape[1])):
        raise ShapeError(f"sub shapes {a.shape} and {b.shape} incompatible")
    return _binary("sub", a, b, a.values - b.values, lambda grad: grad.copy(),
                   lambda grad: -(grad.sum(axis=0, keepdims=True) if broadcast else grad))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _unary("scale", x, c * x.values, lambda grad: c * grad)


def neg(x: Tensor) -> Tensor:
    return scale(x, -1.0)


def rsub_const(c: float, x: Tensor) -> Tensor:
    """c - x for a python scalar c."""
    return _unary("rsub_const", x, float(c) - x.values, lambda grad: -grad)


def square(x: Tensor) -> Tensor:
    xv = x.values
    return _unary("square", x, xv * xv, lambda grad: 2.0 * xv * grad)


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root; subgradient at exactly 0 is defined as 0."""
    out = np.sqrt(x.values)

    def vjp(grad):
        d = np.zeros_like(out)
        nz = out > 0
        d[nz] = grad[nz] * 0.5 / out[nz]
        return d

    return _unary("sqrt", x, out, vjp)


def log(x: Tensor) -> Tensor:
    xv = x.values
    return _unary("log", x, np.log(xv), lambda grad: grad / xv)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient at exactly 0 is defined as 0."""
    mask = x.values > 0
    return _unary("relu", x, np.maximum(x.values, 0.0), lambda grad: grad * mask)


def sigmoid(x: Tensor) -> Tensor:
    out = stable_sigmoid(x.values)
    return _unary("sigmoid", x, out, lambda grad: grad * out * (1.0 - out))


def clamp(x: Tensor, lo: float | None = None, hi: float | None = None) -> Tensor:
    """Clip to [lo, hi]; gradient passes only where strictly inside."""
    v = x.values
    lo = -math.inf if lo is None else float(lo)
    hi = math.inf if hi is None else float(hi)
    mask = (v > lo) & (v < hi)
    return _unary("clamp", x, np.minimum(np.maximum(v, lo), hi), lambda grad: grad * mask)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax; rows sum to 1 within 1e-12 for any finite input."""
    if x.shape[1] < 1:
        raise ShapeError("softmax_rows requires at least one column")
    p = stable_softmax(x.values)

    def vjp(grad):
        inner = (grad * p).sum(axis=1, keepdims=True)
        return p * (grad - inner)

    return _unary("softmax_rows", x, p, vjp)


def grad_reverse(x: Tensor, lam: float) -> Tensor:
    """Identity forward; backward multiplies the incoming gradient by -lam."""
    lam = float(lam)
    if lam < 0:
        raise ContractError(f"grad_reverse factor must be >= 0, got {lam}")
    return _unary("grad_reverse", x, x.values.copy(), lambda grad: -lam * grad)


def gather_rows(p: Tensor, labels) -> Tensor:
    """Pick one entry per row: out[i, 0] = p[i, labels[i]]."""
    idx = np.asarray(labels, dtype=np.int64).reshape(-1)
    m, c = p.shape
    if idx.shape[0] != m:
        raise ShapeError(f"{idx.shape[0]} labels for {m} rows")
    if m and (idx.min() < 0 or idx.max() >= c):
        raise ContractError(f"label out of range [0, {c})")
    rows = np.arange(m)

    def vjp(grad):
        buf = np.zeros((m, c))
        buf[rows, idx] = grad[:, 0]  # one entry per row, so no two collide
        return buf

    return _unary("gather_rows", p, p.values[rows, idx].reshape(m, 1), vjp)


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape
    return _unary("sum_all", x, np.add.reduce(x.values, axis=None, keepdims=True),
                  lambda grad: np.full(shape, grad[0, 0]))


def mean_all(x: Tensor) -> Tensor:
    n = x.values.size
    if n == 0:
        raise ContractError("mean over an empty tensor")
    shape = x.shape
    # numpy's own mean without its Python wrappers: the same bits
    return _unary("mean_all", x, np.add.reduce(x.values, axis=None, keepdims=True) / n,
                  lambda grad: np.full(shape, grad[0, 0] / n))


def sum_rows(x: Tensor) -> Tensor:
    """Per-row sum, shape m x 1."""
    shape = x.shape
    return _unary("sum_rows", x, x.values.sum(axis=1, keepdims=True),
                  lambda grad: np.broadcast_to(grad, shape).copy())


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"concat_rows widths differ: {a.shape} vs {b.shape}")
    ma = a.shape[0]
    return _binary("concat_rows", a, b, np.vstack([a.values, b.values]),
                   lambda grad: grad[:ma].copy(), lambda grad: grad[ma:].copy())


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    m, n = x.shape
    if not (0 <= start <= stop <= m):
        raise ShapeError(f"row slice [{start}:{stop}] out of bounds for {m} rows")

    def vjp(grad):
        buf = np.zeros((m, n))
        buf[start:stop] = grad
        return buf

    return _unary("slice_rows", x, x.values[start:stop].copy(), vjp)


def multilinear(f: Tensor, p: Tensor) -> Tensor:
    """Row-wise flattened outer product: out[i, j*c + k] = f[i, j] * p[i, k]."""
    fv, pv = f.values, p.values
    if fv.shape[0] != pv.shape[0]:
        raise ShapeError(f"batch sizes differ: {fv.shape} vs {pv.shape}")
    (m, d), c = fv.shape, pv.shape[1]
    out = (fv[:, :, None] * pv[:, None, :]).reshape(m, d * c)
    return _binary("multilinear", f, p, out,
                   lambda grad: np.einsum("ijk,ik->ij", grad.reshape(m, d, c), pv),
                   lambda grad: np.einsum("ijk,ij->ik", grad.reshape(m, d, c), fv))


# ---------------------------------------------------------------------------
# finite-difference verification oracle


@dataclass
class GradCheckReport:
    """Worst-case comparison of analytic gradients against central differences."""

    max_rel_error: float
    worst_param: str
    worst_index: tuple[int, int]
    per_param: dict[str, float]
    h: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol


def _rel_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1.0)


def finite_diff_check(
    loss_fn: Callable[[], float],
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    h: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic ``grads`` with (L(t+h) - L(t-h)) / 2h per entry.

    ``loss_fn`` must re-read the arrays in ``params`` on every call and
    return the loss as a float; ``grads`` holds one analytic gradient array
    per parameter name.  The arrays are perturbed in place and each entry is
    restored before returning, also when ``loss_fn`` raises.
    """
    if not 0.0 < h < math.inf:
        raise ContractError(f"finite difference step must be finite and positive, got {h}")
    if not 0.0 <= tol < math.inf:
        raise ContractError(f"gradient check tolerance must be finite and >= 0, got {tol}")
    worst = -1.0  # below every error, so the first entry checked is named
    worst_param = ""  # even when each error reads exactly 0
    worst_index = (0, 0)
    per_param: dict[str, float] = {}
    for name, arr in params.items():
        analytic = grads[name]
        local_worst = 0.0
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            try:
                arr[idx] = orig + h
                lp = loss_fn()
                arr[idx] = orig - h
                lm = loss_fn()
            finally:
                arr[idx] = orig
            numeric = (lp - lm) / (2.0 * h)
            rel = _rel_error(float(analytic[idx]), numeric)
            if rel > local_worst:
                local_worst = rel
            if rel > worst:
                worst, worst_param, worst_index = rel, name, idx
        per_param[name] = local_worst
    return GradCheckReport(max(worst, 0.0), worst_param, worst_index, per_param, h, tol)
