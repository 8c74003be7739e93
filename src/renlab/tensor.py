"""Dense rank-<=3 float64 tensors with tape-based reverse-mode autodiff.

Everything is define-by-run: each operation appends one node to a Graph and
``Graph.backward`` walks the tape in exact reverse construction order, so a
given graph always produces bitwise-identical gradients.  The op set is the
minimum needed for small MLPs and the adversarial / consistency losses built
on top of them, plus ``grad_reverse`` which turns the discriminator's
maximization into a single minimization.

A value enters the tape only if a gradient can flow into it: a parameter,
or the output of an op with an input on the tape.  Any other tensor, such
as a constant, has ``node_id`` None and appends no node.  A forward-only
graph, ``Graph(record=False)``, gives its parameters no node either, for
callers that never run backward, such as a finite-difference check's
perturbed evaluations.  A node is plain data: its op name, its output
array, and one ``(parent node id, vjp)`` pair per input on the tape, in
input order.  ``Graph.backward`` is the one loop that calls vjps and
accumulates their results.  It keeps only the parameter leaves' gradients:
every other adjoint lives in the sweep alone, until its node's vjps have
run.  A vjp closes over arrays and scalars only, never a Graph or a Tensor,
so a graph holds no reference cycle and is freed by reference counting as
soon as its last Tensor goes away.

A tensor is a matrix, or a stack of matrices on a leading seed axis: every
op indexes from the right, rows on axis -2 and columns on axis -1, and
works on each matrix of a stack as on a lone matrix, with the same numpy
kernels, so each seed of a stack gets the bits of its own rank-2 run.  The
operands of a binary op share their leading axis.  A scalar loss has shape
(1, 1), or (S, 1, 1) for one loss per seed.

Every tensor holds finite values only, and a NonFiniteError names the op
that first made a NaN or an infinity.  The leaves are tested, and so is the
output of every op that can turn finite inputs into a non-finite value.
The ops of ``_FINITE_ON_FINITE`` cannot, so their output is not tested
again: relu (the larger of an input and 0), sigmoid (1/(1+e) or e/(1+e)
with e = exp(-|x|) in [0, 1]), softmax_rows (exp of an input minus its
row's maximum is in [0, 1], a difference that overflows only to -inf, so
each row sums to at least 1), grad_reverse, gather_rows, slice_rows and
concat_rows (copies of input entries).  A replaying graph tests each
replayed selection output once, when it is built, so a replayed relu, which
mixes its input with that output, stays finite too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .exceptions import ContractError, NonFiniteError, ShapeError


def as_matrix(values) -> np.ndarray:
    """Coerce scalar / 1-D / 2-D / 3-D input to a C-contiguous float64
    matrix or stack of matrices.

    1-D input becomes a single row; rank > 3 is rejected.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim > 3:
        raise ShapeError(f"rank-{arr.ndim} input not supported (rank <= 3 only)")
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
    e = arr - arr.max(axis=-1, keepdims=True)  # fresh array: exp and divide in place
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def stable_sigmoid(arr: np.ndarray) -> np.ndarray:
    """Elementwise logistic function; exp only ever sees non-positive input.

    1/(1+exp(-x)) where x >= 0 and exp(x)/(1+exp(x)) elsewhere: both
    branches share e = exp(-|x|), and each entry takes its own.
    """
    e = np.exp(-np.abs(arr))
    d = 1.0 + e
    return np.where(arr >= 0, 1.0 / d, e / d)


class Tensor:
    """A 2-D float64 array, or a stack of them (see the module docstring),
    on a graph.

    A tensor has no public constructor: ``Graph.parameter``/``constant`` and
    the ops are its only makers, so every tensor belongs to a graph.  Values
    are treated as immutable; ops always allocate fresh output arrays.
    """

    __slots__ = ("values", "graph", "node_id")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def grad(self) -> np.ndarray | None:
        """A parameter's gradient from the last backward pass; None for an
        intermediate and for any tensor without a node."""
        return self.graph.grads.get(self.node_id)

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.values.flat[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Node:
    """One operation record on the tape: its output array and, per input
    on the tape, a (parent node id, vjp) pair in input order."""

    __slots__ = ("op", "values", "parents")

    def __init__(self, op, values, parents):
        self.op = op
        self.values = values
        self.parents = parents


class Graph:
    """Tape of operation records in construction order.

    Every node's inputs precede it by construction; the backward pass visits
    nodes in exact reverse construction order.  A graph must only ever be
    mutated from a single thread.

    Only tensors a gradient can flow into get a node (see the module
    docstring).  With ``record=False`` not even the parameters do: the tape
    stays empty and ``backward`` raises ContractError.  Every graph keeps
    each relu's and clamp's (op, selection mask, output) on ``selections``,
    in call order.  A forward-only graph given another graph's selections
    as ``replay`` makes each relu/clamp output ``np.where(mask, x, output)``
    instead: the recorded branch, broadcast over the input's extra leading
    axes, and the op's own output bit for bit where no mask flips.  Each
    replayed output is tested for finiteness here, once (see the module
    docstring).
    """

    def __init__(self, record: bool = True, replay: list | None = None):
        if record and replay is not None:
            raise ContractError("replay needs a forward-only graph")
        for i, (op, _, out) in enumerate(replay or ()):
            if not _all_finite(out):
                raise NonFiniteError(f"op '{op}' of replayed selection {i + 1} holds NaN "
                                     "or infinity")
        self.nodes: list[Node] = []
        self.record = record
        self._param_ids: list[int] = []  # node ids of the parameter leaves
        # parameter node id -> gradient, replaced whole by each backward pass
        self.grads: dict[int, np.ndarray] = {}
        self.selections: list[tuple[str, np.ndarray, np.ndarray]] = []
        self.replay = replay

    def _select(self, op: str, mask: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The output ``out`` of relu or clamp ``op`` on input ``x``, recorded
        with ``mask``, or the replayed branch's.  A replay raises
        ContractError when it meets another op, runs past its record, or
        meets an input whose trailing axes are not the record's."""
        step = (op, mask, out)
        if self.replay is not None:
            i = len(self.selections)
            if i == len(self.replay):
                raise ContractError(f"replay of {i} selections meets one more ({op})")
            step = self.replay[i]
            if step[0] != op or x.shape[x.ndim - step[2].ndim:] != step[2].shape:
                raise ContractError(f"replayed selection {i + 1} is {step[0]} of shape "
                                    f"{step[2].shape}, met {op} of shape {x.shape}")
            out = np.where(step[1], x, step[2])
        self.selections.append(step)
        return out

    def _leaf(self, op, values) -> Tensor:
        """A checked leaf without a node."""
        if (type(values) is np.ndarray and 1 < values.ndim < 4
                and values.dtype == np.float64 and values.flags.c_contiguous):
            arr = values  # what as_matrix would return, without the call
        else:
            arr = as_matrix(values)
        if not _all_finite(arr):
            raise NonFiniteError(f"op '{op}' produced NaN or infinity")
        out = Tensor.__new__(Tensor)
        out.values = arr
        out.graph = self
        out.node_id = None
        return out

    def parameter(self, values) -> Tensor:
        """Register a trainable leaf; backward will populate its gradient.
        On a forward-only graph it gets no node, like a constant."""
        out = self._leaf("param", values)
        if self.record:
            nodes = self.nodes
            out.node_id = len(nodes)
            self._param_ids.append(out.node_id)
            nodes.append(Node("param", out.values, ()))
        return out

    def constant(self, values) -> Tensor:
        """A non-trainable leaf: it gets no node, so no gradient flows into it."""
        return self._leaf("const", values)

    def backward(self, loss: Tensor) -> None:
        """Reverse-mode sweep from a scalar loss node, or from a stack of
        per-seed scalars, each seeded with 1.

        Sets ``grads`` to the gradient of every parameter leaf (zeros if the
        loss does not depend on it).  No other adjoint outlives the sweep.
        """
        if not self.record:
            raise ContractError("backward on a forward-only graph")
        if loss.graph is not self:
            raise ContractError("loss tensor does not belong to this graph")
        if loss.shape[-2:] != (1, 1):
            raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
        nodes = self.nodes
        adjoints: list[np.ndarray | None] = [None] * len(nodes)
        if loss.node_id is not None:  # else no parameter reaches the loss
            adjoints[loss.node_id] = np.ones(loss.shape)
        for i in range(len(nodes) - 1, -1, -1):
            grad = adjoints[i]
            parents = nodes[i].parents
            if grad is None or not parents:
                continue
            adjoints[i] = None  # read by these vjps only, so dropped with them
            for parent_id, vjp in parents:
                held = adjoints[parent_id]
                if held is None:
                    # every vjp returns a fresh array that nothing else holds,
                    # so it becomes the buffer that later vjps add into
                    adjoints[parent_id] = vjp(grad)
                else:
                    held += vjp(grad)
        self.grads = {i: np.zeros_like(nodes[i].values) if adjoints[i] is None else adjoints[i]
                      for i in self._param_ids}


# The one record path of every op, written out twice so that an op costs no
# call beyond its own: check that a binary op's operands share a graph, run
# the finiteness test of _all_finite on the output unless the op is in
# _FINITE_ON_FINITE, and append a node with one (parent id, vjp) pair per
# input on the tape, if any input is on it.  Every tensor is finite, so the
# inputs are, and an op of _FINITE_ON_FINITE then makes a finite output
# (the reason for each is in the module docstring); every other op is
# tested, so the first op to make a non-finite value is the one named.
# ``out`` must already be a fresh C-contiguous float64 matrix or stack;
# every op's forward makes one.

_FINITE_ON_FINITE = frozenset({"relu", "sigmoid", "softmax_rows", "grad_reverse",
                               "gather_rows", "slice_rows", "concat_rows"})


def _unary(op: str, x: Tensor, out: np.ndarray, vjp) -> Tensor:
    if op not in _FINITE_ON_FINITE and not _and_reduce(_isfinite(out), axis=None):
        raise NonFiniteError(f"op '{op}' produced NaN or infinity")
    t = Tensor.__new__(Tensor)
    t.values = out
    t.graph = graph = x.graph
    xid = x.node_id
    if xid is None:
        t.node_id = None
    else:
        nodes = graph.nodes
        t.node_id = len(nodes)
        nodes.append(Node(op, out, ((xid, vjp),)))
    return t


def _binary(op: str, a: Tensor, b: Tensor, out: np.ndarray, vjp_a, vjp_b) -> Tensor:
    graph = a.graph
    if b.graph is not graph:
        raise ContractError("operands belong to different graphs")
    if op not in _FINITE_ON_FINITE and not _and_reduce(_isfinite(out), axis=None):
        raise NonFiniteError(f"op '{op}' produced NaN or infinity")
    t = Tensor.__new__(Tensor)
    t.values = out
    t.graph = graph
    aid, bid = a.node_id, b.node_id
    parents = (() if aid is None else ((aid, vjp_a),)) + (() if bid is None else ((bid, vjp_b),))
    if parents:
        nodes = graph.nodes
        t.node_id = len(nodes)
        nodes.append(Node(op, out, parents))
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
    av, bv = a.values, b.values
    if av.shape[-1] != bv.shape[-2] or av.shape[:-2] != bv.shape[:-2]:
        raise ShapeError(f"matmul shapes {a.shape} and {b.shape} do not chain")
    if bv.shape[-1] == 1:  # grad @ b^T is an outer product, as in the discriminator head
        def vjp_a(grad):
            # one product per entry, added to +0.0 as matmul adds it, so a
            # zero product reads +0.0 as it does from matmul
            out = grad * bv.swapaxes(-1, -2)
            out += 0.0
            return out
    else:
        def vjp_a(grad):
            return grad @ bv.swapaxes(-1, -2)

    return _binary("matmul", a, b, av @ bv, vjp_a, lambda grad: av.swapaxes(-1, -2) @ grad)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may be a 1xN row broadcast over a's rows (bias)."""
    broadcast = b.shape != a.shape
    if broadcast and b.shape != a.shape[:-2] + (1, a.shape[-1]):
        raise ShapeError(f"add shapes {a.shape} and {b.shape} incompatible")
    return _binary("add", a, b, a.values + b.values, lambda grad: grad.copy(),
                   lambda grad: np.add.reduce(grad, axis=-2, keepdims=True) if broadcast
                   else grad.copy())


def sub(a: Tensor, b: Tensor) -> Tensor:
    broadcast = b.shape != a.shape
    if broadcast and b.shape != a.shape[:-2] + (1, a.shape[-1]):
        raise ShapeError(f"sub shapes {a.shape} and {b.shape} incompatible")
    return _binary("sub", a, b, a.values - b.values, lambda grad: grad.copy(),
                   lambda grad: -(grad.sum(axis=-2, keepdims=True) if broadcast else grad))


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
    xv = x.values
    mask = xv > 0
    out = np.maximum(xv, 0.0)
    return _unary("relu", x, x.graph._select("relu", mask, xv, out), lambda grad: grad * mask)


def sigmoid(x: Tensor) -> Tensor:
    out = stable_sigmoid(x.values)
    return _unary("sigmoid", x, out, lambda grad: grad * out * (1.0 - out))


def clamp(x: Tensor, lo: float | None = None, hi: float | None = None) -> Tensor:
    """Clip to [lo, hi]; gradient passes only where strictly inside."""
    v = x.values
    lo = -math.inf if lo is None else float(lo)
    hi = math.inf if hi is None else float(hi)
    if not lo <= hi:  # nan fails too
        raise ContractError(f"clamp needs lo <= hi, got lo={lo}, hi={hi}")
    mask = (v > lo) & (v < hi)
    out = np.minimum(np.maximum(v, lo), hi)
    return _unary("clamp", x, x.graph._select("clamp", mask, v, out), lambda grad: grad * mask)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax; rows sum to 1 within 1e-12 for any finite input."""
    if x.shape[-1] < 1:
        raise ShapeError("softmax_rows requires at least one column")
    p = stable_softmax(x.values)

    def vjp(grad):
        inner = (grad * p).sum(axis=-1, keepdims=True)
        return p * (grad - inner)

    return _unary("softmax_rows", x, p, vjp)


def grad_reverse(x: Tensor, lam: float) -> Tensor:
    """Identity forward; backward multiplies the incoming gradient by -lam."""
    lam = float(lam)
    if not 0 <= lam < math.inf:  # nan fails too
        raise ContractError(f"grad_reverse factor must be finite and >= 0, got {lam}")
    return _unary("grad_reverse", x, x.values.copy(), lambda grad: -lam * grad)


def gather_rows(p: Tensor, labels) -> Tensor:
    """Pick one entry per row: out[..., i, 0] = p[..., i, labels[..., i]].

    ``labels`` holds one integer label per row of ``p``, in row order.
    """
    idx = np.asarray(labels)
    if idx.dtype.kind not in "iu":  # a float or bool label would be truncated
        raise ContractError(f"labels must have an integer dtype, got {idx.dtype}")
    idx = idx.astype(np.int64, copy=False).reshape(-1)
    shape = p.shape
    rows, c = math.prod(shape[:-1]), shape[-1]
    if idx.shape[0] != rows:
        raise ShapeError(f"{idx.shape[0]} labels for {rows} rows")
    if rows and (idx.min() < 0 or idx.max() >= c):
        raise ContractError(f"label out of range [0, {c})")
    flat = np.arange(0, rows * c, c) + idx  # each picked entry's offset in p

    def vjp(grad):
        buf = np.zeros(rows * c)
        buf[flat] = grad.reshape(-1)  # one entry per row, so no two collide
        return buf.reshape(shape)

    return _unary("gather_rows", p, p.values.reshape(-1)[flat].reshape(shape[:-1] + (1,)), vjp)


def sum_all(x: Tensor) -> Tensor:
    """Sum of each matrix: shape (1, 1), or (S, 1, 1) for a stack."""
    shape = x.shape
    return _unary("sum_all", x, np.add.reduce(x.values, axis=(-2, -1), keepdims=True),
                  lambda grad: np.full(shape, grad))


def mean_all(x: Tensor) -> Tensor:
    """Mean of each matrix: shape (1, 1), or (S, 1, 1) for a stack."""
    shape = x.shape
    n = shape[-2] * shape[-1]
    if n == 0:
        raise ContractError("mean over an empty tensor")
    # numpy's own mean without its Python wrappers: the same bits
    return _unary("mean_all", x, np.add.reduce(x.values, axis=(-2, -1), keepdims=True) / n,
                  lambda grad: np.full(shape, grad / n))


def sum_rows(x: Tensor) -> Tensor:
    """Per-row sum, shape m x 1."""
    shape = x.shape
    return _unary("sum_rows", x, x.values.sum(axis=-1, keepdims=True),
                  lambda grad: np.broadcast_to(grad, shape).copy())


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[-1] != b.shape[-1] or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"concat_rows shapes differ: {a.shape} vs {b.shape}")
    ma = a.shape[-2]
    return _binary("concat_rows", a, b, np.concatenate([a.values, b.values], axis=-2),
                   lambda grad: grad[..., :ma, :].copy(), lambda grad: grad[..., ma:, :].copy())


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    shape = x.shape
    if not (0 <= start <= stop <= shape[-2]):
        raise ShapeError(f"row slice [{start}:{stop}] out of bounds for {shape[-2]} rows")

    def vjp(grad):
        buf = np.zeros(shape)
        buf[..., start:stop, :] = grad
        return buf

    return _unary("slice_rows", x, x.values[..., start:stop, :].copy(), vjp)


def multilinear(f: Tensor, p: Tensor) -> Tensor:
    """Row-wise flattened outer product: out[..., i, j*c + k] = f[..., i, j] * p[..., i, k].

    einsum adds each product to +0.0, so a zero product reads +0.0 whatever
    the signs of its factors.
    """
    fv, pv = f.values, p.values
    if fv.shape[:-1] != pv.shape[:-1]:
        raise ShapeError(f"batch sizes differ: {fv.shape} vs {pv.shape}")
    rows, d, c = fv.shape[:-1], fv.shape[-1], pv.shape[-1]
    out = np.einsum("...i,...j->...ij", fv, pv).reshape(rows + (d * c,))
    return _binary("multilinear", f, p, out,
                   lambda grad: np.einsum("...ijk,...ik->...ij", grad.reshape(rows + (d, c)), pv),
                   lambda grad: np.einsum("...ijk,...ij->...ik", grad.reshape(rows + (d, c)), fv))


# ---------------------------------------------------------------------------
# finite-difference verification oracle

# cap on the bytes of the stacked parameter copies one loss_fn call of
# finite_diff_check receives
FD_STACK_BYTES = 16 << 20


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


def finite_diff_check(
    loss_fn: Callable[[dict[str, np.ndarray]], np.ndarray],
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray] | Sequence[Mapping[str, np.ndarray]],
    h: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport | list[GradCheckReport]:
    """Compare analytic gradients with (L(t+h) - L(t-h)) / 2h per entry, for
    one loss or for several losses of the same parameters at once.

    ``grads`` is one mapping, for one loss, or a sequence of L mappings, one
    per loss.  A mapping holds its loss's analytic gradient of each array of
    ``params`` it names, under the same name and with the same shape, and
    the mappings together name every array of ``params``: so one mapping
    names them all.  The entries of ``params`` form one flat vector, array
    by array in ``params`` order and in ``np.ndindex`` order within each.
    ``loss_fn(stacks)`` gets every array of ``params`` stacked K times,
    C-contiguous, on a new leading axis and returns the L losses of each
    copy, copy by copy (K values for one loss; (K, L) for several).  Copy
    2j of a call holds the call's j-th entry at +h and copy 2j+1 at -h;
    every other entry is the original.  A call's copies stay within
    FD_STACK_BYTES where two copies fit, so the vector is checked in as few
    calls as that allows.  ``params`` is never written.

    Returns one report per mapping, over the arrays it names only, or the
    one report of a lone mapping.
    """
    if not 0.0 < h < math.inf:
        raise ContractError(f"finite difference step must be finite and positive, got {h}")
    if not 0.0 <= tol < math.inf:
        raise ContractError(f"gradient check tolerance must be finite and >= 0, got {tol}")
    per_loss = [grads] if isinstance(grads, Mapping) else list(grads)
    for mapping in per_loss:
        if not mapping.keys() <= params.keys():
            raise ContractError(f"gradients {sorted(mapping)} do not match parameters "
                                f"{sorted(params)}")
        for name, grad in mapping.items():
            if np.shape(grad) != params[name].shape:
                raise ShapeError(f"gradient of {name} has shape {np.shape(grad)}, "
                                 f"the parameter {params[name].shape}")
    unnamed = sorted(params.keys() - set().union(*(m.keys() for m in per_loss)))
    if unnamed:
        raise ContractError(f"no gradient names parameters {unnamed}")
    bounds = np.cumsum([0] + [a.size for a in params.values()])  # array i is [b_i, b_i+1)
    flat = np.concatenate([np.zeros(0), *map(np.ravel, params.values())])  # {} gives size 0
    per_call = max(1, FD_STACK_BYTES // max(2 * flat.nbytes, 1))  # entries per loss_fn call
    n_loss = len(per_loss)
    losses = np.empty((2 * flat.size, n_loss))  # entry j's at +h, then at -h
    for start in range(0, flat.size, per_call):
        entries = np.arange(start, min(start + per_call, flat.size))
        k = 2 * entries.size
        copies = np.repeat(flat[None], k, axis=0)
        copies[range(0, k, 2), entries] = flat[entries] + h
        copies[range(1, k, 2), entries] = flat[entries] - h
        stacks = {name: np.ascontiguousarray(copies[:, lo:hi]).reshape((k,) + params[name].shape)
                  for name, lo, hi in zip(params, bounds, bounds[1:])}
        del copies  # only the stacks live through the forward pass
        out = np.asarray(loss_fn(stacks), dtype=np.float64)
        if out.size != k * n_loss:
            raise ContractError(f"loss_fn returned {out.size} losses for {k} stacked copies of "
                                f"{', '.join(params)}" + (f", {n_loss} each" if n_loss > 1 else ""))
        losses[2 * start:2 * start + k] = out.reshape(k, n_loss)
    numeric = (losses[0::2] - losses[1::2]) / (2.0 * h)
    reports = [_report(numeric[:, i], mapping, params, bounds, h, tol)
               for i, mapping in enumerate(per_loss)]
    return reports[0] if isinstance(grads, Mapping) else reports


def _report(numeric: np.ndarray, grads: Mapping[str, np.ndarray],
            params: Mapping[str, np.ndarray], bounds: np.ndarray, h: float, tol: float
            ) -> GradCheckReport:
    """One loss's report over the arrays ``grads`` names, from the central
    differences ``numeric`` of every entry of ``params``."""
    names = [name for name in params if name in grads]
    spans = [(lo, hi) for name, lo, hi in zip(params, bounds, bounds[1:]) if name in grads]
    numeric = np.concatenate([np.zeros(0), *(numeric[lo:hi] for lo, hi in spans)])
    analytic = np.concatenate([np.zeros(0), *(np.ravel(grads[name]) for name in names)])
    rel = np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic),
                                                             np.abs(numeric)), 1.0)
    own = np.cumsum([0] + [hi - lo for lo, hi in spans])  # array i is [own_i, own_i+1) of rel
    per_param = {name: float(rel[lo:hi].max(initial=0.0))
                 for name, lo, hi in zip(names, own, own[1:])}
    if not rel.size:
        return GradCheckReport(0.0, "", (0, 0), per_param, h, tol)
    j = int(rel.argmax())  # the first entry of the largest error
    i = int(np.searchsorted(own, j, side="right")) - 1
    index = tuple(int(n) for n in np.unravel_index(j - own[i], params[names[i]].shape))
    return GradCheckReport(float(rel[j]), names[i], index, per_param, h, tol)
