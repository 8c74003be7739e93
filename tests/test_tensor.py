"""Autodiff core: forward values, gradients vs central differences, tape rules."""

import contextlib
import gc
import math
import re
import warnings
import weakref

import numpy as np
import pytest

from renlab import tensor as T
from renlab.exceptions import ContractError, NonFiniteError, ShapeError

from conftest import numeric_grad, rel_err


def test_as_matrix_shapes():
    assert T.as_matrix(3.0).shape == (1, 1)
    assert T.as_matrix([1.0, 2.0]).shape == (1, 2)
    assert T.as_matrix([[1.0], [2.0]]).shape == (2, 1)
    assert T.as_matrix(np.zeros((3, 2, 2))).shape == (3, 2, 2)  # a leading seed axis
    with pytest.raises(ShapeError):
        T.as_matrix(np.zeros((2, 2, 2, 2)))


def test_tensor_rejects_non_finite():
    g = T.Graph()
    for leaf in (g.constant, g.parameter):
        with pytest.raises(NonFiniteError):
            leaf([np.nan, 1.0])
        with pytest.raises(NonFiniteError):
            leaf([np.inf])
    assert g.nodes == []


def test_a_tensor_comes_only_from_a_graph():
    with pytest.raises(TypeError):
        T.Tensor([[1.0]])


def test_op_rejects_non_finite_output():
    g = T.Graph()
    x = g.parameter([[0.0]])
    with np.errstate(divide="ignore"):
        with pytest.raises(NonFiniteError):
            T.log(x)  # log 0 = -inf


def test_matmul_forward():
    g = T.Graph()
    a = g.constant([[1.0, 2.0], [3.0, 4.0]])
    b = g.constant([[5.0], [6.0]])
    out = T.matmul(a, b)
    assert np.array_equal(out.values, [[17.0], [39.0]])
    with pytest.raises(ShapeError):
        T.matmul(b, b)


def test_softmax_rows_sum_to_one(rng):
    g = T.Graph()
    x = g.constant(rng.normal(scale=30.0, size=(7, 5)))
    p = T.softmax_rows(x)
    assert np.allclose(p.values.sum(axis=1), 1.0, atol=1e-12)
    assert (p.values > 0).all()


def test_sigmoid_extremes():
    g = T.Graph()
    x = g.constant([[0.0, 800.0, -800.0]])
    s = T.sigmoid(x)
    assert s.values[0, 0] == 0.5
    assert 0.0 <= s.values[0, 2] < 1e-300
    assert s.values[0, 1] == 1.0  # saturates without overflow


def test_clamp_forward_and_gradient_mask():
    g = T.Graph()
    x = g.parameter([[-1.0, 0.5, 2.0]])
    y = T.clamp(x, lo=0.0, hi=1.0)
    assert np.array_equal(y.values, [[0.0, 0.5, 1.0]])
    g.backward(T.sum_all(y))
    assert np.array_equal(x.grad, [[0.0, 1.0, 0.0]])


@pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (math.nan, None), (None, math.nan)])
def test_clamp_refuses_bounds_that_are_not_ordered(lo, hi):
    # lo > hi would return hi everywhere with a zero gradient
    g = T.Graph()
    with pytest.raises(ContractError, match="lo <= hi"):
        T.clamp(g.parameter([[-1.0, 0.5, 2.0]]), lo, hi)


def test_multilinear_one_hot_selects_columns():
    g = T.Graph()
    f = g.constant([[1.0, 2.0, 3.0]])
    p = g.constant([[1.0, 0.0]])
    out = T.multilinear(f, p)
    assert np.array_equal(out.values, [[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]])


def test_multilinear_uniform_rows():
    g = T.Graph()
    f = g.constant([[1.0, 1.0]])
    p = g.constant([[0.5, 0.5]])
    out = T.multilinear(f, p)
    assert np.array_equal(out.values, [[0.5, 0.5, 0.5, 0.5]])


def test_multilinear_row_norm_product(rng):
    # ||f (x) p|| = ||f|| * ||p|| row by row
    for trial in range(10):
        g = T.Graph()
        fv = rng.normal(size=(6, 4))
        pv = rng.normal(size=(6, 3))
        out = T.multilinear(g.constant(fv), g.constant(pv))
        got = np.linalg.norm(out.values, axis=1)
        want = np.linalg.norm(fv, axis=1) * np.linalg.norm(pv, axis=1)
        assert np.allclose(got, want, rtol=1e-12)


def test_gather_rows_forward_and_range_check():
    g = T.Graph()
    p = g.constant([[0.1, 0.9], [0.7, 0.3]])
    out = T.gather_rows(p, [1, 0])
    assert np.array_equal(out.values, [[0.9], [0.7]])
    with pytest.raises(ContractError):
        T.gather_rows(p, [2, 0])
    with pytest.raises(ShapeError):
        T.gather_rows(p, [0])
    # a non-integer label would be truncated to some other column
    for labels in ([0.7, 1.2], [True, False], np.array([1.0, 0.0])):
        with pytest.raises(ContractError, match="integer"):
            T.gather_rows(p, labels)


# --- gradient checks: every differentiable op against the local oracle -----


def _check_unary(build, shape, rng, positive=False):
    """Gradient of mean(op(x)) for a fresh random x, vs central differences."""
    xv = rng.normal(size=shape)
    if positive:
        xv = np.abs(xv) + 0.5

    def loss():
        g = T.Graph()
        x = g.parameter(xv)
        out = T.mean_all(build(x))
        return out.item()

    def analytic():
        g = T.Graph()
        x = g.parameter(xv)
        out = T.mean_all(build(x))
        g.backward(out)
        return x.grad

    assert rel_err(analytic(), numeric_grad(loss, xv)) < 1e-7


UNARY_OPS = [
    ("scale", lambda x: T.scale(x, -2.5), False),
    ("neg", T.neg, False),
    ("rsub_const", lambda x: T.rsub_const(3.0, x), False),
    ("square", T.square, False),
    ("sqrt", T.sqrt, True),
    ("log", T.log, True),
    ("relu", T.relu, False),
    ("sigmoid", T.sigmoid, False),
    ("clamp_interior", lambda x: T.clamp(x, lo=-50.0, hi=50.0), False),
    ("softmax", lambda x: T.square(T.softmax_rows(x)), False),
    ("sum_rows", lambda x: T.square(T.sum_rows(x)), False),
    ("sum_all", T.sum_all, False),
    ("slice", lambda x: T.square(T.slice_rows(x, 1, 3)), False),
]


@pytest.mark.parametrize("name,build,positive", UNARY_OPS, ids=[u[0] for u in UNARY_OPS])
def test_unary_gradients(name, build, positive):
    rng = np.random.default_rng(77)
    for trial in range(3):
        _check_unary(build, (4, 3), rng, positive=positive)


def test_binary_gradients(rng):
    av = rng.normal(size=(4, 3))
    bv = rng.normal(size=(3, 2))
    biasv = rng.normal(size=(1, 2))

    def make(loss_only):
        g = T.Graph()
        a = g.parameter(av)
        b = g.parameter(bv)
        bias = g.parameter(biasv)
        out = T.mean_all(T.square(T.add(T.matmul(a, b), bias)))
        if loss_only:
            return out.item()
        g.backward(out)
        return {"a": a.grad, "b": b.grad, "bias": bias.grad}

    grads = make(False)
    for name, arr in (("a", av), ("b", bv), ("bias", biasv)):
        num = numeric_grad(lambda: make(True), arr)
        assert rel_err(grads[name], num) < 1e-7, name


def test_sub_concat_gather_gradients(rng):
    av = rng.normal(size=(3, 4))
    bv = rng.normal(size=(2, 4))
    labels = [1, 3, 0, 2, 1]

    def make(loss_only):
        g = T.Graph()
        a = g.parameter(av)
        b = g.parameter(bv)
        cat = T.concat_rows(a, b)
        p = T.softmax_rows(T.sub(cat, T.scale(cat, 0.3)))
        out = T.neg(T.mean_all(T.log(T.gather_rows(p, labels))))
        if loss_only:
            return out.item()
        g.backward(out)
        return {"a": a.grad, "b": b.grad}

    grads = make(False)
    assert rel_err(grads["a"], numeric_grad(lambda: make(True), av)) < 1e-7
    assert rel_err(grads["b"], numeric_grad(lambda: make(True), bv)) < 1e-7


def test_multilinear_gradients(rng):
    fv = rng.normal(size=(5, 4))
    pv = rng.normal(size=(5, 3))

    def make(loss_only):
        g = T.Graph()
        f = g.parameter(fv)
        p = g.parameter(pv)
        out = T.mean_all(T.square(T.multilinear(f, p)))
        if loss_only:
            return out.item()
        g.backward(out)
        return {"f": f.grad, "p": p.grad}

    grads = make(False)
    assert rel_err(grads["f"], numeric_grad(lambda: make(True), fv)) < 1e-7
    assert rel_err(grads["p"], numeric_grad(lambda: make(True), pv)) < 1e-7


def test_sqrt_subgradient_at_zero_is_zero():
    g = T.Graph()
    x = g.parameter([[0.0, 4.0]])
    g.backward(T.sum_all(T.sqrt(x)))
    assert x.grad[0, 0] == 0.0
    assert x.grad[0, 1] == pytest.approx(0.25, rel=1e-15)


def test_grad_reverse_identity_forward_scaled_negated_backward(rng):
    xv = rng.normal(size=(3, 3))
    lam = 0.7

    def grads(reverse):
        g = T.Graph()
        x = g.parameter(xv)
        h = T.grad_reverse(x, lam) if reverse else x
        g.backward(T.mean_all(T.square(h)))
        return x.grad

    g = T.Graph()
    x = g.parameter(xv)
    assert np.array_equal(T.grad_reverse(x, lam).values, xv)
    assert np.allclose(grads(True), -lam * grads(False), atol=1e-15)
    with pytest.raises(ContractError):
        T.grad_reverse(x, -0.1)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_grad_reverse_refuses_a_non_finite_factor(lam):
    # the forward is an identity copy, so no per-op check would see it; the
    # backward would fill every upstream gradient with nan
    g = T.Graph()
    with pytest.raises(ContractError, match="finite"):
        T.grad_reverse(g.parameter([[1.0, 2.0]]), lam)


def test_unreached_parameters_get_zero_gradients():
    g = T.Graph()
    x = g.parameter([[1.0, 2.0]])
    lonely = g.parameter([[5.0]])
    g.backward(T.mean_all(T.square(x)))
    assert np.array_equal(lonely.grad, [[0.0]])
    # a loss of constants alone has no node and reaches no parameter
    g.backward(T.sum_all(g.constant([[3.0]])))
    assert np.array_equal(x.grad, [[0.0, 0.0]]) and np.array_equal(lonely.grad, [[0.0]])


def test_constants_are_skipped():
    g = T.Graph()
    x = g.parameter([[2.0]])
    c = g.constant([[3.0]])
    g.backward(T.sum_all(T.matmul(x, c)))
    assert c.grad is None
    assert x.grad[0, 0] == 3.0


def test_constant_inputs_get_no_parent_entry():
    g = T.Graph()
    x = g.parameter([[2.0]])
    c = g.constant([[3.0]])
    y = T.matmul(c, x)
    z = T.add(y, c)
    assert [pid for pid, _ in g.nodes[y.node_id].parents] == [x.node_id]
    assert [pid for pid, _ in g.nodes[z.node_id].parents] == [y.node_id]


# one builder per tape op: x is a 2x3 parameter with positive entries, c a
# 2x3 constant and w a 3x2 parameter
OP_BUILDERS = {
    "matmul": lambda x, c, w: T.matmul(x, w),
    "add": lambda x, c, w: T.add(x, c),
    "sub": lambda x, c, w: T.sub(c, x),
    "scale": lambda x, c, w: T.scale(x, 2.0),
    "neg": lambda x, c, w: T.neg(x),
    "rsub_const": lambda x, c, w: T.rsub_const(1.0, x),
    "square": lambda x, c, w: T.square(x),
    "sqrt": lambda x, c, w: T.sqrt(x),
    "log": lambda x, c, w: T.log(x),
    "relu": lambda x, c, w: T.relu(x),
    "sigmoid": lambda x, c, w: T.sigmoid(x),
    "clamp": lambda x, c, w: T.clamp(x, 0.2, 0.8),
    "softmax_rows": lambda x, c, w: T.softmax_rows(x),
    "grad_reverse": lambda x, c, w: T.grad_reverse(x, 0.5),
    "gather_rows": lambda x, c, w: T.gather_rows(x, [0, 2]),
    "sum_all": lambda x, c, w: T.sum_all(x),
    "mean_all": lambda x, c, w: T.mean_all(x),
    "sum_rows": lambda x, c, w: T.sum_rows(x),
    "concat_rows": lambda x, c, w: T.concat_rows(x, c),
    "slice_rows": lambda x, c, w: T.slice_rows(x, 0, 1),
    "multilinear": lambda x, c, w: T.multilinear(x, c),
}


def _op_inputs(g, c_leaf=None, leaf=None):
    """(x, c, w); ``leaf`` makes x and w, ``c_leaf`` makes c."""
    leaf = leaf or g.parameter
    return (leaf([[0.1, 0.5, 0.9], [0.3, 0.6, 0.7]]),
            (c_leaf or g.constant)([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
            leaf(np.ones((3, 2))))


# the positions in (x, c, w) that each binary builder reads; every other
# builder reads x alone
BINARY_OPERANDS = {"matmul": (0, 2), "add": (0, 1), "sub": (0, 1),
                   "concat_rows": (0, 1), "multilinear": (0, 1)}


@pytest.mark.parametrize("op", sorted(OP_BUILDERS))
def test_tape_is_freed_without_the_cycle_collector(op):
    # a vjp that captured a Graph or a Tensor would keep the tape alive in a
    # reference cycle until the cycle collector ran
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        g = T.Graph()
        x, c, w = _op_inputs(g)
        loss = T.sum_all(OP_BUILDERS[op](x, c, w))
        g.backward(loss)
        grad = x.grad
        ref = weakref.ref(g)
        del g, x, c, w, loss
        assert ref() is None
        assert grad.shape == (2, 3)
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("op", sorted(OP_BUILDERS))
def test_op_output_is_a_fresh_c_contiguous_float64_matrix(op):
    # _unary/_binary store such an array as it is, without as_matrix
    g = T.Graph()
    x, c, w = _op_inputs(g)
    out = OP_BUILDERS[op](x, c, w).values
    assert type(out) is np.ndarray and out.ndim == 2 and out.dtype == np.float64
    assert out.flags.c_contiguous
    for t in (x, c, w):
        assert not np.shares_memory(out, t.values)


@pytest.mark.parametrize("op", sorted(OP_BUILDERS))
def test_forward_only_graph_gives_recorded_values_and_keeps_no_node(op):
    # a forward-only graph's parameters, like constants on a recording
    # graph, get no node, and neither does any op on them alone
    recorded = OP_BUILDERS[op](*_op_inputs(T.Graph()))
    forward_only, recording = T.Graph(record=False), T.Graph()
    for g, leaf in ((forward_only, None), (recording, recording.constant)):
        out = OP_BUILDERS[op](*_op_inputs(g, leaf=leaf))
        assert out.values.tobytes() == recorded.values.tobytes()
        assert out.shape == recorded.shape
        assert out.graph is g and out.node_id is None
        assert g.nodes == []
        assert out.grad is None


@pytest.mark.parametrize("op", sorted(OP_BUILDERS))
def test_every_vjp_returns_a_private_array(op):
    # backward keeps a vjp's first result as the parent's gradient buffer and
    # adds into it, so a vjp that handed back grad or a view of it would let
    # one buffer alias another; c is trainable here so every pair is recorded
    g = T.Graph()
    x, c, w = _op_inputs(g, c_leaf=g.parameter)
    out = OP_BUILDERS[op](x, c, w)
    parents = g.nodes[out.node_id].parents
    assert parents
    rng = np.random.default_rng(5)
    for parent_id, vjp in parents:
        grad = rng.normal(size=out.shape)
        result = vjp(grad)
        assert type(result) is np.ndarray and result.dtype == np.float64
        assert result.flags.c_contiguous
        assert result.shape == g.nodes[parent_id].values.shape
        assert not np.shares_memory(result, grad)
        for node in g.nodes:
            assert not np.shares_memory(result, node.values)


# OP_BUILDERS on a stack of three seeds, with one label row per seed, plus
# the bias broadcast of add and sub and a 1-wide product
STACK_LABELS = np.array([[0, 2], [1, 1], [2, 0]])
STACK_BUILDERS = {
    **OP_BUILDERS,
    "add_bias": lambda x, c, w: T.add(x, T.slice_rows(c, 1, 2)),
    "sub_bias": lambda x, c, w: T.sub(x, T.slice_rows(c, 0, 1)),
    "matmul_1_wide": lambda x, c, w: T.matmul(x, T.sum_rows(w)),
}


@pytest.mark.parametrize("op", sorted(STACK_BUILDERS))
def test_every_op_gives_each_seed_of_a_stack_the_bits_of_its_own_matrices(op):
    rng = np.random.default_rng(7)
    xs, cs = rng.uniform(0.1, 0.9, size=(3, 2, 3)), rng.normal(size=(3, 2, 3))
    ws = rng.normal(size=(3, 3, 2))

    def run(x, c, w, labels):
        g = T.Graph()
        leaves = g.parameter(x), g.parameter(c), g.parameter(w)
        if op == "gather_rows":
            out = T.gather_rows(leaves[0], labels)
        else:
            out = STACK_BUILDERS[op](*leaves)
        g.backward(T.sum_all(T.square(out)))
        return [out.values] + [t.grad for t in leaves]

    stacked = run(xs, cs, ws, STACK_LABELS)
    assert stacked[0].ndim == 3
    for s in range(3):
        solo = run(xs[s], cs[s], ws[s], STACK_LABELS[s])
        assert [a[s].tobytes() for a in stacked] == [a.tobytes() for a in solo]


def test_binary_ops_refuse_operands_on_different_seed_axes():
    g = T.Graph()
    two, three = g.parameter(np.ones((2, 2, 3))), g.parameter(np.ones((3, 2, 3)))
    lone = g.parameter(np.ones((2, 3)))
    for build in (lambda a, b: T.matmul(a, g.constant(np.ones(b.shape[:-2] + (3, 2)))),
                  T.add, T.sub, T.concat_rows, T.multilinear):
        for a, b in ((two, three), (two, lone)):
            with pytest.raises(ShapeError):
                build(a, b)


@pytest.mark.parametrize("record", [True, False], ids=["recorded", "forward-only"])
@pytest.mark.parametrize("op", sorted(OP_BUILDERS))
def test_op_rejects_an_operand_off_its_graph(op, record):
    # a binary op with one operand from another graph raises and leaves no
    # node behind; a foreign tensor in a position the op does not read must
    # not raise, which keeps BINARY_OPERANDS honest
    g = T.Graph(record)
    inputs = _op_inputs(g)
    foreign = _op_inputs(T.Graph(record))
    reads = BINARY_OPERANDS.get(op, (0,))
    for i in range(3):
        mixed = list(inputs)
        mixed[i] = foreign[i]
        if i not in reads or len(reads) == 1:
            # an input the op does not read, or a unary op's one input: the
            # output joins the graph of what the op reads
            assert OP_BUILDERS[op](*mixed).graph is mixed[reads[0]].graph
            continue
        n_nodes = len(g.nodes)
        with pytest.raises(ContractError, match="different graphs"):
            OP_BUILDERS[op](*mixed)
        assert len(g.nodes) == n_nodes


def test_forward_only_graph_refuses_backward():
    g = T.Graph(record=False)
    x = g.parameter([[1.0, 2.0]])
    loss = T.sum_all(T.square(x))
    with pytest.raises(ContractError, match="forward-only"):
        g.backward(loss)
    assert x.grad is None and loss.grad is None
    assert g.nodes == []


def test_forward_only_op_rejects_non_finite_output():
    # the per-op check runs whether or not the graph records
    g = T.Graph(record=False)
    x = g.parameter([[0.0]])
    with np.errstate(divide="ignore"):
        with pytest.raises(NonFiniteError, match="'log'"):
            T.log(x)  # log 0 = -inf
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="'square'"):
            T.square(g.parameter([[1e200]]))
    with pytest.raises(NonFiniteError, match="'param'"):
        g.parameter([[np.nan]])
    assert g.nodes == []


def test_forward_only_and_recorded_tensors_do_not_mix():
    rec, fwd = T.Graph(), T.Graph(record=False)
    a = rec.parameter([[1.0, 2.0]])
    b = fwd.parameter([[3.0, 4.0]])
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ContractError):
            T.add(x, y)
        with pytest.raises(ContractError):
            T.multilinear(x, y)
    with pytest.raises(ContractError):
        rec.backward(T.sum_all(b))
    assert fwd.nodes == []


def _relu_then_clip(g, x):
    return T.clamp(T.relu(g.constant(x)), hi=1.5)


def test_a_replay_runs_each_copy_on_the_recorded_branch():
    base = T.Graph(record=False)
    x = np.array([[-1.0, 0.0, 2.0]])
    plain = _relu_then_clip(base, x)
    assert [op for op, _, _ in base.selections] == ["relu", "clamp"]
    g = T.Graph(record=False, replay=base.selections)
    # copy 0 is the recorded point, copy 1 crosses every kink
    out = _relu_then_clip(g, np.stack([x, [[1.0, -1.0, 1.0]]]))
    assert out.values[0].tobytes() == plain.values.tobytes()
    assert np.array_equal(out.values[1], [[0.0, 0.0, 1.5]])  # relu, clamp: [1, 0, 1]
    assert out.values.flags.c_contiguous and g.nodes == []
    assert g.selections == base.selections


def test_a_replay_refuses_another_op_a_longer_run_or_another_shape():
    base = T.Graph(record=False)
    _relu_then_clip(base, np.zeros((1, 3)))
    with pytest.raises(ContractError, match=re.escape("is relu of shape (1, 3), met clamp")):
        T.clamp(T.Graph(record=False, replay=base.selections).constant(np.zeros((1, 3))), hi=1.0)
    g = T.Graph(record=False, replay=base.selections)
    _relu_then_clip(g, np.zeros((1, 3)))
    with pytest.raises(ContractError, match="replay of 2 selections meets one more"):
        T.relu(g.constant(np.zeros((1, 3))))
    for shape in ((1, 4), (2, 3), (2, 2, 3)):
        with pytest.raises(ContractError, match=re.escape(f"met relu of shape {shape}")):
            T.relu(T.Graph(record=False, replay=base.selections).constant(np.zeros(shape)))
    with pytest.raises(ContractError, match="forward-only"):
        T.Graph(replay=base.selections)


def _relu_clip_tape(g, w):
    """A loss through relu and clamp of parameter ``w`` on ``g``."""
    return T.sum_all(T.clamp(T.relu(g.parameter(w)), hi=1.5))


def test_a_recording_graph_keeps_the_selections_a_forward_only_graph_keeps():
    w = np.array([[-1.0, 0.0, 0.5, 2.0]])
    rec, fwd = T.Graph(), T.Graph(record=False)
    for g in (rec, fwd):
        _relu_clip_tape(g, w)
    assert [op for op, _, _ in rec.selections] == ["relu", "clamp"]
    for (op, mask, out), (fop, fmask, fout) in zip(rec.selections, fwd.selections, strict=True):
        assert op == fop
        assert mask.dtype == fmask.dtype == bool and np.array_equal(mask, fmask)
        assert out.tobytes() == fout.tobytes()


def test_a_stacked_forward_only_graph_replays_a_recording_graph_s_selections():
    w = np.array([[-1.0, 0.0, 0.5, 2.0]])
    rec = T.Graph()
    loss = _relu_clip_tape(rec, w)
    g = T.Graph(record=False, replay=rec.selections)
    # copy 0 is the recorded point, copy 1 crosses every kink
    out = _relu_clip_tape(g, np.stack([w, [[1.0, -1.0, 3.0, 1.0]]]))
    assert out.values[0].tobytes() == loss.values.tobytes()
    # relu holds the first two entries at their recorded 0 and passes 3 and
    # 1; clamp passes 3 unclipped and holds the last at its recorded 1.5
    assert out.values[1].item() == 3.0 + 1.5
    assert g.nodes == [] and g.selections == rec.selections


def test_a_recording_graph_is_refused_a_replay():
    rec = T.Graph()
    _relu_clip_tape(rec, np.ones((1, 2)))
    with pytest.raises(ContractError, match="^replay needs a forward-only graph$"):
        T.Graph(record=True, replay=rec.selections)


def test_finiteness_check_is_exact_on_edge_arrays():
    # finite arrays whose sum overflows pass without a warning, empty arrays
    # pass, and one NaN or infinity anywhere is caught
    g, rec = T.Graph(record=False), T.Graph()
    big = np.full((2, 3), np.finfo(np.float64).max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g.constant(big)
        rec.parameter(big)
        g.constant(np.zeros((0, 3)))
        rec.parameter(np.zeros((3, 0)))
    for bad in (np.nan, np.inf, -np.inf):
        arr = big.copy()
        arr[1, 2] = bad
        with pytest.raises(NonFiniteError):
            g.constant(arr)
        with pytest.raises(NonFiniteError):
            rec.parameter(arr)


BIG, TINY = np.finfo(np.float64).max, np.finfo(np.float64).tiny
# finite rows at float64's extremes: mixed signs and magnitudes, a row of
# one value, zeros of both signs, subnormals
EDGE_ROWS = np.array([[BIG, -BIG, 5e-324, 0.0],
                      [-TINY, TINY, -0.0, -5e-324],
                      [BIG, BIG, BIG, BIG],
                      [-BIG, -BIG, -TINY, 1.0],
                      [-0.0, 0.0, -0.0, 0.0]])
EDGE_STACK = np.stack([EDGE_ROWS, -EDGE_ROWS, EDGE_ROWS[::-1]])

# one op per name of _FINITE_ON_FINITE, on a parameter x
FINITE_ON_FINITE_BUILDERS = {
    "relu": T.relu,
    "sigmoid": T.sigmoid,
    "softmax_rows": T.softmax_rows,
    "grad_reverse": lambda x: T.grad_reverse(x, 1.0),
    "gather_rows": lambda x: T.gather_rows(x, np.arange(math.prod(x.shape[:-1])) % x.shape[-1]),
    "slice_rows": lambda x: T.slice_rows(x, 1, 4),
    "concat_rows": lambda x: T.concat_rows(x, x),
}


@pytest.mark.parametrize("edges", [EDGE_ROWS, EDGE_STACK], ids=["rank-2", "stack"])
@pytest.mark.parametrize("op", sorted(FINITE_ON_FINITE_BUILDERS))
def test_an_op_whose_output_is_not_retested_keeps_finite_inputs_finite(op, edges):
    assert set(FINITE_ON_FINITE_BUILDERS) == T._FINITE_ON_FINITE
    g = T.Graph()
    # softmax's max shift overflows to -inf on rows holding both -BIG and
    # BIG, and exp takes that to 0; every other op runs without a warning
    with np.errstate(over="ignore") if op == "softmax_rows" else contextlib.nullcontext():
        out = FINITE_ON_FINITE_BUILDERS[op](g.parameter(edges))
    assert g.nodes[-1].op == op
    assert np.isfinite(out.values).all()


def test_every_op_whose_output_is_not_retested_is_one_a_function_records():
    recorded = set()
    for build in OP_BUILDERS.values():
        g = T.Graph()
        build(*_op_inputs(g))
        recorded.add(g.nodes[-1].op)
    assert recorded == set(OP_BUILDERS) - {"neg"}  # neg records a scale node
    assert T._FINITE_ON_FINITE < recorded


@pytest.mark.parametrize("record", [True, False], ids=["recorded", "forward-only"])
@pytest.mark.parametrize("op, build", [
    ("scale", lambda g: T.scale(g.parameter([[BIG]]), 2.0)),
    ("add", lambda g: T.add(g.parameter([[BIG, 1.0]]), g.parameter([[BIG, 1.0]]))),
    ("matmul", lambda g: T.matmul(g.parameter([[BIG, BIG]]), g.parameter([[1.0], [1.0]]))),
    ("log", lambda g: T.log(g.parameter([[1.0, 0.0]]))),
    ("clamp", lambda g: T.clamp(g.parameter([[0.0]]), lo=math.inf)),
], ids=["scale", "add", "matmul", "log", "clamp"])
def test_an_op_whose_output_is_retested_still_names_itself(op, build, record):
    assert op not in T._FINITE_ON_FINITE
    g = T.Graph(record=record)
    with np.errstate(over="ignore", divide="ignore"):
        with pytest.raises(NonFiniteError, match=f"^op '{op}' produced NaN or infinity$"):
            build(g)


def test_a_replay_of_a_non_finite_selection_is_refused_when_the_graph_is_built():
    base = T.Graph(record=False)
    _relu_then_clip(base, np.array([[-1.0, 2.0]]))
    (relu, mask, out), clip = base.selections
    bad = out.copy()
    bad[0, 0] = np.nan  # where the mask holds relu at its recorded output
    with pytest.raises(NonFiniteError,
                       match="^op 'relu' of replayed selection 1 holds NaN or infinity$"):
        T.Graph(record=False, replay=[(relu, mask, bad), clip])
    # a clamp keeps its selection before its own test refuses its output
    rec = T.Graph(record=False)
    with pytest.raises(NonFiniteError, match="^op 'clamp' produced"):
        T.clamp(rec.constant([[0.0]]), lo=math.inf)
    with pytest.raises(NonFiniteError, match="^op 'clamp' of replayed selection 1 holds"):
        T.Graph(record=False, replay=rec.selections)


# The kernels the tape ran before, kept as references for the cheaper ones
# that replaced them.

def _sigmoid_by_masks(arr):
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    e = np.exp(arr[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _multilinear_by_broadcast(fv, pv):
    rows, d, c = fv.shape[:-1], fv.shape[-1], pv.shape[-1]
    return (fv[..., :, None] * pv[..., None, :]).reshape(rows + (d * c,))


def _matmul_left_vjp(grad, bv):
    return grad @ bv.swapaxes(-1, -2)


SIGMOID_EDGES = [0.0, -0.0, 36.0, -36.0, 710.0, -710.0, 745.0, -745.0, 5e-324, -5e-324,
                 TINY, -TINY, TINY / 3, BIG, -BIG, math.inf, -math.inf]


def test_stable_sigmoid_gives_the_bits_of_the_masked_kernel(rng):
    edges = np.array(SIGMOID_EDGES)
    for arr in (edges.reshape(1, -1), edges.reshape(-1, 1), np.stack([edges.reshape(1, -1)] * 3),
                rng.normal(scale=30.0, size=(6, 5)), rng.normal(scale=300.0, size=(3, 6, 5))):
        assert T.stable_sigmoid(arr).tobytes() == _sigmoid_by_masks(arr).tobytes()


def test_multilinear_gives_the_bits_of_the_broadcast_product_but_a_zero_s_sign(rng):
    # the condition rows reach the op as a constant made from a zero-stride
    # broadcast, as checks.loss_check_suite passes them
    f = np.concatenate([rng.normal(size=(3, 6, 4)), np.stack([EDGE_ROWS[:, :4] / 2] * 3)], axis=1)
    probs = np.concatenate([T.stable_softmax(rng.normal(scale=40.0, size=(6, 3))),
                            [[1.0, 0.0, 0.0], [TINY, 5e-324, 1.0], [0.5, 0.5, 0.0],
                             [0.0, 1.0, 0.0], [1 / 3, 1 / 3, 1 / 3]]])
    for fv in (f, f[0]):
        pv = np.broadcast_to(probs, fv.shape[:-1] + (3,))
        g = T.Graph()
        new = T.multilinear(g.parameter(fv), g.constant(pv)).values
        ref = _multilinear_by_broadcast(fv, pv)
        # the features the model feeds in are relu outputs, so none is negative
        relu = np.maximum(fv, 0.0)
        assert (T.multilinear(g.parameter(relu), g.constant(pv)).values.tobytes()
                == _multilinear_by_broadcast(relu, pv).tobytes())
        # with a negative factor, a zero product is -0.0 in the reference and
        # +0.0 in einsum's sum; every other entry has the same bits
        differs = new.view(np.int64) != ref.view(np.int64)
        assert differs.any() and np.array_equal(new, ref)
        assert (ref[differs] == 0.0).all() and np.signbit(ref[differs]).all()
        assert not np.signbit(new[differs]).any()


@pytest.mark.parametrize("lead", [(), (3,)], ids=["rank-2", "stack"])
def test_matmul_by_one_column_gives_the_left_vjp_bits_of_the_product(rng, lead):
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, TINY, -TINY, 1e-200, -1e-200, 1e150, -1e150])
    bv = np.concatenate([rng.normal(size=lead + (4, 1)),
                         np.broadcast_to(edges[:, None], lead + (10, 1))], axis=-2)
    for grad in (rng.normal(size=lead + (5, 1)), np.tile(edges[:, None], lead + (1, 1))):
        g = T.Graph()
        T.matmul(g.parameter(np.ones(grad.shape[:-1] + (14,))), g.parameter(bv))
        ((_, vjp_a), _) = g.nodes[-1].parents
        got = vjp_a(grad)
        assert got.flags.c_contiguous
        assert got.tobytes() == _matmul_left_vjp(grad, bv).tobytes()


def _watch_vjps(g, seen, hold=lambda arr: arr):
    """Wrap every recorded vjp of graph g so that each call appends
    (parent id, hold(result)) to seen."""
    def watched(pid, vjp):
        def call(grad):
            out = vjp(grad)
            seen.append((pid, hold(out)))
            return out
        return call

    for node in g.nodes:
        node.parents = tuple((pid, watched(pid, vjp)) for pid, vjp in node.parents)


def test_shared_inputs_get_exact_private_gradients():
    # add and concat_rows pass grad through to their inputs, so a vjp that
    # returned grad itself or a view of it would let gradient buffers alias
    g = T.Graph()
    xv = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.5]])
    c1 = np.array([[1.0, 2.0], [0.5, -1.0], [4.0, 0.25]])
    c2 = np.array([[-1.0], [2.0], [0.5]])
    x = g.parameter(xv)
    s1 = T.sum_all(T.matmul(T.add(x, x), g.constant(c1)))
    s2 = T.sum_all(T.matmul(T.concat_rows(x, x), g.constant(c2)))
    s3 = T.sum_all(T.square(x))
    loss = T.add(T.add(s1, s2), s3)
    results = []
    _watch_vjps(g, results)
    g.backward(loss)
    expected = 2.0 * c1.sum(axis=1) + 2.0 * c2.sum(axis=1) + 2.0 * xv
    assert np.array_equal(x.grad, expected)
    # x's gradient is the first vjp result to reach it, which the later ones
    # were added into; no two results and no node's values share memory
    assert next(arr for pid, arr in results if pid == x.node_id) is x.grad
    for i, (_, a) in enumerate(results):
        for _, b in results[i + 1:]:
            assert not np.shares_memory(a, b)
    for node in g.nodes:
        assert not np.shares_memory(x.grad, node.values)
    first = x.grad.copy()
    g.backward(loss)
    assert x.grad.tobytes() == first.tobytes()


def test_backward_releases_every_intermediate_gradient():
    # an intermediate's adjoint is read only by its own vjps, so after the
    # sweep only the parameter leaves' gradients may still be alive
    g = T.Graph()
    x = g.constant(np.arange(12.0).reshape(4, 3) - 5.0)
    w = g.parameter(np.linspace(-1.0, 1.0, 6).reshape(3, 2))
    b = g.parameter([[0.5, -0.25]])
    loss = T.mean_all(T.square(T.relu(T.add(T.matmul(x, w), b))))
    refs = []
    _watch_vjps(g, refs, weakref.ref)
    g.backward(loss)
    assert len(refs) == 6  # mean, square, relu, add's two inputs, matmul's w
    alive = [(pid, ref()) for pid, ref in refs if ref() is not None]
    assert sorted(pid for pid, _ in alive) == [w.node_id, b.node_id]
    assert all(arr is g.grads[pid] for pid, arr in alive)


def test_backward_resets_previous_gradients():
    g = T.Graph()
    x = g.parameter([[1.0]])
    loss = T.sum_all(T.square(x))
    g.backward(loss)
    first = x.grad.copy()
    g.backward(loss)
    assert np.array_equal(x.grad, first)  # no cross-call accumulation


def test_backward_clears_every_gradient_of_the_previous_sweep():
    # a second loss that reaches fewer nodes leaves no trace of the first
    g = T.Graph()
    x = g.parameter([[1.0, -2.0]])
    w = g.parameter([[3.0], [0.5]])
    h = T.matmul(x, w)
    first = T.sum_all(T.square(h))
    second = T.sum_all(T.square(x))
    g.backward(first)
    assert h.grad is None and first.grad is None  # only parameters keep gradients
    assert w.grad.any()
    g.backward(second)
    assert h.grad is None and first.grad is None
    assert w.grad.tobytes() == np.zeros((2, 1)).tobytes()  # +0.0, not stale
    assert np.array_equal(x.grad, 2.0 * x.values)


def test_backward_requires_scalar_on_same_graph():
    g = T.Graph()
    x = g.parameter([[1.0, 2.0]])
    with pytest.raises(ContractError):
        g.backward(T.square(x))
    other = T.Graph()
    y = other.parameter([[1.0]])
    with pytest.raises(ContractError):
        g.backward(T.sum_all(y))


def test_ops_reject_mixed_graphs():
    g1, g2 = T.Graph(), T.Graph()
    a = g1.parameter([[1.0]])
    b = g2.parameter([[1.0]])
    with pytest.raises(ContractError):
        T.add(a, b)


def test_finite_diff_check_passes_on_quadratic(rng):
    w = rng.normal(size=(3, 2))
    target = rng.normal(size=(3, 2))

    def build(w):  # one loss per matrix of a stack of copies of w
        g = T.Graph()
        wt = g.parameter(w)
        return wt, T.mean_all(T.square(T.sub(wt, g.constant(np.broadcast_to(target, w.shape)))))

    wt, loss = build(w)
    loss.graph.backward(loss)
    report = T.finite_diff_check(lambda stacks: build(stacks["w"])[1].values, {"w": w},
                                 {"w": wt.grad})
    assert report.passed
    assert report.max_rel_error < 1e-9


def test_finite_diff_check_catches_corruption(rng):
    w = rng.normal(size=(2, 2))
    bad = 2.0 * w / w.size  # the analytic gradient of mean(w^2) ...
    bad[0, 0] += 0.5  # ... deliberately wrong in one entry

    report = T.finite_diff_check(lambda stacks: np.mean(stacks["w"] ** 2, axis=(-2, -1)),
                                 {"w": w}, {"w": bad})
    assert not report.passed
    assert report.worst_param == "w"
    assert report.worst_index == (0, 0)


def test_finite_diff_check_names_the_first_entry_when_every_error_is_zero():
    params = {"w": np.ones((2, 2)), "v": np.ones((1, 3))}
    zeros = {name: np.zeros_like(arr) for name, arr in params.items()}
    report = T.finite_diff_check(lambda stacks: np.zeros(len(stacks["w"])), params, zeros)
    assert report.max_rel_error == 0.0 and report.passed
    assert (report.worst_param, report.worst_index) == ("w", (0, 0))
    empty = T.finite_diff_check(lambda stacks: np.zeros(0), {}, {})
    assert (empty.max_rel_error, empty.worst_param) == (0.0, "")


def test_finite_diff_check_rejects_bad_step():
    for h in (0.0, -1e-5, np.nan, np.inf):
        with pytest.raises(ContractError, match="step"):
            T.finite_diff_check(lambda stacks: np.zeros(0), {}, {}, h=h)


def test_finite_diff_check_rejects_bad_tolerance():
    for tol in (-1.0, np.nan, np.inf):
        with pytest.raises(ContractError, match="tolerance"):
            T.finite_diff_check(lambda stacks: np.zeros(0), {}, {}, tol=tol)


def test_finite_diff_check_never_writes_params_also_when_the_loss_raises(rng):
    w = rng.normal(size=(2, 3))
    before = w.copy()
    w.flags.writeable = False  # any write to w raises

    def loss_fn(stacks):
        assert not np.shares_memory(stacks["w"], w)
        return T.Graph().parameter(stacks["w"] ** 4).values.sum(axis=(-2, -1))

    assert T.finite_diff_check(loss_fn, {"w": w}, {"w": 4.0 * w ** 3}).passed
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        T.finite_diff_check(loss_fn, {"w": w}, {"w": 4.0 * w ** 3}, h=1e300)
    assert np.array_equal(w, before)


def test_finite_diff_check_perturbs_one_entry_per_copy():
    # the entries are numbered as one flat vector, the 4 of w then the 3 of
    # v; copy 2j holds entry j at +h and copy 2j+1 at -h, and every other
    # entry of both arrays keeps its value
    params = {"w": np.arange(4.0).reshape(2, 2), "v": np.full((1, 3), 7.0)}
    seen = []

    def loss_fn(stacks):
        assert all(s.flags.c_contiguous for s in stacks.values())
        seen.append({name: s.copy() for name, s in stacks.items()})
        return np.zeros(len(stacks["w"]))

    T.finite_diff_check(loss_fn, params, {name: 0 * a for name, a in params.items()}, h=0.5)
    assert [len(call["w"]) for call in seen] == [14]  # one call for both arrays
    entries = [(name, idx) for name, arr in params.items() for idx in np.ndindex(arr.shape)]
    for j, (name, idx) in enumerate(entries):
        for copy, step in ((2 * j, 0.5), (2 * j + 1, -0.5)):
            want = {other: arr.copy() for other, arr in params.items()}
            want[name][idx] += step
            for other in params:
                assert np.array_equal(seen[0][other][copy], want[other])


def test_finite_diff_check_fails_on_a_nan_gradient():
    # a NaN error is the largest, so it fails the check and is named
    w = np.ones((2, 2))
    grad = 2.0 * w / w.size
    grad[1, 0] = np.nan
    report = T.finite_diff_check(lambda stacks: np.mean(stacks["w"] ** 2, axis=(-2, -1)),
                                 {"w": w}, {"w": grad})
    assert not report.passed
    assert (report.worst_param, report.worst_index) == ("w", (1, 0))


@pytest.mark.parametrize("grad, error, word", [
    (np.zeros((3, 3)), ShapeError, "w"),  # a larger gradient
    (np.zeros((1, 2)), ShapeError, "w"),  # a smaller one
    (None, ContractError, "w"),  # a missing one
], ids=["larger", "smaller", "missing"])
def test_finite_diff_check_refuses_gradients_that_do_not_match_params(grad, error, word):
    calls = []
    params = {"w": np.ones((2, 2))}
    grads = {} if grad is None else {"w": grad}
    with pytest.raises(error, match=word):
        T.finite_diff_check(lambda stacks: calls.append(stacks), params, grads)
    with pytest.raises(ContractError, match="'v'"):  # and one too many
        T.finite_diff_check(lambda stacks: calls.append(stacks), params,
                            {"w": np.zeros((2, 2)), "v": np.zeros((2, 2))})
    assert calls == []  # refused before any loss evaluation


@pytest.mark.parametrize("returned", [0, 3, 5])
def test_finite_diff_check_refuses_a_loss_count_other_than_the_copies(returned):
    with pytest.raises(ContractError, match=f"{returned} losses for 4 stacked copies of w"):
        T.finite_diff_check(lambda stacks: np.zeros(returned), {"w": np.ones((1, 2))},
                            {"w": np.zeros((1, 2))})


def _three_losses(stacks):
    """Per copy: sum(w^2), sum(v^3), and their sum."""
    a = (stacks["w"] ** 2).sum(axis=(-2, -1))
    b = (stacks["v"] ** 3).sum(axis=(-2, -1))
    return np.stack([a, b, a + b], axis=-1)


def _three_loss_case():
    params = {"w": np.array([[0.5, -1.0], [2.0, 0.25]]), "v": np.array([[1.0, -0.5, 3.0]])}
    dw, dv = 2.0 * params["w"], 3.0 * params["v"] ** 2
    return params, [{"w": dw}, {"v": dv}, {"w": dw, "v": dv}]


def test_a_multi_loss_call_reports_each_loss_over_its_own_arrays():
    params, grads = _three_loss_case()
    calls = []

    def loss_fn(stacks):
        calls.append(len(stacks["w"]))
        return _three_losses(stacks)

    reports = T.finite_diff_check(loss_fn, params, grads)
    assert calls == [14]  # one call, two copies per entry of w and v
    assert [sorted(r.per_param) for r in reports] == [["w"], ["v"], ["v", "w"]]
    assert all(r.passed for r in reports)
    # each report is the one-loss call on the arrays its mapping names
    alone = [T.finite_diff_check(lambda st: (st["w"] ** 2).sum(axis=(-2, -1)),
                                 {"w": params["w"]}, grads[0]),
             T.finite_diff_check(lambda st: (st["v"] ** 3).sum(axis=(-2, -1)),
                                 {"v": params["v"]}, grads[1]),
             T.finite_diff_check(lambda st: _three_losses(st)[:, 2], params, grads[2])]
    assert reports == alone and repr(reports) == repr(alone)
    assert [(r.worst_param, r.worst_index) for r in reports] == [
        (r.worst_param, r.worst_index) for r in alone]


def test_an_error_in_one_loss_s_gradient_fails_that_report_alone():
    params, grads = _three_loss_case()
    grads[1] = {"v": grads[1]["v"].copy()}
    grads[1]["v"][0, 2] += 0.5
    first, second, both = T.finite_diff_check(_three_losses, params, grads)
    assert first.passed and both.passed and not second.passed
    assert (second.worst_param, second.worst_index) == ("v", (0, 2))
    assert second.per_param["v"] == second.max_rel_error


def test_a_mapping_that_names_an_array_not_in_params_is_refused_before_any_loss():
    params, grads = _three_loss_case()
    calls = []
    with pytest.raises(ContractError, match="'u'"):
        T.finite_diff_check(lambda stacks: calls.append(stacks), params,
                            [*grads, {"u": np.zeros((1, 1))}])
    # and an array that no mapping names
    with pytest.raises(ContractError, match=re.escape("no gradient names parameters ['v']")):
        T.finite_diff_check(lambda stacks: calls.append(stacks), params, grads[:1])
    assert calls == []


@pytest.mark.parametrize("returned", [(14,), (14, 2), (14, 4)])
def test_a_multi_loss_call_refuses_another_number_of_losses(returned):
    params, grads = _three_loss_case()
    with pytest.raises(ContractError,
                       match=re.escape(f"{np.prod(returned)} losses for 14 stacked copies of "
                                       "w, v, 3 each")):
        T.finite_diff_check(lambda stacks: np.zeros(returned), params, grads)
