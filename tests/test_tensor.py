"""Autodiff core: forward values, gradients vs central differences, tape rules."""

import gc
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
    with pytest.raises(ShapeError):
        T.as_matrix(np.zeros((2, 2, 2)))


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


def test_unreached_parameters_get_zero_gradients():
    g = T.Graph()
    x = g.parameter([[1.0, 2.0]])
    lonely = g.parameter([[5.0]])
    g.backward(T.mean_all(T.square(x)))
    assert np.array_equal(lonely.grad, [[0.0]])


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


def _op_inputs(g, c_leaf=None):
    return (g.parameter([[0.1, 0.5, 0.9], [0.3, 0.6, 0.7]]),
            (c_leaf or g.constant)([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
            g.parameter(np.ones((3, 2))))


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
    recorded = OP_BUILDERS[op](*_op_inputs(T.Graph()))
    g = T.Graph(record=False)
    out = OP_BUILDERS[op](*_op_inputs(g))
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
    g.backward(loss)
    expected = 2.0 * c1.sum(axis=1) + 2.0 * c2.sum(axis=1) + 2.0 * xv
    assert np.array_equal(x.grad, expected)
    grads = [n.grad for n in g.nodes if n.grad is not None]
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)
    first = x.grad.copy()
    g.backward(loss)
    assert x.grad.tobytes() == first.tobytes()


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
    assert h.grad is not None and w.grad.any()
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

    def build():
        g = T.Graph()
        wt = g.parameter(w)
        return wt, T.mean_all(T.square(T.sub(wt, g.constant(target))))

    wt, loss = build()
    loss.graph.backward(loss)
    report = T.finite_diff_check(lambda: build()[1].item(), {"w": w}, {"w": wt.grad})
    assert report.passed
    assert report.max_rel_error < 1e-9


def test_finite_diff_check_catches_corruption(rng):
    w = rng.normal(size=(2, 2))
    bad = 2.0 * w / w.size  # the analytic gradient of mean(w^2) ...
    bad[0, 0] += 0.5  # ... deliberately wrong in one entry

    report = T.finite_diff_check(lambda: float(np.mean(w * w)), {"w": w}, {"w": bad})
    assert not report.passed
    assert report.worst_param == "w"
    assert report.worst_index == (0, 0)


def test_finite_diff_check_names_the_first_entry_when_every_error_is_zero():
    params = {"w": np.ones((2, 2)), "v": np.ones((1, 3))}
    zeros = {name: np.zeros_like(arr) for name, arr in params.items()}
    report = T.finite_diff_check(lambda: 0.0, params, zeros)
    assert report.max_rel_error == 0.0 and report.passed
    assert (report.worst_param, report.worst_index) == ("w", (0, 0))
    empty = T.finite_diff_check(lambda: 0.0, {}, {})
    assert (empty.max_rel_error, empty.worst_param) == (0.0, "")


def test_finite_diff_check_rejects_bad_step():
    for h in (0.0, -1e-5, np.nan, np.inf):
        with pytest.raises(ContractError, match="step"):
            T.finite_diff_check(lambda: 0.0, {}, {}, h=h)


def test_finite_diff_check_rejects_bad_tolerance():
    for tol in (-1.0, np.nan, np.inf):
        with pytest.raises(ContractError, match="tolerance"):
            T.finite_diff_check(lambda: 0.0, {}, {}, tol=tol)


def test_finite_diff_check_restores_the_entry_when_the_loss_raises(rng):
    w = rng.normal(size=(2, 3))
    before = w.copy()

    def loss_fn():
        return T.Graph().parameter(w * w * w * w).values.sum()

    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        T.finite_diff_check(loss_fn, {"w": w}, {"w": 4.0 * w ** 3}, h=1e300)
    assert np.array_equal(w, before)
