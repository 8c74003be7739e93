"""Network construction, forward equivalence, EMA coupling, checkpoint i/o."""

import re

import numpy as np
import pytest

from renlab import tensor as T
from renlab.exceptions import ConfigError, ContractError, ShapeError
from renlab.networks import (
    DISC_EPS,
    BoundNet,
    DualNet,
    NetSpec,
    alpha_theta_ramp,
    discriminate,
    ema_update,
    forward_fc,
    forward_fc_plain,
    init_params,
    load_paramsets,
    save_paramsets,
    stack_params,
)
from renlab.recipe import UNIT_RANGE, check_value


def test_netspec_validation():
    with pytest.raises(ConfigError):
        NetSpec((4,))
    with pytest.raises(ConfigError):
        NetSpec((4, 0))
    with pytest.raises(ConfigError, match="^widths must be an integer, got 2.5$"):
        NetSpec((3, 2.5))  # built before, and init_params then raised a bare TypeError
    with pytest.raises(ConfigError):
        NetSpec((4, 2), final="tanh")


def test_init_params_xavier_bounds_and_determinism():
    spec = NetSpec((8, 16, 3))
    ps = init_params(spec, [5, 11])
    again = init_params(spec, [5, 11])
    other = init_params(spec, [6, 11])
    for i, (fan_in, fan_out) in enumerate([(8, 16), (16, 3)]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = ps.params[f"w{i}"]
        assert np.abs(w).max() <= bound
        assert np.array_equal(ps.params[f"b{i}"], np.zeros((1, fan_out)))
        assert np.array_equal(w, again.params[f"w{i}"])
        assert not np.array_equal(w, other.params[f"w{i}"])


def test_paramset_shape_check():
    spec = NetSpec((3, 2))
    good = init_params(spec, 0)
    bad = {k: v.copy() for k, v in good.items()}
    bad["w0"] = bad["w0"].T
    from renlab.networks import ParamSet

    with pytest.raises(ShapeError):
        ParamSet(spec, bad)


def test_a_stacked_set_checks_trailing_shapes_and_its_views_see_updates():
    from renlab.networks import ParamSet

    spec = NetSpec((3, 4, 2), final="relu")
    seeds = [init_params(spec, [s, 11]) for s in range(3)]
    stack = stack_params(seeds)
    assert stack.params["w1"].shape == (3, 4, 2) and stack.params["b1"].shape == (3, 1, 2)
    x = np.random.default_rng(0).normal(size=(3, 5, 3))
    out = stack.forward_plain(x)
    for s, ps in enumerate(seeds):
        view = stack.view(s)
        assert all(np.array_equal(view.params[k], arr) for k, arr in ps.items())
        assert out[s].tobytes() == ps.forward_plain(x[s]).tobytes()
    stack.params["w0"] += 1.0  # an in-place update of the stack shows in each view
    assert np.array_equal(stack.view(1).params["w0"], seeds[1].params["w0"] + 1.0)
    for bad in ({**stack.params, "b0": np.zeros((2, 1, 4))},  # another seed count
                {k: v[None] for k, v in stack.params.items()}):  # rank 4
        with pytest.raises(ShapeError):
            ParamSet(spec, bad)
    with pytest.raises(ShapeError):
        stack.forward_plain(x[0])  # a stack reads a stack of inputs


def test_dualnet_view_shares_the_stacks_and_checkpoints_one_seed(tmp_path):
    spec = NetSpec((3, 2))
    net = DualNet(stack_params([init_params(spec, s) for s in range(2)]),
                  stack_params([init_params(spec, s + 5) for s in range(2)]), 0.5)
    view = net.view(1)
    assert view.alpha_theta == 0.5
    assert np.shares_memory(view.teacher_F.params["w0"], net.teacher_F.params["w0"])
    save_paramsets(tmp_path / "one.txt", {"teacher_F": view.teacher_F})
    back = load_paramsets(tmp_path / "one.txt")["teacher_F"]
    assert np.array_equal(back.params["w0"], net.teacher_F.params["w0"][1])
    with pytest.raises(ShapeError, match="one seed's arrays"):
        save_paramsets(tmp_path / "stack.txt", {"teacher_F": net.teacher_F})


def test_bound_and_plain_forwards_agree(rng):
    spec = NetSpec((6, 5, 4), final="relu")
    ps = init_params(spec, 42)
    x = rng.normal(size=(7, 6))
    g = T.Graph()
    bound = BoundNet(g, ps, "F")
    out = bound(g.constant(x))
    assert np.allclose(out.values, ps.forward_plain(x), atol=1e-15)
    assert (out.values >= 0).all()


def _reference_forward_plain(ps, x):
    """forward_plain as it was written before the in-place layer loop."""
    h = x
    n_layers = len(ps.spec.widths) - 1
    for i in range(n_layers):
        h = h @ ps.params[f"w{i}"] + ps.params[f"b{i}"]
        if i < n_layers - 1:
            h = np.maximum(h, 0.0)
    if ps.spec.final == "relu":
        h = np.maximum(h, 0.0)
    elif ps.spec.final == "sigmoid":
        h = T.stable_sigmoid(h)
    return h


@pytest.mark.parametrize("widths", [(6, 4), (6, 9, 5, 4)], ids=["one-layer", "three-layer"])
@pytest.mark.parametrize("final", [None, "relu", "sigmoid"])
def test_forward_plain_leaves_input_alone_and_matches_reference_bits(rng, widths, final):
    ps = init_params(NetSpec(widths, final=final), 3)
    for k, arr in ps.items():
        if k.startswith("b"):
            arr[...] = rng.normal(size=arr.shape)
    x = rng.normal(size=(11, widths[0]))
    before = x.copy()
    out = ps.forward_plain(x)
    assert x.tobytes() == before.tobytes()
    want = _reference_forward_plain(ps, before)
    assert out.dtype == want.dtype and out.shape == want.shape
    assert out.tobytes() == want.tobytes()
    assert not np.shares_memory(out, x)


def test_forward_fc_matches_plain(rng):
    ps_F = init_params(NetSpec((5, 8, 3), final="relu"), 1)
    ps_C = init_params(NetSpec((3, 4)), 2)
    x = rng.normal(size=(6, 5))
    g = T.Graph()
    bound_C = BoundNet(g, ps_C, "C")
    f, p = forward_fc(BoundNet(g, ps_F, "F"), bound_C, g.constant(x))
    logits2 = forward_fc_plain(ps_F, ps_C, x)
    assert np.allclose(f.values, ps_F.forward_plain(x), atol=1e-15)
    assert np.allclose(bound_C(f).values, logits2, atol=1e-15)
    assert np.allclose(p.values, T.stable_softmax(logits2), atol=1e-15)
    assert np.allclose(p.values.sum(axis=1), 1.0, atol=1e-12)


def test_discriminate_output_clamped(rng):
    ps_D = init_params(NetSpec((4, 8, 1), final="sigmoid"), 3)
    # huge inputs push the raw sigmoid against 0/1; the clamp must hold
    x = rng.normal(scale=1e4, size=(9, 4))
    g = T.Graph()
    out = discriminate(BoundNet(g, ps_D, "D"), g.constant(x))
    assert (out.values >= DISC_EPS).all()
    assert (out.values <= 1.0 - DISC_EPS).all()


def test_discriminate_rejects_wrong_head():
    ps = init_params(NetSpec((4, 1)), 0)  # linear head, no sigmoid
    g = T.Graph()
    with pytest.raises(ContractError):
        discriminate(BoundNet(g, ps, "D"), g.constant(np.zeros((2, 4))))


def test_dualnet_starts_as_exact_copy_and_counts_double():
    ps_F = init_params(NetSpec((6, 5, 4)), 7)
    ps_C = init_params(NetSpec((4, 3)), 8)
    net = DualNet(ps_F, ps_C)
    single = ps_F.param_count() + ps_C.param_count()
    assert net.param_count() == 2 * single
    for t_ps, s_ps in ((net.teacher_F, ps_F), (net.teacher_C, ps_C)):
        for k, arr in t_ps.items():
            assert np.array_equal(arr, s_ps.params[k])
            assert arr is not s_ps.params[k]  # a copy, not a view


def test_alpha_theta_ramp_values():
    assert alpha_theta_ramp(0) == 0.0
    assert alpha_theta_ramp(1) == 0.5
    assert alpha_theta_ramp(99) == pytest.approx(0.99)
    assert alpha_theta_ramp(10_000) == 0.99
    with pytest.raises(ContractError):
        alpha_theta_ramp(-1)


def test_ema_update_alpha_zero_copies_student():
    net = DualNet(init_params(NetSpec((3, 2)), 1), init_params(NetSpec((2, 2)), 2), 0.0)
    net.student_F.params["w0"] += 1.0
    ema_update(net)
    assert np.array_equal(net.teacher_F.params["w0"], net.student_F.params["w0"])


def test_ema_update_alpha_one_freezes_teacher():
    net = DualNet(init_params(NetSpec((3, 2)), 1), init_params(NetSpec((2, 2)), 2), 1.0)
    frozen = net.teacher_F.params["w0"].copy()
    for _ in range(5):
        net.student_F.params["w0"] += 1.0
        ema_update(net)
    assert np.array_equal(net.teacher_F.params["w0"], frozen)


def test_ema_update_validates_alpha():
    net = DualNet(init_params(NetSpec((3, 2)), 1), init_params(NetSpec((2, 2)), 2), 1.5)
    with pytest.raises(ConfigError):
        ema_update(net)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, -1.0, True, "1",
                                   np.float32("inf"), 1.5])
def test_ema_update_refuses_what_check_value_refuses_with_its_message(alpha):
    net = DualNet(init_params(NetSpec((3, 2)), 1), init_params(NetSpec((2, 2)), 2), 0.5)
    net.student_F.params["w0"] += 1.0
    teacher = net.teacher_F.params["w0"].copy()
    net.alpha_theta = alpha
    with pytest.raises(ConfigError) as want:
        check_value("alpha_theta", "float", UNIT_RANGE, alpha)
    with pytest.raises(ConfigError) as got:
        ema_update(net)
    assert str(got.value) == str(want.value)
    assert np.array_equal(net.teacher_F.params["w0"], teacher)


def test_ema_geometric_law():
    # with the student frozen, ||teacher_n - student|| shrinks as alpha^n
    for alpha in (0.0, 0.5, 0.9, 0.99, 1.0):
        net = DualNet(init_params(NetSpec((4, 3)), 10), init_params(NetSpec((3, 2)), 11), alpha)
        rng = np.random.default_rng(12)
        for ps in (net.teacher_F, net.teacher_C):
            for k in ps.params:
                ps.params[k] = ps.params[k] + rng.normal(size=ps.params[k].shape)

        def gap(n):
            total = 0.0
            for t_ps, s_ps in ((net.teacher_F, net.student_F), (net.teacher_C, net.student_C)):
                for k, arr in t_ps.items():
                    total += float(((arr - s_ps.params[k]) ** 2).sum())
            return np.sqrt(total)

        initial = gap(net)
        for n in range(1, 21):
            ema_update(net)
            if alpha == 0.0:
                assert gap(net) == 0.0
            else:
                assert abs(gap(net) / initial - alpha**n) < 1e-10


def test_paramset_roundtrip(tmp_path, rng):
    ps_a = init_params(NetSpec((5, 4, 3), final="relu"), 21)
    ps_b = init_params(NetSpec((3, 6, 1), final="sigmoid"), 22)
    ps_a.params["w0"] += rng.normal(size=ps_a.params["w0"].shape)  # non-init values
    path = tmp_path / "ckpt.txt"
    save_paramsets(path, {"F": ps_a, "D": ps_b})
    back = load_paramsets(path)
    assert set(back) == {"F", "D"}
    assert back["F"].spec == ps_a.spec
    assert back["D"].spec.final == "sigmoid"
    for k, arr in ps_a.items():
        assert np.array_equal(back["F"].params[k], arr)  # repr round trip is exact


def test_load_paramsets_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(ContractError):
        load_paramsets(path)


def small_checkpoint(path):
    save_paramsets(path, {"F": init_params(NetSpec((3, 2), final="relu"), 1),
                          "D": init_params(NetSpec((2, 2, 1), final="sigmoid"), 2)})
    return path.read_text()


def with_extra_f_tensor(text, line=None):
    """The checkpoint with one more tensor line, by default a second copy of
    w0, at the end of set F."""
    header, head, w0, b0, *rest = text.splitlines(keepends=True)
    assert head.startswith("set F 2 ")
    return "".join([header, head.replace("set F 2", "set F 3"), w0, b0, line or w0, *rest])


@pytest.mark.parametrize("corrupt, names_set", [
    (lambda t: t[:t.rstrip("\n").rfind("\n") + 1], False),  # last line lost
    (lambda t: t.replace("set F 2", "set F two"), False),
    (lambda t: t.replace("set F 2", "set F 3"), False),
    (lambda t: t.replace("set D 4 2 2 1 sigmoid", "set D 4 2 2 1 tanh"), False),
    (lambda t: t.replace("tensor w0 3 2", "tensor w0 2 3"), False),
    (lambda t: t.replace("tensor b0 1 2 0.0", "tensor b0 1 2 nan"), False),
    (lambda t: t.replace("tensor b0 1 2", "tensor b0 1", 1), False),
    (lambda t: t.replace("tensor", "weights", 1), False),
    (with_extra_f_tensor, True),  # w0, b0, w0
    (lambda t: with_extra_f_tensor(t, "tensor w1 1 1 0.5\n"), True),
    (lambda t: t + "".join(t.splitlines(keepends=True)[1:4]), True),  # F again
], ids=["missing-last-line", "word-count", "count-too-high", "bad-activation",
        "wrong-shape", "non-finite", "short-tensor-header", "unknown-line",
        "repeated-tensor", "tensor-outside-spec", "repeated-set"])
def test_load_paramsets_rejects_corrupt_files(tmp_path, corrupt, names_set):
    path = tmp_path / "ckpt.txt"
    path.write_text(corrupt(small_checkpoint(path)))
    with pytest.raises(ContractError, match="set F" if names_set else None):
        load_paramsets(path)


def test_load_paramsets_rejects_every_truncation_inside_a_set(tmp_path):
    path = tmp_path / "ckpt.txt"
    text = small_checkpoint(path)
    # a cut just before a 'set' line leaves a shorter but well-formed file
    whole_sets = {m.start() for m in re.finditer("^set ", text, re.M)}
    for cut in sorted(set(range(len(text))) - whole_sets):
        path.write_text(text[:cut])
        with pytest.raises(ContractError):
            load_paramsets(path)
