"""Network construction, forward equivalence, EMA coupling, checkpoint i/o."""

import gc
import io
import itertools
import re
import warnings
import zipfile

import numpy as np
import pytest

from renlab import tensor as T
from renlab.exceptions import ConfigError, ContractError, ShapeError
from renlab.networks import (
    DISC_EPS,
    BoundNet,
    DualNet,
    NetSpec,
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
                  stack_params([init_params(spec, s + 5) for s in range(2)]))
    view = net.view(1)
    assert np.shares_memory(view.teacher_F.params["w0"], net.teacher_F.params["w0"])
    save_paramsets(tmp_path / "one.npz", {"teacher_F": view.teacher_F})
    back = load_paramsets(tmp_path / "one.npz")["teacher_F"]
    assert np.array_equal(back.params["w0"], net.teacher_F.params["w0"][1])
    with pytest.raises(ShapeError, match="one seed's arrays"):
        save_paramsets(tmp_path / "stack.npz", {"teacher_F": net.teacher_F})


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


def test_ema_update_alpha_zero_copies_student():
    net = DualNet(init_params(NetSpec((3, 2)), 1), init_params(NetSpec((2, 2)), 2))
    net.student_F.params["w0"] += 1.0
    ema_update(net, 0.0)
    assert np.array_equal(net.teacher_F.params["w0"], net.student_F.params["w0"])


def test_ema_update_alpha_one_freezes_teacher():
    net = DualNet(init_params(NetSpec((3, 2)), 1), init_params(NetSpec((2, 2)), 2))
    frozen = net.teacher_F.params["w0"].copy()
    for _ in range(5):
        net.student_F.params["w0"] += 1.0
        ema_update(net, 1.0)
    assert np.array_equal(net.teacher_F.params["w0"], frozen)


def test_ema_update_validates_alpha():
    net = DualNet(init_params(NetSpec((3, 2)), 1), init_params(NetSpec((2, 2)), 2))
    with pytest.raises(ConfigError):
        ema_update(net, 1.5)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, -1.0, True, "1",
                                   np.float32("inf"), 1.5])
def test_ema_update_refuses_what_check_value_refuses_with_its_message(alpha):
    net = DualNet(init_params(NetSpec((3, 2)), 1), init_params(NetSpec((2, 2)), 2))
    net.student_F.params["w0"] += 1.0
    teacher = net.teacher_F.params["w0"].copy()
    with pytest.raises(ConfigError) as want:
        check_value("alpha_theta", "float", UNIT_RANGE, alpha)
    with pytest.raises(ConfigError) as got:
        ema_update(net, alpha)
    assert str(got.value) == str(want.value)
    assert np.array_equal(net.teacher_F.params["w0"], teacher)


def test_ema_geometric_law():
    # with the student frozen, ||teacher_n - student|| shrinks as alpha^n
    for alpha in (0.0, 0.5, 0.9, 0.99, 1.0):
        net = DualNet(init_params(NetSpec((4, 3)), 10), init_params(NetSpec((3, 2)), 11))
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
            ema_update(net, alpha)
            if alpha == 0.0:
                assert gap(net) == 0.0
            else:
                assert abs(gap(net) / initial - alpha**n) < 1e-10


def test_paramset_roundtrip(tmp_path, rng):
    ps_a = init_params(NetSpec((5, 4, 3), final="relu"), 21)
    ps_b = init_params(NetSpec((3, 6, 1), final="sigmoid"), 22)
    ps_a.params["w0"] += rng.normal(size=ps_a.params["w0"].shape)  # non-init values
    path = tmp_path / "ckpt.npz"
    save_paramsets(path, {"F": ps_a, "D": ps_b})
    assert same_sets(load_paramsets(path), {"F": ps_a, "D": ps_b})
    with np.load(path) as z:
        assert z.files[0] == "sets"
    save_paramsets(tmp_path / "again.npz", {"F": ps_a, "D": ps_b})
    assert (tmp_path / "again.npz").read_bytes() == path.read_bytes()


def same_sets(loaded, saved) -> bool:
    """Same set names, specs and array names in order, and arrays bit for bit."""
    return list(loaded) == list(saved) and all(
        loaded[k].spec == ps.spec and list(loaded[k].params) == list(ps.params)
        and all(a.dtype == np.float64 and a.shape == ps.params[n].shape
                and a.tobytes() == ps.params[n].tobytes() for n, a in loaded[k].items())
        for k, ps in saved.items())


def test_load_paramsets_rejects_garbage(tmp_path, no_resource_warning):
    path = tmp_path / "bad.npz"
    npy = io.BytesIO()
    np.save(npy, np.zeros((2, 2)))  # a bare .npy array is no archive
    for garbage in (b"", b"not a checkpoint\n", bytes(range(256)) * 4, npy.getvalue()):
        path.write_bytes(garbage)
        with pytest.raises(ContractError, match="corrupt checkpoint"):
            load_paramsets(path)


# three sets, one of them two layers deep: a loader that inferred layers or
# sets from the members present would load a smaller net from a damaged file
THREE_SETS = {"F": init_params(NetSpec((3, 2), final="relu"), 1),
              "C": init_params(NetSpec((2, 2)), 2),
              "D": init_params(NetSpec((4, 3, 1), final="sigmoid"), 3)}


@pytest.fixture
def no_resource_warning():
    """Fails the test if a file handle is left for the collector to close."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        yield
        gc.collect()
    assert not [w for w in seen if issubclass(w.category, ResourceWarning)]


def test_load_paramsets_rejects_every_cut(tmp_path, no_resource_warning):
    path = tmp_path / "ckpt.npz"
    save_paramsets(path, THREE_SETS)
    data = path.read_bytes()
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(ContractError):
            load_paramsets(path)


def test_load_paramsets_rejects_every_truncation_inside_a_set(tmp_path, no_resource_warning):
    # a member of a set cut short along its first axis, the widths and the
    # `sets` table too: none may load as a narrower or shallower net
    path = tmp_path / "ckpt.npz"
    save_paramsets(path, THREE_SETS)
    whole = path.read_bytes()
    with np.load(path) as z:
        members = {k: z[k] for k in z.files}
    for key, arr in members.items():
        for n in range(len(arr)):
            path.write_bytes(whole)
            rewritten(path, **{key: arr[:n]})
            with pytest.raises(ContractError, match="corrupt checkpoint"):
                load_paramsets(path)


def test_every_single_bit_flip_is_refused_or_harmless(tmp_path, no_resource_warning):
    path = tmp_path / "ckpt.npz"
    save_paramsets(path, THREE_SETS)
    data = path.read_bytes()
    outcomes = {"refused": 0, "identical": 0}
    for i, bit in itertools.product(range(len(data)), range(8)):
        flipped = bytearray(data)
        flipped[i] ^= 1 << bit
        path.write_bytes(flipped)
        try:
            loaded = load_paramsets(path)
        except ContractError:
            outcomes["refused"] += 1
            continue
        assert same_sets(loaded, THREE_SETS), f"bit {bit} of byte {i} loads other sets"
        outcomes["identical"] += 1  # a flip in a field the reader ignores
    assert outcomes["refused"] > outcomes["identical"] > 0


def test_a_damaged_header_of_a_large_member_is_refused(tmp_path, no_resource_warning):
    # zipfile checks a member's CRC-32 only at its end and reads ahead 4 KiB,
    # so numpy would parse a damaged .npy header of a 32 KiB member unchecked
    sets = {"F": init_params(NetSpec((64, 64)), 1)}
    path = tmp_path / "ckpt.npz"
    save_paramsets(path, sets)
    data = path.read_bytes()
    header = data.index(b"\x93NUMPY", data.index(b"F.w0.npy"))
    for i, bit in itertools.product(range(header, header + 128), range(8)):
        flipped = bytearray(data)
        flipped[i] ^= 1 << bit
        path.write_bytes(flipped)
        with pytest.raises(ContractError, match="bad CRC-32 for F.w0.npy"):
            load_paramsets(path)


def rewritten(path, drop=(), **members):
    """The checkpoint at ``path`` with members dropped, replaced or added."""
    with np.load(path) as z:
        kept = {k: z[k] for k in z.files if k not in drop}
    with open(path, "wb") as fh:
        np.savez(fh, **{**kept, **members})


def with_member_twice(path, key):
    with zipfile.ZipFile(path) as z:
        data = z.read(key + ".npy")
    with warnings.catch_warnings(), zipfile.ZipFile(path, "a") as z:
        warnings.simplefilter("ignore")  # zipfile warns of the duplicate name
        z.writestr(key + ".npy", data)


@pytest.mark.parametrize("corrupt, match", [
    # the 22-byte end-of-central-directory record is the file's last line
    (lambda p: p.write_bytes(p.read_bytes()[:-22]), "File is not a zip file"),
    (lambda p: rewritten(p, drop=["D.b1"]), "D.b1 is not a file in the archive"),
    (lambda p: rewritten(p, drop=["sets"]), "sets"),
    (lambda p: rewritten(p, drop=["C.widths"]), "C.widths"),
    (lambda p: rewritten(p, **{"C.w1": np.zeros((2, 2))}), r"\['C.w1'\] are missing, extra"),
    (lambda p: rewritten(p, extra=np.zeros(1)), r"\['extra'\] are missing, extra"),
    (lambda p: with_member_twice(p, "F.b0"), r"\['F.b0'\] are missing, extra or repeated"),
    (lambda p: rewritten(p, sets=np.array([["F", "relu"], ["C", "-"], ["F", "relu"]])),
     "set F appears twice"),
    (lambda p: rewritten(p, sets=np.array([["F", "relu"], ["C", "-"]])),
     r"\['D.b0', 'D.b1', 'D.w0', 'D.w1', 'D.widths'\] are missing, extra"),
    (lambda p: rewritten(p, sets=np.array([["F", "tanh"], ["C", "-"], ["D", "sigmoid"]])),
     "unknown final activation"),
    (lambda p: rewritten(p, sets=np.array([[1, 2], [3, 4], [5, 6]])), "member sets"),
    (lambda p: rewritten(p, **{"D.widths": np.array([4.0, 3.0, 1.0])}), "member D.widths"),
    (lambda p: rewritten(p, **{"D.widths": np.array([4, 3, 2])}), "ShapeError"),
    (lambda p: rewritten(p, **{"D.widths": np.array([4, 1])}), "ShapeError"),
    (lambda p: rewritten(p, **{"F.w0": np.zeros((3, 2), np.float32)}), "member F.w0"),
    (lambda p: rewritten(p, **{"F.w0": np.zeros((2, 3))}), "ShapeError"),
    (lambda p: rewritten(p, **{"F.b0": np.zeros(2)}), "member F.b0"),
    (lambda p: rewritten(p, **{"F.b0": np.array([[0.0, np.nan]])}), "member F.b0"),
    (lambda p: rewritten(p, **{"D.w1": np.full((3, 1), -np.inf)}), "member D.w1"),
], ids=["missing-last-line", "missing-array", "missing-sets", "missing-widths",
        "tensor-outside-spec", "extra-member", "repeated-tensor", "repeated-set",
        "set-left-out", "bad-activation", "sets-not-text", "float-widths", "widths-off-shape", "fewer-widths", "float32",
        "wrong-shape", "1-d-bias", "non-finite", "inf"])
def test_load_paramsets_rejects_corrupt_files(tmp_path, no_resource_warning, corrupt, match):
    path = tmp_path / "ckpt.npz"
    save_paramsets(path, THREE_SETS)
    corrupt(path)
    with pytest.raises(ContractError, match=f"corrupt checkpoint {re.escape(str(path))}: .*{match}"):
        load_paramsets(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_save_paramsets_refuses_a_non_finite_array(tmp_path, value):
    ps = init_params(NetSpec((3, 2)), 1)
    ps.params["w0"][1, 1] = value
    with pytest.raises(ContractError, match="checkpoint array F.w0 holds a non-finite value"):
        save_paramsets(tmp_path / "ckpt.npz", {"F": ps})
    assert not (tmp_path / "ckpt.npz").exists()
