"""Loss terms: reference values, gradient routes, weighting identities."""

import numpy as np
import pytest

from renlab import tensor as T
from renlab.exceptions import ConfigError, ContractError
from renlab.losses import (
    adv_student,
    adv_teacher,
    consistency,
    cross_entropy,
    domain_adv_loss,
    total_loss,
)
from renlab.networks import (BoundNet, NetSpec, ParamSet, collect_grads, discriminate,
                             init_params)
from renlab.recipe import WEIGHT_RANGE, check_value

from conftest import numeric_grad, rel_err


def _zero_disc(g, in_width, hidden=4):
    """Discriminator with all-zero weights: outputs exactly 0.5 everywhere."""
    spec = NetSpec((in_width, hidden, 1), final="sigmoid")
    zeros = {}
    for i, (a, b) in enumerate([(in_width, hidden), (hidden, 1)]):
        zeros[f"w{i}"] = np.zeros((a, b))
        zeros[f"b{i}"] = np.zeros((1, b))
    return BoundNet(g, ParamSet(spec, zeros), "D")


def test_cross_entropy_reference_values():
    g = T.Graph()
    perfect = g.constant([[0.0, 1.0, 0.0, 0.0]])
    assert cross_entropy(perfect, [1]).item() == pytest.approx(0.0, abs=1e-9)

    g = T.Graph()
    uniform = g.constant(np.full((1, 4), 0.25))
    assert cross_entropy(uniform, [2]).item() == pytest.approx(np.log(4.0), rel=1e-12)

    g = T.Graph()
    both = g.constant([[1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
    got = cross_entropy(both, [0, 3]).item()
    assert got == pytest.approx(np.log(4.0) / 2.0, rel=1e-9)


def test_cross_entropy_label_range():
    g = T.Graph()
    p = g.constant([[0.5, 0.5]])
    with pytest.raises(ContractError):
        cross_entropy(p, [2])


def test_cross_entropy_floor_keeps_loss_finite():
    g = T.Graph()
    p = g.constant([[1.0, 0.0]])
    loss = cross_entropy(p, [1]).item()  # -log(1e-12), not inf
    assert loss == pytest.approx(-np.log(1e-12), rel=1e-9)


def test_domain_adv_loss_indifferent_discriminator():
    g = T.Graph()
    d = _zero_disc(g, 6)
    h = g.constant(np.ones((3 + 5, 6)))
    loss = domain_adv_loss(d, h, 3, 1.0)
    assert loss.item() == pytest.approx(2.0 * np.log(2.0), rel=1e-12)


def test_domain_adv_loss_rejects_empty_batch():
    g = T.Graph()
    d = _zero_disc(g, 4)
    h = g.constant(np.ones((2, 4)))
    with pytest.raises(ContractError):
        domain_adv_loss(d, h, 0, 1.0)  # no source rows
    with pytest.raises(ContractError):
        domain_adv_loss(d, h, 2, 1.0)  # no target rows
    with pytest.raises(ContractError):
        domain_adv_loss(d, g.constant(np.empty((0, 4))), 0, 1.0)


def _adv_scene(seed, reverse, lam):
    """One conditioned adversarial loss over a small F and D; returns grads."""
    rng = np.random.default_rng(seed)
    ps_F = init_params(NetSpec((5, 6, 4), final="relu"), [seed, 1])
    ps_D = init_params(NetSpec((4 * 3, 6, 1), final="sigmoid"), [seed, 2])
    xs = rng.normal(size=(4, 5))
    xt = rng.normal(size=(4, 5))
    raw = rng.random((8, 3))
    cond = raw / raw.sum(axis=1, keepdims=True)

    g = T.Graph()
    F = BoundNet(g, ps_F, "F")
    D = BoundNet(g, ps_D, "D")
    f_all = F(g.constant(np.vstack([xs, xt])))
    loss = adv_student(D, f_all, cond, 4, lam, reverse=reverse)
    g.backward(loss)
    return loss.item(), F.grads(), D.grads()


def test_grl_scales_and_negates_feature_gradients_only():
    lam = 0.7
    _, f_plain, d_plain = _adv_scene(3, reverse=False, lam=lam)
    _, f_rev, d_rev = _adv_scene(3, reverse=True, lam=lam)
    for k in f_plain:
        assert np.allclose(f_rev[k], -lam * f_plain[k], atol=1e-14), k
    for k in d_plain:
        assert np.allclose(d_rev[k], d_plain[k], atol=1e-14), k  # D unaffected


def test_grl_lambda_zero_blocks_feature_gradients():
    _, f_grads, d_grads = _adv_scene(5, reverse=True, lam=0.0)
    assert all(np.all(arr == 0.0) for arr in f_grads.values())
    assert any(np.any(arr != 0.0) for arr in d_grads.values())


def test_adv_losses_match_finite_differences():
    # one conditioned term under two names; reverse=False so the scalar
    # objective is the one the gradients minimize
    assert adv_teacher is adv_student
    rng = np.random.default_rng(11)
    ps_F = init_params(NetSpec((5, 6, 4), final="relu"), 31)
    ps_D = init_params(NetSpec((4 * 3, 6, 1), final="sigmoid"), 32)
    xs = rng.normal(size=(4, 5))
    xt = rng.normal(size=(4, 5))
    raw = rng.random((8, 3))
    cond = raw / raw.sum(axis=1, keepdims=True)

    def run(loss_only):
        g = T.Graph()
        F = BoundNet(g, ps_F, "F")
        D = BoundNet(g, ps_D, "D")
        loss = adv_teacher(D, F(g.constant(np.vstack([xs, xt]))), cond, 4, 1.0,
                           reverse=False)
        if loss_only:
            return loss.item()
        g.backward(loss)
        return {**{f"F.{k}": v for k, v in F.grads().items()},
                **{f"D.{k}": v for k, v in D.grads().items()}}

    grads = run(False)
    for prefix, ps in (("F", ps_F), ("D", ps_D)):
        for k, arr in ps.items():
            num = numeric_grad(lambda: run(True), arr)
            assert rel_err(grads[f"{prefix}.{k}"], num) < 1e-6, f"{prefix}.{k}"


def _two_pass_adv(D, f_src, f_tgt, cond_src, cond_tgt, lam, reverse):
    """The adversarial term as separate source and target discriminator
    passes, each with its own condition constant, multilinear and reversal."""
    g = f_src.graph
    h_src = T.multilinear(f_src, g.constant(cond_src))
    h_tgt = T.multilinear(f_tgt, g.constant(cond_tgt))
    if reverse:
        h_src = T.grad_reverse(h_src, lam)
        h_tgt = T.grad_reverse(h_tgt, lam)
    loss_src = T.neg(T.mean_all(T.log(discriminate(D, h_src))))
    loss_tgt = T.neg(T.mean_all(T.log(T.rsub_const(1.0, discriminate(D, h_tgt)))))
    return T.add(loss_src, loss_tgt)


@pytest.mark.parametrize("term", [adv_student, adv_teacher], ids=["student", "teacher"])
@pytest.mark.parametrize("reverse", [True, False], ids=["reverse", "plain"])
def test_stacked_adv_matches_two_pass_reference(term, reverse):
    lam, n_src, n_tgt = 0.6, 5, 3  # unequal domains, so a misplaced split shows
    for seed in range(4):
        rng = np.random.default_rng([seed, 7])
        ps_F = init_params(NetSpec((5, 6, 4), final="relu"), [seed, 1])
        ps_D = init_params(NetSpec((4 * 3, 6, 1), final="sigmoid"), [seed, 2])
        for ps in (ps_F, ps_D):  # non-zero biases, so no unit sits on its kink
            for k, arr in ps.items():
                if k.startswith("b"):
                    arr += rng.normal(scale=0.1, size=arr.shape)
        xs = rng.normal(size=(n_src, 5))
        xt = rng.normal(size=(n_tgt, 5))
        raw = rng.random((n_src + n_tgt, 3))
        cond = raw / raw.sum(axis=1, keepdims=True)

        g = T.Graph()
        F, D = BoundNet(g, ps_F, "F"), BoundNet(g, ps_D, "D")
        stacked = term(D, F(g.constant(np.vstack([xs, xt]))), cond, n_src, lam,
                       reverse=reverse)
        g.backward(stacked)
        got = collect_grads(F, D)

        g = T.Graph()
        F, D = BoundNet(g, ps_F, "F"), BoundNet(g, ps_D, "D")
        ref = _two_pass_adv(D, F(g.constant(xs)), F(g.constant(xt)),
                            cond[:n_src], cond[n_src:], lam, reverse)
        g.backward(ref)
        want = collect_grads(F, D)

        assert abs(stacked.item() - ref.item()) <= 1e-12
        assert list(got) == list(want)
        for k, arr in want.items():
            assert np.abs(arr).max() > 0.0, k
            assert np.abs(got[k] - arr).max() <= 1e-10 * np.abs(arr).max(), k


def test_consistency_reference_values():
    g = T.Graph()
    p = g.constant([[0.3, 0.7], [0.5, 0.5]])
    same = consistency(p, np.array([[0.3, 0.7], [0.5, 0.5]]))
    assert same.item() == pytest.approx(0.0, abs=1e-15)

    g = T.Graph()
    p = g.constant([[1.0, 0.0]])
    far = consistency(p, np.array([[0.0, 1.0]]))
    assert far.item() == pytest.approx(2.0, rel=1e-12)


def test_consistency_value_symmetry(rng):
    a = rng.random((4, 3))
    a /= a.sum(axis=1, keepdims=True)
    b = rng.random((4, 3))
    b /= b.sum(axis=1, keepdims=True)
    g = T.Graph()
    ab = consistency(g.constant(a), b).item()
    g = T.Graph()
    ba = consistency(g.constant(b), a).item()
    assert ab == pytest.approx(ba, rel=1e-12)
    assert ab >= 0.0


def test_consistency_shape_mismatch():
    g = T.Graph()
    with pytest.raises(ContractError):
        consistency(g.constant(np.zeros((2, 3))), np.zeros((3, 3)))


def test_consistency_gradient_flows_to_student_only(rng):
    pv = rng.random((3, 2))
    pv /= pv.sum(axis=1, keepdims=True)
    tea = rng.random((3, 2))
    tea /= tea.sum(axis=1, keepdims=True)

    def run(loss_only):
        g = T.Graph()
        p = g.parameter(pv)
        loss = consistency(p, tea)
        if loss_only:
            return loss.item()
        g.backward(loss)
        return p.grad

    assert rel_err(run(False), numeric_grad(lambda: run(True), pv)) < 1e-8


def test_total_loss_zero_weights_reduce_to_classification():
    g = T.Graph()
    l_c = T.mean_all(g.parameter([[1.5]]))
    stub = T.mean_all(g.constant([[9.0]]))
    total, (parts,) = total_loss(l_c, stub, stub, stub, 0.0, 0.0, 0.0)
    assert total.item() == pytest.approx(1.5, rel=1e-15)
    assert abs(parts.total - parts.l_c) <= 1e-10  # every weight is 0


def test_total_loss_arithmetic_and_breakdown():
    g = T.Graph()
    mk = lambda v: T.mean_all(g.constant([[v]]))
    total, (parts,) = total_loss(mk(1.0), mk(0.5), mk(0.5), mk(0.2), 1.0, 1.0, 1.0)
    assert total.item() == pytest.approx(2.2, rel=1e-12)
    assert abs(parts.total - (parts.l_c + parts.l_d_stu + parts.l_d_tea + parts.l_con)) <= 1e-10
    assert (parts.l_c, parts.l_d_stu, parts.l_d_tea, parts.l_con) == (1.0, 0.5, 0.5, 0.2)


def test_total_loss_inactive_terms_are_zero_in_breakdown():
    g = T.Graph()
    l_c = T.mean_all(g.constant([[0.7]]))
    total, (parts,) = total_loss(l_c, None, None, None, 1.0, 1.0, 1.0)
    assert total.item() == pytest.approx(0.7)
    assert parts.l_d_stu == parts.l_d_tea == parts.l_con == 0.0
    assert abs(parts.total - (parts.l_c + parts.l_d_stu + parts.l_d_tea + parts.l_con)) <= 1e-10


def test_total_loss_gives_one_breakdown_per_seed():
    g = T.Graph()
    mk = lambda *v: T.mean_all(g.constant(np.reshape(v, (len(v), 1, 1))))
    total, parts = total_loss(mk(1.0, 2.0), mk(0.5, 0.25), None, mk(0.2, 0.4), 1.0, 1.0, 2.0)
    assert total.shape == (2, 1, 1)
    assert [(p.l_c, p.l_d_stu, p.l_d_tea, p.l_con, p.total) for p in parts] == [
        (1.0, 0.5, 0.0, 0.2, 1.0 + 0.5 + 2.0 * 0.2), (2.0, 0.25, 0.0, 0.4, 2.0 + 0.25 + 2.0 * 0.4)]


def test_total_loss_rejects_negative_weights():
    g = T.Graph()
    l_c = T.mean_all(g.constant([[1.0]]))
    with pytest.raises(ConfigError):
        total_loss(l_c, None, None, None, -0.1, 1.0, 1.0)


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, -1.0, True, "1",
                                    np.float32("inf")])
@pytest.mark.parametrize("at, name", [(0, "lambda_stu"), (1, "lambda_tea"), (2, "gamma")])
def test_total_loss_refuses_what_check_value_refuses_with_its_message(weight, at, name):
    l_c = T.mean_all(T.Graph().constant([[1.0]]))
    weights = [1.0, 1.0, 1.0]
    weights[at] = weight
    with pytest.raises(ConfigError) as want:
        check_value(name, "float", WEIGHT_RANGE, weight)
    with pytest.raises(ConfigError) as got:
        total_loss(l_c, None, None, None, *weights)
    assert str(got.value) == str(want.value)


def test_total_loss_takes_every_weight_check_value_takes():
    l_c = T.mean_all(T.Graph().constant([[1.0]]))
    for w in (0.0, -0.0, 1e308, 3, np.float64(0.5), np.float32(2.0)):
        check_value("gamma", "float", WEIGHT_RANGE, w)
        total_loss(l_c, None, None, None, w, w, w)


@pytest.mark.parametrize("meta, value, message", [
    ({"ge": 0, "le": 1}, 1.5, "a must be >= 0 and <= 1, got 1.5"),
    ({"ge": 0, "le": 0.5}, 0.75, "a must be >= 0 and <= 0.5, got 0.75"),
    ({"le": 1, "gt": 0}, 0.0, "a must be > 0 and <= 1, got 0.0"),
    ({"ge": 0}, float("nan"), "a must be finite, got nan"),
    ({"ge": 0}, True, "a must be a number, got True"),
])
def test_check_value_reads_every_bound_from_the_meta_it_is_given(meta, value, message):
    check_value("a", "float", {"ge": 0, "le": 1}, 0.75)  # builds the cached "float" parts first
    with pytest.raises(ConfigError) as got:
        check_value("a", "float", meta, value)
    assert str(got.value) == message
