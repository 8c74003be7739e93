"""Multilinear conditioning map and per-sample prediction smoothing."""

import numpy as np
import pytest

from renlab import tensor as T
from renlab.conditioning import PredEmaState, pred_ema
from renlab.exceptions import ConfigError, ContractError, ShapeError


def known_ids(state: PredEmaState, below: int = 2048) -> list[int]:
    """The ids below ``below`` that hold a row, probed through ``state.row``,
    which raises ContractError for an id it does not hold."""
    held = []
    for sid in range(below):
        try:
            state.row(sid)
        except ContractError:
            continue
        held.append(sid)
    return held


def test_multilinear_batch_mismatch():
    g = T.Graph()
    with pytest.raises(ShapeError):
        T.multilinear(g.constant(np.zeros((3, 2))), g.constant(np.zeros((4, 2))))


def test_multilinear_gradient_one_hot_selects_block(rng):
    # with a one-hot condition, the gradient w.r.t. f picks out exactly the
    # loss weights of the selected column block: loss = sum(out * w) has
    # d/df[j] = w[j*c + k_hot]
    fv = rng.normal(size=(1, 4))
    pv = np.array([[0.0, 1.0, 0.0]])
    w = np.arange(12, dtype=np.float64).reshape(1, 12)
    g = T.Graph()
    f = g.parameter(fv)
    out = T.multilinear(f, g.constant(pv))
    g.backward(T.sum_all(T.matmul(out, g.constant(w.T))))
    assert np.allclose(f.grad, w[0, 1::3].reshape(1, 4), atol=1e-12)


def test_pred_ema_state_validation():
    with pytest.raises(ConfigError):
        PredEmaState(-0.1, 2)
    with pytest.raises(ConfigError):
        PredEmaState(1.1, 2)
    with pytest.raises(ConfigError):
        PredEmaState(0.5, 0)


@pytest.mark.parametrize("n_classes", [2.5, "3", True])
def test_pred_ema_state_refuses_a_class_count_that_is_not_an_integer(n_classes):
    with pytest.raises(ConfigError, match="^n_classes must be "):
        PredEmaState(0.5, n_classes)


def test_pred_ema_first_visit_stores_exactly():
    state = PredEmaState(0.3, 2)
    p = np.array([[0.25, 0.75], [0.9, 0.1]])
    out = pred_ema(state, [4, 9], p)
    assert np.array_equal(out, p)
    assert known_ids(state) == [4, 9]


def test_pred_ema_blend_arithmetic():
    state = PredEmaState(0.5, 2)
    pred_ema(state, [0], np.array([[1.0, 0.0]]))
    out = pred_ema(state, [0], np.array([[0.0, 1.0]]))
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)


def test_pred_ema_constant_input_is_fixed_point():
    state = PredEmaState(0.6, 3)
    p = np.array([[0.2, 0.5, 0.3]])
    for _ in range(50):
        out = pred_ema(state, [7], p)
    assert np.allclose(out, p, atol=1e-12)


def test_pred_ema_alpha_one_is_identity(rng):
    state = PredEmaState(1.0, 4)
    for _ in range(20):
        raw = rng.random((6, 4))
        p = raw / raw.sum(axis=1, keepdims=True)
        out = pred_ema(state, np.arange(6), p)
        assert np.array_equal(out, p)


def test_pred_ema_rows_stay_probability_vectors(rng):
    state = PredEmaState(0.6, 3)
    for step in range(1000):
        ids = rng.choice(40, size=5, replace=False)
        raw = rng.random((5, 3))
        p = raw / raw.sum(axis=1, keepdims=True)
        out = pred_ema(state, ids, p)
        assert out.min() >= 0.0
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-9
    for sid in known_ids(state):
        assert abs(state.row(sid).sum() - 1.0) <= 1e-9


def test_pred_ema_input_validation():
    state = PredEmaState(0.5, 2)
    with pytest.raises(ShapeError):
        pred_ema(state, [0, 1], np.array([[0.5, 0.5]]))
    with pytest.raises(ContractError):
        pred_ema(state, [0], np.array([[0.9, 0.3]]))  # sums to 1.2
    with pytest.raises(ContractError):
        pred_ema(state, [0], np.array([[-0.2, 1.2]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pred_ema_rejects_a_non_finite_batch_before_any_row_changes(bad):
    state = PredEmaState(0.6, 2)
    pred_ema(state, [1], np.array([[0.25, 0.75]]))
    with pytest.raises(ContractError, match="NaN or infinity"):
        pred_ema(state, [0, 1], np.array([[bad, bad], [0.5, 0.5]]))
    with pytest.raises(ContractError, match="no prediction stored for sample 0"):
        state.row(0)
    assert np.array_equal(state.row(1), [0.25, 0.75])


def test_pred_ema_output_is_detached():
    state = PredEmaState(0.5, 2)
    out = pred_ema(state, [0], np.array([[0.5, 0.5]]))
    assert isinstance(out, np.ndarray)
    out[0, 0] = 99.0  # mutating the return must not corrupt the store
    assert state.row(0)[0] == 0.5


@pytest.mark.parametrize("ids", [[1.7], [-1]], ids=["fractional", "negative"])
def test_pred_ema_rejects_bad_ids_before_any_change(ids):
    state = PredEmaState(0.5, 2)
    pred_ema(state, [1], np.array([[1.0, 0.0]]))
    with pytest.raises(ContractError):
        pred_ema(state, ids, np.array([[0.0, 1.0]]))
    assert known_ids(state) == [1]
    assert np.array_equal(state.row(1), [1.0, 0.0])


def test_pred_ema_rejects_a_repeated_id_before_any_change():
    state = PredEmaState(0.5, 2)
    pred_ema(state, [1], np.array([[1.0, 0.0]]))
    with pytest.raises(ContractError, match="sample id 1 "):
        pred_ema(state, [5, 1, 1], np.array([[0.0, 1.0]] * 3))
    assert known_ids(state) == [1]
    assert np.array_equal(state.row(1), [1.0, 0.0])


def test_pred_ema_row_of_unknown_id_raises():
    state = PredEmaState(0.5, 2)
    pred_ema(state, [3], np.array([[1.0, 0.0]]))
    for sid in (0, 2, 4, 1000):
        with pytest.raises(ContractError):
            state.row(sid)


def _reference_pred_ema(store: dict, alpha_p: float, ids, p_n: np.ndarray) -> np.ndarray:
    """The row-by-row dict loop the dense store must reproduce bit for bit."""
    out = np.empty_like(p_n)
    for i, sid in enumerate(ids):
        prev = store.get(int(sid))
        row = p_n[i].copy() if prev is None else (1.0 - alpha_p) * prev + alpha_p * p_n[i]
        store[int(sid)] = row
        out[i] = row
    return out


def test_pred_ema_matches_dict_loop_bit_for_bit(rng):
    alpha_p, c = 0.6, 4
    state = PredEmaState(alpha_p, c)
    ref = {}
    high = 8  # the id range widens, so calls keep landing beyond the capacity
    for call in range(500):
        m = min(int(rng.integers(1, 12)), high)
        ids = rng.choice(high, size=m, replace=False)  # unsorted, distinct
        high += int(rng.integers(0, 3))
        raw = rng.random((m, c))
        p = raw / raw.sum(axis=1, keepdims=True)
        out = pred_ema(state, ids, p)
        expected = _reference_pred_ema(ref, alpha_p, ids, p)
        assert out.tobytes() == expected.tobytes()
    assert known_ids(state) == sorted(ref)
    for sid, row in ref.items():
        assert state.row(sid).tobytes() == row.tobytes()


def test_pred_ema_one_call_on_stacked_ids_matches_two_calls(rng):
    # the trainer blends source and target rows in one call per branch; with
    # distinct ids that must store and return the same bits as one call per
    # domain
    alpha_p, c, n_source = 0.6, 3, 40
    stacked, split = PredEmaState(alpha_p, c), PredEmaState(alpha_p, c)
    for step in range(120):
        m_s, m_t = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        src = rng.permutation(n_source)[:m_s]
        tgt = n_source + rng.permutation(50)[:m_t]  # target ids come after source
        raw = rng.random((m_s + m_t, c))
        p = raw / raw.sum(axis=1, keepdims=True)
        out = pred_ema(stacked, np.concatenate([src, tgt]), p)
        want = np.vstack([pred_ema(split, src, p[:m_s]), pred_ema(split, tgt, p[m_s:])])
        assert out.tobytes() == want.tobytes()
    assert known_ids(stacked) == known_ids(split)
    for sid in known_ids(split):
        assert stacked.row(sid).tobytes() == split.row(sid).tobytes()
    # a seed stack: seed s's ids offset by the samples of the seeds before it
    # in one state must store and return the bits of one state per seed
    sizes = [90, 140, 100]
    first_ids = np.cumsum([0] + sizes)
    one, apart = PredEmaState(alpha_p, c), [PredEmaState(alpha_p, c) for _ in sizes]
    for _ in range(120):
        m = int(rng.integers(1, 9))
        ids = [rng.permutation(size)[:m] for size in sizes]
        raw = rng.random((len(sizes), m, c))
        p = raw / raw.sum(axis=2, keepdims=True)
        out = pred_ema(one, np.concatenate([f + i for f, i in zip(first_ids, ids)]),
                       p.reshape(-1, c))
        want = np.vstack([pred_ema(st, i, rows) for st, i, rows in zip(apart, ids, p)])
        assert out.tobytes() == want.tobytes()
    held = [known_ids(st) for st in apart]
    assert known_ids(one) == [f + sid for f, h in zip(first_ids, held) for sid in h]
    for f, st, h in zip(first_ids, apart, held):
        for sid in h:
            assert one.row(f + sid).tobytes() == st.row(sid).tobytes()
