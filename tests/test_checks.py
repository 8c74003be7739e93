"""The finite-difference harness: one backward pass per loss check, one
stacked forward pass per parameter array, and the kink scan that keeps its
scenarios clear of non-smooth points."""

import math

import numpy as np
import pytest

import renlab.checks
from renlab import tensor as T
from renlab.checks import KINK_MARGIN, _kink_margin, loss_check_suite, run_loss_checks
from renlab.exceptions import ConfigError, ContractError
from renlab.networks import DISC_EPS, collect_grads


@pytest.mark.parametrize("seed", [0, 3])
def test_each_check_runs_backward_once(monkeypatch, seed):
    # perturbed evaluations are forward-only: the analytic gradients of
    # each check come from exactly one backward pass
    calls = []
    real = T.Graph.backward

    def counting(self, loss):
        calls.append(loss)
        return real(self, loss)

    monkeypatch.setattr(T.Graph, "backward", counting)
    reports = run_loss_checks(seed)
    assert len(reports) == len(calls) == 5
    assert all(rep.passed for _, rep in reports)


@pytest.mark.parametrize("seed", [0, 3])
def test_perturbed_evaluations_record_no_node(monkeypatch, seed):
    # only the kink scan's tapes and one recorded tape per check build
    # nodes; the two evaluations per parameter entry build none, so the
    # count does not grow with the number of entries (hidden 6 against 9)
    built = []

    class CountingNode(T.Node):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(T, "Node", CountingNode)

    def nodes_built(fn):
        built.clear()
        fn()
        return len(built)

    beyond_scan = {}
    for hidden in (6, 9):
        checks = loss_check_suite(seed, hidden=hidden)
        scan = nodes_built(lambda: loss_check_suite(seed, hidden=hidden))
        tapes = sum(nodes_built(lambda: check.build(T.Graph())) for check in checks)
        beyond_scan[hidden] = nodes_built(lambda: run_loss_checks(seed, hidden=hidden)) - scan
        assert beyond_scan[hidden] == tapes
    assert beyond_scan[6] == beyond_scan[9]


def test_a_negative_seed_is_refused_before_any_draw():
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
        loss_check_suite(-1)


def test_fewer_than_two_classes_are_refused_before_any_draw(monkeypatch):
    # one class makes every softmax row the constant 1: checks that pass
    # because no loss can move would prove nothing
    drawn = []
    monkeypatch.setattr(renlab.checks, "init_params", lambda *args: drawn.append(args))
    for n_classes in (1, 0):
        with pytest.raises(ConfigError, match=f"^n_classes must be >= 2, got {n_classes}$"):
            loss_check_suite(0, n_classes=n_classes)
    assert not drawn


def test_kink_margin_refuses_a_forward_only_graph():
    # an empty tape would read as infinitely far from every kink and pass
    # any scenario
    g = T.Graph(record=False)
    T.relu(g.parameter([[0.0, 1.0]]))
    with pytest.raises(ContractError, match="forward-only"):
        _kink_margin(g)


def test_kink_margin_reads_relu_inputs_and_sigmoid_outputs():
    g = T.Graph()
    a = g.parameter([[1e-4, -0.5, 2.0]])
    T.relu(a)
    T.scale(a, 0.0)  # zeros off any rectifier or sigmoid do not count
    assert _kink_margin(g) == pytest.approx(1e-4, rel=1e-12)

    q = DISC_EPS + 1e-5  # a sigmoid output just above the low clamp
    out = T.sigmoid(g.parameter([[math.log(q / (1.0 - q)), 0.0]]))
    assert np.all(out.values > DISC_EPS)
    assert _kink_margin(g) == pytest.approx(1e-5, rel=1e-6)

    high = T.Graph()  # and one just below the high clamp
    T.sigmoid(high.parameter([[-math.log(q / (1.0 - q))]]))
    assert _kink_margin(high) == pytest.approx(1e-5, rel=1e-6)
    assert _kink_margin(T.Graph()) == math.inf


def _per_entry_oracle(loss_fn, params, grads, h=1e-5, tol=1e-4):
    """Reference: the oracle as it ran before perturbed copies were stacked.
    Each entry is perturbed in place, the zero-argument ``loss_fn`` re-reads
    ``params`` for each of its two losses, and the entry is restored."""
    worst, worst_param, worst_index = -1.0, "", (0, 0)
    per_param = {}
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
            rel = abs(float(analytic[idx]) - numeric) / max(abs(float(analytic[idx])),
                                                           abs(numeric), 1.0)
            if rel > local_worst:
                local_worst = rel
            if rel > worst:
                worst, worst_param, worst_index = rel, name, idx
        per_param[name] = local_worst
    return T.GradCheckReport(max(worst, 0.0), worst_param, worst_index, per_param, h, tol)


def _analytic_grads(check):
    """A check's analytic gradients, from one recorded graph."""
    g = T.Graph()
    loss, nets = check.build(g)
    g.backward(loss)
    return collect_grads(*nets)


@pytest.mark.parametrize("one_entry_per_call", [False, True], ids=["budget", "one-entry"])
def test_stacked_oracle_matches_the_per_entry_oracle_bit_for_bit(monkeypatch,
                                                                   one_entry_per_call):
    if one_entry_per_call:
        monkeypatch.setattr(T, "FD_STACK_BYTES", 1)
    for seed in (0, 1, 2):
        for check in loss_check_suite(seed):
            grads = _analytic_grads(check)
            before = {name: arr.copy() for name, arr in check.params.items()}
            sizes = []

            def loss_fn(stacks):
                sizes.append(len(stacks["F.w0"]))
                return check.build(T.Graph(record=False), stacks)[0].values

            stacked = T.finite_diff_check(loss_fn, check.params, grads)
            assert all(np.array_equal(arr, before[name]) for name, arr in check.params.items())
            reference = _per_entry_oracle(
                lambda: check.build(T.Graph(record=False))[0].item(), check.params, grads)
            assert stacked == reference and repr(stacked) == repr(reference)
            if one_entry_per_call:
                assert set(sizes) == {2}


def _counting_loss_fns(monkeypatch):
    """Wrap the oracle the checks call: one list per check, holding the
    stacked parameter bytes of each loss_fn call."""
    real = renlab.checks.finite_diff_check
    per_check = []

    def counting(loss_fn, params, grads, **kwargs):
        calls = []
        per_check.append((params, calls))

        def counted(stacks):
            assert all(a.flags.c_contiguous for a in stacks.values())
            calls.append(sum(a.nbytes for a in stacks.values()))
            return loss_fn(stacks)

        return real(counted, params, grads, **kwargs)

    monkeypatch.setattr(renlab.checks, "finite_diff_check", counting)
    return per_check


@pytest.mark.parametrize("seed", [0, 3])
def test_each_check_calls_its_loss_once(monkeypatch, seed):
    # at default sizes every perturbed copy of every array runs in one
    # stacked forward pass; a return to per-array or per-entry evaluation
    # fails here
    per_check = _counting_loss_fns(monkeypatch)
    reports = run_loss_checks(seed)
    assert len(per_check) == len(reports) == 5
    for params, calls in per_check:
        assert len(calls) == 1


def test_a_wide_scenario_keeps_each_stacked_call_within_the_byte_budget(monkeypatch):
    per_check = _counting_loss_fns(monkeypatch)
    reports = run_loss_checks(0, in_dim=128, hidden=12)
    assert all(rep.passed for _, rep in reports)
    for params, calls in per_check:
        copy_bytes = sum(a.nbytes for a in params.values())
        entries = sum(a.size for a in params.values())
        assert max(calls) <= T.FD_STACK_BYTES
        # the flat vector is cut into chunks of as many entries as fit, two
        # copies each, and every entry is perturbed once each way
        per_call = T.FD_STACK_BYTES // (2 * copy_bytes)
        assert len(calls) == -(-entries // per_call) > 1
        assert sum(calls) == 2 * entries * copy_bytes


def test_kink_margin_reads_one_margin_per_matrix_of_a_stack():
    g = T.Graph()
    T.relu(g.parameter(np.array([[[1e-4, -0.5]], [[0.3, 2.0]]])))
    assert np.array_equal(_kink_margin(g), [1e-4, 0.3])


@pytest.mark.parametrize("seed", [0, 3, 15])
def test_the_scenario_is_the_first_attempt_that_clears_the_kink_margin(monkeypatch, seed):
    # scanning KINK_STACK attempts per tape settles on the attempt that a
    # scan of one attempt per tape settles on
    monkeypatch.setattr(renlab.checks, "KINK_STACK", 1)
    one_by_one = loss_check_suite(seed)
    monkeypatch.undo()
    stacked = loss_check_suite(seed)
    for a, b in zip(one_by_one, stacked):
        assert a.params.keys() == b.params.keys()
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
    g = T.Graph()
    stacked[-1].build(g)
    assert _kink_margin(g) > KINK_MARGIN
