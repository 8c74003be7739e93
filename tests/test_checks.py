"""The finite-difference harness: one backward pass per loss check, and the
kink scan that keeps its scenarios clear of non-smooth points."""

import math

import numpy as np
import pytest

from renlab import tensor as T
from renlab.checks import _kink_margin, loss_check_suite, run_loss_checks
from renlab.exceptions import ConfigError, ContractError
from renlab.networks import DISC_EPS


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
