"""The finite-difference harness: one backward pass per loss check, and the
kink scan that keeps its scenarios clear of non-smooth points."""

import math

import numpy as np
import pytest

from renlab import tensor as T
from renlab.checks import _kink_margin, run_loss_checks
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
