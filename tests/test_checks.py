"""The finite-difference harness: one backward pass per loss check."""

import pytest

from renlab import tensor as T
from renlab.checks import run_loss_checks


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
