"""The finite-difference harness: one tape per scenario with one backward
pass per loss check, one stacked forward pass that returns every check's
loss, and the replay that keeps every perturbed copy on the tape's
branch."""

import numpy as np
import pytest

import renlab.checks
from renlab import tensor as T
from renlab.checks import loss_check_suite, replaying_losses, run_loss_checks
from renlab.exceptions import ConfigError, ContractError
from renlab.networks import collect_grads


@pytest.mark.parametrize("seed", [0, 3])
def test_each_check_runs_backward_once(monkeypatch, seed):
    # perturbed evaluations are forward-only: the analytic gradients of
    # each check come from exactly one backward pass of its own loss, and
    # all five run on the one tape that records the scenario's objective
    calls = []
    real = T.Graph.backward

    def counting(self, loss):
        calls.append((self, loss))
        return real(self, loss)

    monkeypatch.setattr(T.Graph, "backward", counting)
    reports = run_loss_checks(seed)
    assert len(reports) == len(calls) == 5
    assert len({id(g) for g, _ in calls}) == 1 and len({id(loss) for _, loss in calls}) == 5
    assert all(rep.passed for _, rep in reports)
    checks = loss_check_suite(seed)
    assert len({id(check.objective) for check in checks}) == 1
    assert [check.index for check in checks] == list(range(5))


@pytest.mark.parametrize("seed", [0, 3])
def test_perturbed_evaluations_record_no_node(monkeypatch, seed):
    # only the scenario's one recorded tape builds nodes; the stacked
    # evaluations of every parameter entry build none, so the count does
    # not grow with the number of entries (hidden 6 against 9)
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

    per_run = {}
    for hidden in (6, 9):
        objective = loss_check_suite(seed, hidden=hidden)[0].objective
        tape = nodes_built(lambda: objective(T.Graph()))
        per_run[hidden] = nodes_built(lambda: run_loss_checks(seed, hidden=hidden))
        assert per_run[hidden] == tape
    assert per_run[6] == per_run[9]


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
    """A check's analytic gradients, from a tape of its own."""
    g = T.Graph()
    loss, nets = check.build(g)
    g.backward(loss)
    return collect_grads(*nets)


def _counting_loss_fns(monkeypatch):
    """Wrap the oracle the checks call: one entry per oracle call, holding
    its parameters, its gradient mappings and the (copies, stacked
    parameter bytes) of each loss_fn call.  The wrapper also asserts that
    the oracle leaves the parameters as they were."""
    real = renlab.checks.finite_diff_check
    per_oracle = []

    def counting(loss_fn, params, grads, **kwargs):
        calls = []
        per_oracle.append((params, grads, calls))
        before = {name: arr.copy() for name, arr in params.items()}

        def counted(stacks):
            assert all(a.flags.c_contiguous for a in stacks.values())
            calls.append((len(stacks["F.w0"]), sum(a.nbytes for a in stacks.values())))
            return loss_fn(stacks)

        out = real(counted, params, grads, **kwargs)
        assert all(np.array_equal(arr, before[name]) for name, arr in params.items())
        return out

    monkeypatch.setattr(renlab.checks, "finite_diff_check", counting)
    return per_oracle


@pytest.mark.parametrize("one_entry_per_call", [False, True], ids=["budget", "one-entry"])
def test_stacked_oracle_matches_the_per_entry_oracle_bit_for_bit(monkeypatch,
                                                                   one_entry_per_call):
    # the shared tape's gradients, the one union pass and each check's
    # report over its own arrays give what a per-entry oracle gives on each
    # check's own tape: the same replay, one rank-2 pass per perturbed entry
    if one_entry_per_call:
        monkeypatch.setattr(T, "FD_STACK_BYTES", 1)
    per_oracle = _counting_loss_fns(monkeypatch)
    for seed in (0, 1, 2):
        stacked = run_loss_checks(seed)
        checks = loss_check_suite(seed)
        tape = T.Graph()
        checks[0].objective(tape)
        replaying = replaying_losses(checks[0].objective, tape.selections)
        every = checks[-1].params  # the total reads every net
        for check, (name, report) in zip(checks, stacked):
            reference = _per_entry_oracle(lambda: replaying(every)[0, check.index].item(),
                                          check.params, _analytic_grads(check))
            assert name == check.name
            assert report == reference and repr(report) == repr(reference)
    if one_entry_per_call:
        assert {k for _, _, calls in per_oracle for k, _ in calls} == {2}


@pytest.mark.parametrize("seed", [0, 3])
def test_each_check_calls_its_loss_once(monkeypatch, seed):
    # at default sizes every perturbed copy of every F, C and D entry runs
    # in one stacked forward pass, which returns all five losses per copy;
    # a return to per-check, per-array or per-entry evaluation fails here
    per_oracle = _counting_loss_fns(monkeypatch)
    reports = run_loss_checks(seed)
    checks = loss_check_suite(seed)
    ((params, grads, calls),) = per_oracle
    assert len(calls) == 1
    assert list(params) == list(checks[-1].params)
    assert [list(mapping) for mapping in grads] == [list(check.params) for check in checks]
    assert [name for name, _ in reports] == [check.name for check in checks]


def test_a_wide_scenario_keeps_each_stacked_call_within_the_byte_budget(monkeypatch):
    per_oracle = _counting_loss_fns(monkeypatch)
    reports = run_loss_checks(0, in_dim=128, hidden=12)
    assert all(rep.passed for _, rep in reports)
    ((params, _, calls),) = per_oracle
    copy_bytes = sum(a.nbytes for a in params.values())
    entries = sum(a.size for a in params.values())
    assert max(nbytes for _, nbytes in calls) <= T.FD_STACK_BYTES
    # the flat vector of the union of entries is cut into chunks of as many
    # entries as fit, two copies each, and every entry is perturbed once
    # each way
    per_call = T.FD_STACK_BYTES // (2 * copy_bytes)
    assert len(calls) == -(-entries // per_call) > 1
    assert sum(nbytes for _, nbytes in calls) == 2 * entries * copy_bytes


def _report(check, loss_fn):
    """``check``'s finite-difference report with ``loss_fn`` as its oracle."""
    return T.finite_diff_check(loss_fn, check.params, _analytic_grads(check))


def test_a_scenario_on_the_kink_passes_on_its_own_branch(monkeypatch):
    # an all-zero input row meets zero-initialized biases, so every
    # rectifier of that row, in F and in D, sits exactly on its kink: the
    # plain forward pass reads half-slopes at the biases, the replay the
    # vjp's branch
    real = renlab.checks.forward_fc_plain

    def zero_first_row(ps_F, ps_C, x):
        x[0] = 0.0  # the scenario's own input rows, before anything reads them
        return real(ps_F, ps_C, x)

    monkeypatch.setattr(renlab.checks, "forward_fc_plain", zero_first_row)
    check = loss_check_suite(0)[-1]  # the total reads every net
    g = T.Graph()
    check.build(g)
    first_relu = next(node for node in g.nodes if node.op == "relu")
    assert not g.nodes[first_relu.parents[0][0]].values[0].any()
    assert all(rep.passed for _, rep in run_loss_checks(0))
    plain = _report(check, lambda stacks: check.build(T.Graph(record=False), stacks)[0].values)
    assert {"F.b0", "F.b1", "F.b2", "D.b0"} == {name for name, err in plain.per_param.items()
                                                if err > plain.tol}


TRAINED_WIDTHS = {"in_dim": 16, "hidden": 64, "feature_dim": 16, "n_classes": 2, "batch": 8}


@pytest.mark.parametrize("widths", [{}, TRAINED_WIDTHS], ids=["default", "trained"])
@pytest.mark.parametrize("wrong", [lambda vjp: (lambda grad: grad.copy()),
                                   lambda vjp: (lambda grad: 1.001 * vjp(grad))],
                         ids=["mask-dropped", "scaled-1.001"])
def test_a_wrong_relu_vjp_fails_the_total_check(monkeypatch, widths, wrong):
    # the replay holds the perturbed copies on the tape's branch, so it must
    # not also hide a vjp that is wrong on that branch
    real = T._unary

    def corrupt(op, x, out, vjp):
        return real(op, x, out, wrong(vjp) if op == "relu" else vjp)

    assert dict(run_loss_checks(0, **widths))["total"].passed
    monkeypatch.setattr(T, "_unary", corrupt)
    assert not dict(run_loss_checks(0, **widths))["total"].passed


def test_a_replay_that_ends_early_is_refused():
    def objective(g, arrays=None):
        w = g.parameter(np.ones((1, 1)) if arrays is None else arrays["w"])
        return ((T.relu(w) if arrays is None else w),), {}

    tape = T.Graph()
    objective(tape)
    loss_fn = replaying_losses(objective, tape.selections)
    with pytest.raises(ContractError,
                       match="^the objective replayed 0 of 1 recorded selections$"):
        loss_fn({"w": np.ones((2, 1, 1))})
