"""Config parsing, schedules, SGD momentum, variant wiring, determinism."""

import gc
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from renlab import checks, trainer
from renlab.checks import loss_check_suite
from renlab.datasets import DataSpec, batch_stream, make_domain_dataset, standard_benchmark
from renlab.evaluation import EVAL_ROWS, metrics_to_csv
from renlab.exceptions import ConfigError, ContractError, NonFiniteError, ShapeError
from renlab.networks import BoundNet, NetSpec, forward_fc, init_params, stack_params
from renlab.tensor import Graph, stable_softmax
from renlab.trainer import (OptimizerState, TrainConfig, Trainer,
                            ablation_accuracies, alpha_theta_ramp, eval_steps,
                            gamma_factor, grl_lambda, load_config, lr_schedule,
                            parse_config_text, parse_config_value, run_ablation,
                            sgd_momentum_step)


def small_ds(seed=1):
    return standard_benchmark(seed, n=100, n_target=100)


# ---------------------------------------------------------------------------
# configuration


def test_parse_config_text_skips_blank_and_comment_lines():
    got = parse_config_text("eta0 = 0.02\n# note\n\nvariant = cdan\ngrl_ramp = off\n")
    assert got == {"eta0": 0.02, "variant": "cdan", "grl_ramp": False}


def test_parse_config_rejects_unknown_key_by_name():
    with pytest.raises(ConfigError, match="nonsense"):
        parse_config_value("nonsense", "1")


def test_parse_config_value_conversions():
    assert parse_config_value("total_steps", " 40 ") == 40
    assert parse_config_value("alpha_theta", "ramp") == "ramp"
    assert parse_config_value("alpha_theta", "0.5") == 0.5
    assert parse_config_value("gamma_ramp", "on") is True
    for key, raw in (("total_steps", "x"), ("eta0", "fast"),
                     ("grl_ramp", "yes"), ("alpha_theta", "soon")):
        with pytest.raises(ConfigError):
            parse_config_value(key, raw)


@pytest.mark.parametrize("key, raw, words", [
    ("total_steps", "2.5", "an integer"), ("seed", "1.5", "an integer"),
    ("eta0", "fast", "a number"), ("alpha_theta", "soon", "a number or 'ramp'"),
    ("grl_ramp", "yes", "on or off"), ("variant", "warp", "'source_only' or 'cdan'"),
])
def test_a_parse_error_says_what_the_key_takes(key, raw, words):
    with pytest.raises(ConfigError, match=f"^config key '{key}' expects {words}"):
        parse_config_value(key, raw)


def test_parse_config_text_rejects_a_key_set_twice():
    with pytest.raises(ConfigError, match="^config key 'gamma' is set twice, on lines 1 and 3$"):
        parse_config_text("gamma = 1\n# raise it\ngamma = 30\n")


def test_parse_config_text_reports_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("eta0 = 0.01\nbroken line\n")


def test_load_config_applies_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("total_steps = 10\nvariant = cdan\n")
    cfg = load_config(p, total_steps=20)
    assert cfg.total_steps == 20
    assert cfg.variant == "cdan"


def test_load_config_validates(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("momentum = 1.5\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_config_validation_bounds():
    for bad in (dict(momentum=1.0), dict(gamma=-1.0), dict(variant="bogus"),
                dict(alpha_p=1.5), dict(alpha_theta="linear"),
                dict(eval_every=0), dict(total_steps=-1), dict(eta0=0.0)):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)


@pytest.mark.parametrize("key", ["eta0", "anneal_alpha", "anneal_beta", "momentum",
                                 "alpha_theta", "alpha_p", "lambda_stu", "lambda_tea",
                                 "gamma"])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_config_rejects_non_finite_numbers(key, raw):
    with pytest.raises(ConfigError, match="finite"):
        TrainConfig(**{key: parse_config_value(key, raw)})


@pytest.mark.parametrize("key, value", [
    ("grl_ramp", "off"), ("gamma_ramp", 1), ("alpha_theta", True), ("seed", True),
    ("seed", 1.5), ("total_steps", 2.5), ("batch_size", 32.0), ("eta0", "0.01"),
    ("gamma", False), ("variant", 3),
])
def test_config_rejects_a_value_of_the_wrong_type_by_name(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be "):
        TrainConfig(**{key: value})


def test_config_takes_numpy_scalars_and_ints_for_floats():
    cfg = TrainConfig(seed=np.int64(3), total_steps=np.int32(5), eta0=1, gamma=30,
                      alpha_theta=1, momentum=np.float64(0.5))
    assert (cfg.seed, cfg.total_steps, cfg.eta0, cfg.gamma) == (3, 5, 1, 30)
    with pytest.raises(ConfigError, match="gamma must be finite"):
        TrainConfig(gamma=np.float32("inf"))


def test_a_replaced_config_checks_itself():
    # run_ablation builds each run's config with replace(); that copy must
    # be checked like any other construction
    with pytest.raises(ConfigError, match="momentum"):
        replace(TrainConfig(), momentum=1.0)


def test_every_config_field_parses_from_its_own_text():
    for key, value in asdict(TrainConfig(alpha_theta=0.5)).items():
        text = ("on" if value else "off") if isinstance(value, bool) else str(value)
        assert parse_config_value(key, text) == value


# ---------------------------------------------------------------------------
# schedules


def test_lr_schedule_anchor_values():
    cfg = TrainConfig()
    assert lr_schedule(0.0, cfg) == 0.01
    assert abs(lr_schedule(1.0, cfg) - 0.01 * 11.0 ** -0.75) < 1e-12


def test_lr_schedule_flat_without_annealing():
    cfg = replace(TrainConfig(), anneal_beta=0.0)
    for p in (0.0, 0.3, 1.0):
        assert lr_schedule(p, cfg) == 0.01


def test_lr_schedule_rejects_bad_progress():
    with pytest.raises(ContractError):
        lr_schedule(-0.1, TrainConfig())
    with pytest.raises(ContractError):
        lr_schedule(1.1, TrainConfig())


def test_grl_lambda_endpoints():
    assert grl_lambda(0.0) == 0.0
    assert abs(grl_lambda(1.0) - (2.0 / (1.0 + math.exp(-10.0)) - 1.0)) < 1e-15
    assert grl_lambda(0.37, ramp=False) == 1.0


def test_gamma_factor_values():
    assert abs(gamma_factor(0.0) - 1.0 / (1.0 + math.exp(6.0))) < 1e-15
    assert abs(gamma_factor(0.1) - 0.5) < 1e-12  # gate midpoint at 10% progress
    assert abs(gamma_factor(1.0) - 1.0) < 1e-12
    assert gamma_factor(0.9, ramp=False) == 1.0


def test_alpha_theta_ramp_values():
    assert alpha_theta_ramp(0) == 0.0
    assert alpha_theta_ramp(1) == 0.5
    assert alpha_theta_ramp(99) == pytest.approx(0.99)
    assert alpha_theta_ramp(10_000) == 0.99
    with pytest.raises(ContractError):
        alpha_theta_ramp(-1)


# ---------------------------------------------------------------------------
# optimizer


def test_sgd_momentum_two_step_displacement():
    w0 = np.array([[1.0, -2.0]])
    g = np.array([[0.5, 0.25]])
    params = {"w": w0.copy()}
    state = OptimizerState(0.9)
    sgd_momentum_step(params, {"w": g.copy()}, state, 0.1)
    assert np.array_equal(params["w"], w0 - 0.1 * g)
    sgd_momentum_step(params, {"w": g.copy()}, state, 0.1)
    # velocity compounds: total displacement is eta * (1 + 1 + 0.9) * g
    assert np.allclose(params["w"], w0 - 0.1 * 2.9 * g, rtol=0, atol=1e-15)


def test_sgd_velocity_is_a_private_buffer_matching_the_closed_form():
    w0 = np.array([[1.0, -2.0, 0.3]])
    g1 = np.array([[0.5, 0.25, -0.7]])
    g2 = np.array([[-0.1, 0.6, 0.35]])
    params = {"w": w0.copy()}
    state = OptimizerState(0.9)
    grads1, grads2 = {"w": g1.copy()}, {"w": g2.copy()}
    sgd_momentum_step(params, grads1, state, 0.1)
    assert not np.shares_memory(state.velocity["w"], grads1["w"])
    sgd_momentum_step(params, grads2, state, 0.1)
    for grads in (grads1, grads2):
        assert not np.shares_memory(state.velocity["w"], grads["w"])
    assert np.array_equal(grads1["w"], g1) and np.array_equal(grads2["w"], g2)
    w1 = w0 - 0.1 * (0.9 * np.zeros_like(w0) + g1)
    expected = w1 - 0.1 * (0.9 * g1 + g2)
    assert params["w"].tobytes() == expected.tobytes()
    assert state.velocity["w"].tobytes() == (0.9 * g1 + g2).tobytes()


def test_sgd_without_momentum_sums_gradients():
    params = {"w": np.zeros((2, 2))}
    state = OptimizerState(0.0)
    for _ in range(5):
        sgd_momentum_step(params, {"w": np.ones((2, 2))}, state, 0.2)
    assert np.allclose(params["w"], -1.0, rtol=0, atol=1e-15)


def test_sgd_zero_gradient_is_a_fixed_point():
    params = {"w": np.array([[3.0]])}
    state = OptimizerState(0.9)
    sgd_momentum_step(params, {"w": np.zeros((1, 1))}, state, 0.5)
    assert params["w"][0, 0] == 3.0


def test_sgd_validation():
    with pytest.raises(ConfigError):
        OptimizerState(1.0)
    params = {"w": np.zeros((2, 2))}
    with pytest.raises(ShapeError):
        sgd_momentum_step(params, {"w": np.zeros((2, 3))}, OptimizerState(0.0), 0.1)


# ---------------------------------------------------------------------------
# variant wiring


def test_variant_component_instantiation():
    ds = small_ds()
    t = Trainer(TrainConfig(variant="source_only", total_steps=10), ds)
    assert t.disc is None and t.dualnet is None and t.pred_student is t.pred_teacher is None
    assert all(k.startswith(("F.", "C.")) for k in t.params)
    t = Trainer(TrainConfig(variant="cdan", total_steps=10), ds)
    assert t.disc is not None and t.dualnet is None and t.pred_student is t.pred_teacher is None
    t = Trainer(TrainConfig(variant="cdan_m", total_steps=10), ds)
    assert t.dualnet is not None and t.pred_student is t.pred_teacher is None
    t = Trainer(TrainConfig(variant="ren", total_steps=10), ds)
    assert t.disc is not None and t.dualnet is not None
    assert t.pred_student is not None and t.pred_teacher is not None
    assert t.pred_student is not t.pred_teacher


def test_consistency_is_zero_on_first_step():
    # the teacher starts as an exact copy, so the penalty vanishes at step 0
    ds = small_ds()
    cfg = TrainConfig(variant="ren", total_steps=10, seed=2)
    t = Trainer(cfg, ds)
    batch = next(batch_stream(ds, cfg.batch_size, cfg.seed))
    (parts,) = t.train_step([batch], 0)
    assert parts.l_con == 0.0
    assert parts.l_c > 0.0


def test_a_training_step_keeps_one_selection_per_relu_and_clamp(monkeypatch):
    # every graph keeps each relu's and clamp's selection, so the training
    # tape pays one list append per such op; each selection holds the op's
    # own output array, which its node holds too
    graphs = []

    class Kept(Graph):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            graphs.append(self)

    monkeypatch.setattr(trainer.T, "Graph", Kept)
    ds = small_ds()
    cfg = TrainConfig(variant="ren", total_steps=10)
    Trainer(cfg, ds).train_step([next(batch_stream(ds, cfg.batch_size, cfg.seed))], 0)
    assert len(graphs) == 1
    (g,) = graphs
    assert g.record and {"relu", "clamp"} <= {node.op for node in g.nodes}
    selected = [node for node in g.nodes if node.op in ("relu", "clamp")]
    assert [op for op, _, _ in g.selections] == [node.op for node in selected]
    assert all(out is node.values for (_, _, out), node in zip(g.selections, selected))


@pytest.mark.parametrize("variant,calls", [("cdan_m", 0), ("cdan_m_d", 1), ("ren", 1)])
def test_teacher_forward_runs_only_where_its_predictions_are_read(monkeypatch, variant, calls):
    # cdan_m keeps a teacher for evaluation only; its steps never read the
    # teacher's predictions, so they must not compute them
    seen = []
    real = trainer.forward_fc_plain

    def counting(ps_F, ps_C, x):
        seen.append(ps_F)
        return real(ps_F, ps_C, x)

    monkeypatch.setattr(trainer, "forward_fc_plain", counting)
    ds = small_ds()
    cfg = TrainConfig(variant=variant, total_steps=10)
    t = Trainer(cfg, ds)
    t.train_step([next(batch_stream(ds, cfg.batch_size, cfg.seed))], 0)
    assert len(seen) == calls
    assert all(ps is t.dualnet.teacher_F for ps in seen)


# which of REN's four terms, (l_c, l_d_stu, l_d_tea, l_con), each variant turns on
ACTIVE_TERMS = {"source_only": (True, False, False, False), "cdan": (True, True, False, False),
                "cdan_m": (True, True, False, False), "cdan_m_d": (True, True, True, False),
                "ren": (True, True, True, True)}


def _count_step_terms(monkeypatch):
    """Wrap the one objective at both names that call it; returns the
    terms of each call, in call order."""
    assert checks.step_terms is trainer.step_terms  # one function, not a copy
    calls = []
    real = trainer.step_terms

    def counting(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    for module in (trainer, checks):
        monkeypatch.setattr(module, "step_terms", counting)
    return calls


@pytest.mark.parametrize("variant", trainer.VARIANTS)
def test_every_train_step_states_its_objective_through_step_terms_once(monkeypatch, variant):
    calls = _count_step_terms(monkeypatch)
    ds = small_ds()
    cfg = TrainConfig(variant=variant, total_steps=10)
    t = Trainer(cfg, ds)
    stream = batch_stream(ds, cfg.batch_size, cfg.seed)
    for n in range(3):
        (parts,) = t.train_step([next(stream)], n)
        assert len(calls) == n + 1
        assert tuple(term is not None for term in calls[-1]) == ACTIVE_TERMS[variant]
        assert parts.l_c == calls[-1][0].item()


TERMS = ("cross_entropy", "adv_student", "adv_teacher", "consistency")  # step_terms' order


def test_every_gradient_check_records_step_terms_once(monkeypatch):
    calls = _count_step_terms(monkeypatch)
    losses = {}
    suite = loss_check_suite(0)
    assert not calls  # drawing the scenario records no objective
    for check in suite:
        calls.clear()
        losses[check.name] = check.build(Graph())[0].item()
        assert len(calls) == 1
        # every check records the whole objective, all four terms on, and
        # reads its own term of it, or the total
        assert all(term is not None for term in calls[0])
        if check.name != "total":
            assert losses[check.name] == calls[0][TERMS.index(check.name)].item()
    # the total is the unit-weighted sum of the four per-term checks
    assert losses["total"] == pytest.approx(sum(losses[name] for name in TERMS), rel=1e-12)


@pytest.mark.parametrize("S", [1, 3])
@pytest.mark.parametrize("off", range(4), ids=["ys", "cond", "tea_cond", "tea_p"])
def test_step_terms_records_nothing_for_a_term_whose_input_is_none(off, S):
    rng = np.random.default_rng(7)
    m, c = 4, 3
    nets = {"F": NetSpec((5, 6, 4), "relu"), "C": NetSpec((4, c)),
            "D": NetSpec((4 * c, 6, 1), "sigmoid")}
    params = {p: stack_params([init_params(spec, [s, key]) for s in range(S)])
              for key, (p, spec) in enumerate(nets.items())}
    x = rng.normal(size=(S, 2 * m, 5))
    # ys, cond, tea_cond, tea_p: the four inputs that switch a term on
    inputs = [rng.integers(0, c, size=(S, m))] + [
        stable_softmax(rng.normal(size=(S, 2 * m, c))) for _ in range(3)]

    def record(on):
        g = Graph()
        bF, bC, bD = (BoundNet(g, params[p], p) for p in nets)
        f_all, p_all = forward_fc(bF, bC, g.constant(x))
        first = len(g.nodes)
        ys, cond, tea_cond, tea_p = (v if keep else None for v, keep in zip(inputs, on))
        terms = trainer.step_terms(bD, f_all, p_all, ys, m, cond, tea_cond, tea_p, 0.5)
        return terms, [node.op for node in g.nodes[first:]]

    full, _ = record([True] * 4)
    alone = [record([i == j for j in range(4)])[1] for i in range(4)]  # each term's own ops
    terms, ops = record([i != off for i in range(4)])
    assert terms[off] is None
    # the tape holds the other three terms' ops, in order, and nothing of this one
    assert ops == [op for i in range(4) if i != off for op in alone[i]]
    for i in range(4):
        if i != off:
            assert np.array_equal(terms[i].values, full[i].values)
    assert ("gather_rows" in ops) == (off != 0) and "gather_rows" in alone[0]


# tape nodes one training step records, per variant; fewer is the aim, and
# a rise is a regression this catches without a traced benchmark run
NODES_PER_STEP = {"source_only": 26, "cdan": 51, "cdan_m": 51, "cdan_m_d": 72, "ren": 78}


def test_nodes_per_step(monkeypatch):
    counted = []
    backward = Graph.backward

    def counting(graph, loss):
        counted.append(len(graph.nodes))
        # a node only where a gradient can flow: a parameter, or an op with
        # at least one input on the tape
        assert all(node.op == "param" or node.parents for node in graph.nodes)
        return backward(graph, loss)

    monkeypatch.setattr(Graph, "backward", counting)
    ds = small_ds()
    # a stack of seeds records the solo tape: one node per op, whatever S is
    for seeds in ([0], [0, 1, 2]):
        got = {}
        for variant in NODES_PER_STEP:
            cfgs = [TrainConfig(variant=variant, seed=s, total_steps=10) for s in seeds]
            Trainer(cfgs, [ds] * len(seeds)).train_step(
                [next(batch_stream(ds, cfg.batch_size, cfg.seed)) for cfg in cfgs], 0)
            got[variant] = counted.pop()
        assert not counted
        assert got == NODES_PER_STEP


def test_a_step_smooths_each_branch_in_one_call_over_the_whole_stack(monkeypatch):
    # each branch's smoothing state holds every seed of a stack, so a step
    # blends all S * 2m rows of a branch in one call, whatever S is
    calls = []
    real = trainer.pred_ema

    def counting(state, ids, p):
        calls.append((state, len(ids), p.shape[0]))
        return real(state, ids, p)

    monkeypatch.setattr(trainer, "pred_ema", counting)
    ds = small_ds()
    for seeds in ([0], [0, 1, 2]):
        for variant in trainer.VARIANTS:
            cfgs = [TrainConfig(variant=variant, seed=s, total_steps=10) for s in seeds]
            t = Trainer(cfgs, [ds] * len(seeds))
            t.train_step([next(batch_stream(ds, cfg.batch_size, cfg.seed)) for cfg in cfgs], 0)
            rows = len(seeds) * 2 * cfgs[0].batch_size
            smoothed = variant in ("cdan_m_d", "ren")
            assert calls == ([(t.pred_student, rows, rows), (t.pred_teacher, rows, rows)]
                             if smoothed else [])
            calls.clear()


def _arrays(result) -> dict[str, bytes]:
    """Every checkpoint array of a run, as bytes, keyed set.array."""
    sets = {"F": result.student_F, "C": result.student_C, "D": result.disc}
    if result.dualnet is not None:
        sets.update(TF=result.dualnet.teacher_F, TC=result.dualnet.teacher_C)
    return {f"{name}.{k}": arr.tobytes() for name, ps in sets.items() if ps is not None
            for k, arr in ps.items()}


def _solo(cfg, ds):
    (result,) = Trainer(cfg, ds).run()
    return metrics_to_csv(result.records), _arrays(result)


@pytest.mark.parametrize("variant", trainer.VARIANTS)
def test_a_stack_gives_each_seed_the_bytes_of_its_solo_run(variant):
    seeds = (4, 0, 7)
    data = {s: small_ds(s) for s in seeds}
    cfgs = [TrainConfig(variant=variant, seed=s, total_steps=40, eval_every=15) for s in seeds]
    stacked = Trainer(cfgs, [data[s] for s in seeds]).run()
    assert [r.cfg.seed for r in stacked] == list(seeds)
    for cfg, result in zip(cfgs, stacked):
        assert (metrics_to_csv(result.records), _arrays(result)) == _solo(cfg, data[cfg.seed])


def test_run_ablation_stacks_the_seeds_whose_datasets_share_input_width_and_classes(
        monkeypatch):
    # seed 1 lifts to another width, so it trains alone; seed 2 only has
    # more rows, which no network array's shape depends on
    specs = {0: DataSpec(n=100), 1: DataSpec(n=100, lift_dim=8), 2: DataSpec(n=140)}
    data = {s: make_domain_dataset(spec, s) for s, spec in specs.items()}
    stacks = []
    run = Trainer.run

    def recording_run(self):
        stacks.append([cfg.seed for cfg in self.cfgs])
        return run(self)

    monkeypatch.setattr(Trainer, "run", recording_run)
    cfg = TrainConfig(total_steps=20, eval_every=10)
    runs = run_ablation(cfg, ["ren", "cdan"], [2, 1, 0], data.__getitem__)
    assert stacks == [[0, 2], [1]] * 2
    assert list(runs) == [(v, s) for v in ("cdan", "ren") for s in (0, 1, 2)]
    for (variant, seed), result in runs.items():
        solo = _solo(replace(cfg, variant=variant, seed=seed), data[seed])
        assert (metrics_to_csv(result.records), _arrays(result)) == solo


def test_a_stack_takes_configs_that_differ_only_in_seed_and_datasets_that_share_shapes():
    ds = small_ds()
    cfg = TrainConfig(total_steps=5)
    with pytest.raises(ConfigError, match="only in seed"):
        Trainer([cfg, replace(cfg, seed=1, gamma=2.0)], [ds, ds])
    with pytest.raises(ConfigError, match="one dataset per config"):
        Trainer([cfg, replace(cfg, seed=1)], [ds])
    with pytest.raises(ShapeError, match="input width and class count"):
        Trainer([cfg, replace(cfg, seed=1)],
                [ds, make_domain_dataset(DataSpec(n=100, lift_dim=8), 1)])


def test_a_non_finite_op_in_a_stacked_step_names_the_op():
    ds = small_ds()
    cfgs = [TrainConfig(variant="ren", seed=s, total_steps=10) for s in range(3)]
    t = Trainer(cfgs, [ds] * 3)
    t.student_F.params["w0"][1] = 1e308  # seed 1 alone overflows
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="op 'matmul'"):
        t.train_step([next(batch_stream(ds, cfg.batch_size, cfg.seed)) for cfg in cfgs], 0)


def test_train_steps_leave_no_live_graph():
    # each step's tape must be freed by reference counting alone
    ds = small_ds()
    cfg = TrainConfig(variant="ren", total_steps=10)
    t = Trainer(cfg, ds)
    stream = batch_stream(ds, cfg.batch_size, cfg.seed)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for n in range(3):
            t.train_step([next(stream)], n)
        live = sum(isinstance(o, Graph) for o in gc.get_objects())
    finally:
        if was_enabled:
            gc.enable()
    assert live == 0


def test_teacher_tracking_does_not_perturb_the_student():
    # cdan_m trains exactly like cdan; only evaluation differs
    ds = small_ds(3)
    cfg = TrainConfig(variant="cdan", seed=3, total_steps=120, eval_every=50)
    (r_c,) = Trainer(cfg, ds).run()
    (r_m,) = Trainer(replace(cfg, variant="cdan_m"), ds).run()
    for k, arr in r_c.student_F.items():
        assert np.array_equal(arr, r_m.student_F.params[k])
    for a, b in zip(r_c.records, r_m.records):
        assert a.acc_student_target == b.acc_student_target
        assert a.parts.total == b.parts.total
    assert r_m.dualnet is not None


def test_frozen_teacher_under_alpha_one():
    ds = small_ds(4)
    cfg = TrainConfig(variant="cdan_m", alpha_theta=1.0, seed=4, total_steps=60)
    t = Trainer(cfg, ds)
    frozen = {k: v.copy() for k, v in t.dualnet.teacher_F.items()}
    t.run()
    for k, v in frozen.items():
        assert np.array_equal(t.dualnet.teacher_F.params[k], v)
    assert any(not np.array_equal(t.student_F.params[k], v) for k, v in frozen.items())


def test_ramp_makes_teacher_copy_student_after_first_step():
    # alpha ramp starts at 0, so the first smoothing update is a full copy
    ds = small_ds(5)
    cfg = TrainConfig(variant="cdan_m", alpha_theta="ramp", seed=5, total_steps=10)
    t = Trainer(cfg, ds)
    t.train_step([next(batch_stream(ds, cfg.batch_size, cfg.seed))], 0)
    for k, arr in t.student_F.items():
        assert np.array_equal(t.dualnet.teacher_F.params[k], arr)


def test_ramp_reads_the_step_index():
    # the teacher ramp follows the step index, as every other schedule does:
    # a first step at n = 5 blends with alpha_theta_ramp(5), not a full copy
    ds = small_ds(5)
    cfg = TrainConfig(variant="cdan_m", alpha_theta="ramp", seed=5, total_steps=10)
    t = Trainer(cfg, ds)
    teacher0 = {k: v.copy() for k, v in t.dualnet.teacher_F.items()}
    t.train_step([next(batch_stream(ds, cfg.batch_size, cfg.seed))], 5)
    a = alpha_theta_ramp(5)
    for k, arr in t.student_F.items():
        expected = a * teacher0[k] + (1.0 - a) * arr
        assert t.dualnet.teacher_F.params[k].tobytes() == expected.tobytes()
    assert any(not np.array_equal(t.dualnet.teacher_F.params[k], arr)
               for k, arr in t.student_F.items())


def test_loss_breakdown_identity_on_a_live_step():
    ds = small_ds(6)
    cfg = TrainConfig(variant="ren", seed=6, total_steps=10, gamma_ramp=False,
                      lambda_stu=0.7, lambda_tea=1.3, gamma=2.0)
    t = Trainer(cfg, ds)
    stream = batch_stream(ds, cfg.batch_size, cfg.seed)
    for n in range(4):  # move past step 0 so the consistency term is nonzero
        (parts,) = t.train_step([next(stream)], n)
    assert parts.l_con > 0.0

    def identity_gap(gamma):
        want = parts.l_c + 0.7 * parts.l_d_stu + 1.3 * parts.l_d_tea + gamma * parts.l_con
        return abs(want - parts.total)

    assert identity_gap(2.0) <= 1e-10
    assert identity_gap(3.0) > 1e-10


# ---------------------------------------------------------------------------
# run loop


def test_zero_steps_yields_single_untrained_record():
    ds = small_ds(7)
    (res,) = Trainer(TrainConfig(variant="ren", total_steps=0), ds).run()
    assert len(res.records) == 1
    rec = res.records[0]
    assert rec.step == 0
    assert rec.lr == 0.01
    assert rec.parts.total == 0.0
    assert rec.acc_teacher_target == rec.acc_student_target  # identical copies


def test_evaluation_step_positions():
    ds = small_ds(8)
    (res,) = Trainer(TrainConfig(variant="source_only", total_steps=120,
                                 eval_every=50), ds).run()
    assert [r.step for r in res.records] == [50, 100, 120]


@pytest.mark.parametrize("total_steps, eval_every, steps", [
    (0, 5, [0]), (7, 3, [3, 6, 7]), (6, 3, [3, 6]), (2, 50, [2]),
])
def test_a_run_evaluates_after_the_steps_eval_steps_gives(total_steps, eval_every, steps):
    # renlab report holds a run's metrics.csv to this schedule
    cfg = TrainConfig(variant="cdan", total_steps=total_steps, eval_every=eval_every)
    assert list(eval_steps(cfg)) == steps
    (res,) = Trainer(cfg, small_ds(8)).run()
    assert [r.step for r in res.records] == steps


def test_run_is_deterministic():
    ds = small_ds(9)
    cfg = TrainConfig(variant="ren", seed=9, total_steps=100, eval_every=25)
    (a,) = Trainer(cfg, ds).run()
    (b,) = Trainer(cfg, ds).run()
    assert metrics_to_csv(a.records) == metrics_to_csv(b.records)
    for k, arr in a.student_F.items():
        assert np.array_equal(arr, b.student_F.params[k])


def test_run_ablation_collects_sorted_results():
    cfg = TrainConfig(total_steps=20, eval_every=10)
    runs = run_ablation(cfg, ["cdan", "source_only"], [1, 0], small_ds)
    assert list(runs) == [("source_only", 0), ("source_only", 1),
                          ("cdan", 0), ("cdan", 1)]
    accs = ablation_accuracies(runs)
    assert set(accs) == {"source_only", "cdan"}
    for per_seed in accs.values():
        assert all(0.0 <= v <= 1.0 for v in per_seed.values())


@pytest.mark.parametrize("seeds", [[1.7, True], [0, -1], [0, "1"]])
def test_run_ablation_checks_every_seed_before_building_a_dataset(seeds):
    built = []
    with pytest.raises(ConfigError, match="^seed must be "):
        run_ablation(TrainConfig(total_steps=5), ["source_only"], seeds,
                     lambda s: built.append(s) or small_ds(s))
    assert not built


def test_run_ablation_rejects_unknown_variant():
    with pytest.raises(ConfigError):
        run_ablation(TrainConfig(total_steps=5), ["warp"], [0], small_ds)


# ---------------------------------------------------------------------------
# BLAS threads in the sweep driver


def test_run_ablation_runs_every_run_on_one_blas_thread(blas_threads, monkeypatch):
    seen = []
    run = Trainer.run

    def recording_run(self):
        seen.extend((cfg.variant, cfg.seed, blas_threads()) for cfg in self.cfgs)
        return run(self)

    monkeypatch.setattr(Trainer, "run", recording_run)
    run_ablation(TrainConfig(total_steps=2, eval_every=1), ["ren", "source_only"],
                 [1, 0], small_ds)
    assert seen == [(v, s, 1) for v in ("source_only", "ren") for s in (0, 1)]
    assert blas_threads() == 2


def test_run_ablation_restores_blas_threads_when_a_run_raises(blas_threads, monkeypatch):
    def failing_run(self):
        raise RuntimeError("run failed")

    monkeypatch.setattr(Trainer, "run", failing_run)
    with pytest.raises(RuntimeError, match="run failed"):
        run_ablation(TrainConfig(total_steps=2), ["cdan"], [0], small_ds)
    assert blas_threads() == 2


def test_run_ablation_without_openblas_gives_the_same_results(monkeypatch):
    def sweep():
        runs = run_ablation(TrainConfig(total_steps=6, eval_every=3), ["cdan", "ren"],
                            [0, 1], small_ds)
        return {key: metrics_to_csv(result.records) for key, result in runs.items()}

    pinned = sweep()
    monkeypatch.setattr(trainer, "_blas_thread_api", lambda: None)
    assert sweep() == pinned


@pytest.mark.parametrize("steps", [0, 4])
@pytest.mark.parametrize("split, value", [("source", np.nan), ("target", np.nan),
                                          ("target", -np.inf)])
def test_trainer_refuses_a_non_finite_sample_naming_split_and_stack_position(steps, split,
                                                                             value):
    clean, bad = small_ds(0), small_ds(1)
    getattr(bad, f"{split}_x")[3, 1] = value
    cfgs = [TrainConfig(variant="ren", total_steps=steps, eval_every=2, seed=s) for s in (0, 1)]
    with pytest.raises(ContractError,
                       match=f"^dataset 1 of the stack has a non-finite {split} sample$"):
        Trainer(cfgs, [clean, bad]).run()


def test_blas_thread_count_changes_no_metrics_byte(blas_threads):
    # batch 256 on 64-D blobs: the step matmuls are large enough to thread,
    # and each split takes more than one evaluation block
    ds = make_domain_dataset(DataSpec(gen="blobs", n=EVAL_ROWS + 300, classes=4,
                                      lift_dim=64), 0)
    cfg = TrainConfig(variant="ren", batch_size=256, total_steps=6, eval_every=3)
    threaded = metrics_to_csv(Trainer(cfg, ds).run()[0].records)
    pinned = run_ablation(cfg, ["ren"], [0], lambda seed: ds)[("ren", 0)]
    assert metrics_to_csv(pinned.records) == threaded
