"""Config parsing, schedules, SGD momentum, variant wiring, determinism."""

import gc
import math
from dataclasses import replace

import numpy as np
import pytest

from renlab import trainer
from renlab.datasets import DataSpec, batch_stream, make_domain_dataset, standard_benchmark
from renlab.evaluation import metrics_to_csv
from renlab.exceptions import ConfigError, ContractError, ShapeError
from renlab.networks import alpha_theta_ramp
from renlab.tensor import Graph
from renlab.trainer import (OptimizerState, TrainConfig, Trainer,
                            ablation_accuracies, gamma_factor, grl_lambda,
                            load_config, lr_schedule, parse_config_text,
                            parse_config_value, run_ablation,
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


def test_a_replaced_config_checks_itself():
    # run_ablation builds each run's config with replace(); that copy must
    # be checked like any other construction
    with pytest.raises(ConfigError, match="momentum"):
        replace(TrainConfig(), momentum=1.0)


def test_every_config_field_parses_from_its_own_text():
    for key, value in TrainConfig(alpha_theta=0.5).to_dict().items():
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
    assert t.disc is None and t.dualnet is None and t.pred_state is None
    assert all(k.startswith(("F.", "C.")) for k in t.params)
    t = Trainer(TrainConfig(variant="cdan", total_steps=10), ds)
    assert t.disc is not None and t.dualnet is None and t.pred_state is None
    t = Trainer(TrainConfig(variant="cdan_m", total_steps=10), ds)
    assert t.dualnet is not None and t.pred_state is None
    t = Trainer(TrainConfig(variant="ren", total_steps=10), ds)
    assert t.disc is not None and t.dualnet is not None and t.pred_state is not None


def test_consistency_is_zero_on_first_step():
    # the teacher starts as an exact copy, so the penalty vanishes at step 0
    ds = small_ds()
    cfg = TrainConfig(variant="ren", total_steps=10, seed=2)
    t = Trainer(cfg, ds)
    batch = next(batch_stream(ds, cfg.batch_size, cfg.seed))
    parts = t.train_step(batch, 0)
    assert parts.l_con == 0.0
    assert parts.l_c > 0.0


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
    t.train_step(next(batch_stream(ds, cfg.batch_size, cfg.seed)), 0)
    assert len(seen) == calls
    assert all(ps is t.dualnet.teacher_F for ps in seen)


# tape nodes one training step records, per variant; fewer is the aim, and
# a rise is a regression this catches without a traced benchmark run
NODES_PER_STEP = {"source_only": 27, "cdan": 53, "cdan_m": 53, "cdan_m_d": 75, "ren": 82}


def test_nodes_per_step(monkeypatch):
    counted = []
    backward = Graph.backward

    def counting(graph, loss):
        counted.append(len(graph.nodes))
        return backward(graph, loss)

    monkeypatch.setattr(Graph, "backward", counting)
    ds = small_ds()
    got = {}
    for variant in NODES_PER_STEP:
        cfg = TrainConfig(variant=variant, total_steps=10)
        Trainer(cfg, ds).train_step(next(batch_stream(ds, cfg.batch_size, cfg.seed)), 0)
        got[variant] = counted.pop()
    assert not counted
    assert got == NODES_PER_STEP


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
            t.train_step(next(stream), n)
        live = sum(isinstance(o, Graph) for o in gc.get_objects())
    finally:
        if was_enabled:
            gc.enable()
    assert live == 0


def test_teacher_tracking_does_not_perturb_the_student():
    # cdan_m trains exactly like cdan; only evaluation differs
    ds = small_ds(3)
    cfg = TrainConfig(variant="cdan", seed=3, total_steps=120, eval_every=50)
    r_c = Trainer(cfg, ds).run()
    r_m = Trainer(replace(cfg, variant="cdan_m"), ds).run()
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
    t.train_step(next(batch_stream(ds, cfg.batch_size, cfg.seed)), 0)
    for k, arr in t.student_F.items():
        assert np.array_equal(t.dualnet.teacher_F.params[k], arr)


def test_ramp_reads_the_step_index():
    # the teacher ramp follows the step index, as every other schedule does:
    # a first step at n = 5 blends with alpha_theta_ramp(5), not a full copy
    ds = small_ds(5)
    cfg = TrainConfig(variant="cdan_m", alpha_theta="ramp", seed=5, total_steps=10)
    t = Trainer(cfg, ds)
    teacher0 = {k: v.copy() for k, v in t.dualnet.teacher_F.items()}
    t.train_step(next(batch_stream(ds, cfg.batch_size, cfg.seed)), 5)
    a = alpha_theta_ramp(5)
    assert t.dualnet.alpha_theta == a
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
        parts = t.train_step(next(stream), n)
    assert parts.l_con > 0.0
    assert parts.matches(0.7, 1.3, 2.0)
    assert not parts.matches(0.7, 1.3, 3.0)


# ---------------------------------------------------------------------------
# run loop


def test_zero_steps_yields_single_untrained_record():
    ds = small_ds(7)
    res = Trainer(TrainConfig(variant="ren", total_steps=0), ds).run()
    assert len(res.records) == 1
    rec = res.records[0]
    assert rec.step == 0
    assert rec.lr == 0.01
    assert rec.parts.total == 0.0
    assert rec.acc_teacher_target == rec.acc_student_target  # identical copies


def test_evaluation_step_positions():
    ds = small_ds(8)
    res = Trainer(TrainConfig(variant="source_only", total_steps=120,
                              eval_every=50), ds).run()
    assert [r.step for r in res.records] == [50, 100, 120]


def test_run_is_deterministic():
    ds = small_ds(9)
    cfg = TrainConfig(variant="ren", seed=9, total_steps=100, eval_every=25)
    a = Trainer(cfg, ds).run()
    b = Trainer(cfg, ds).run()
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


def test_run_ablation_rejects_unknown_variant():
    with pytest.raises(ConfigError):
        run_ablation(TrainConfig(total_steps=5), ["warp"], [0], small_ds)


# ---------------------------------------------------------------------------
# BLAS threads in the sweep driver


@pytest.fixture
def blas_threads():
    """The loaded OpenBLAS's thread-count getter, with the caller's count set
    to 2 for the test and put back afterwards."""
    api = trainer._blas_thread_api()
    if api is None:
        pytest.skip("no OpenBLAS loaded in this process")
    get, set_ = api
    before = get()
    set_(2)
    yield get
    set_(before)


def test_run_ablation_runs_every_run_on_one_blas_thread(blas_threads, monkeypatch):
    seen = []
    run = Trainer.run

    def recording_run(self):
        seen.append((self.cfg.variant, self.cfg.seed, blas_threads()))
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


def test_blas_thread_count_changes_no_metrics_byte(blas_threads):
    # batch 256 on 64-D blobs: the step matmuls are large enough to thread
    ds = make_domain_dataset(DataSpec(gen="blobs", n=512, classes=4, lift_dim=64), 0)
    cfg = TrainConfig(variant="ren", batch_size=256, total_steps=6, eval_every=3)
    threaded = metrics_to_csv(Trainer(cfg, ds).run().records)
    pinned = run_ablation(cfg, ["ren"], [0], lambda seed: ds)[("ren", 0)]
    assert metrics_to_csv(pinned.records) == threaded
