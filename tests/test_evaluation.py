"""Accuracy, stability windows, ablation summaries, metrics IO."""

import json
import tracemalloc

import numpy as np
import pytest

from renlab import tensor as T
from renlab import evaluation
from renlab.evaluation import (EVAL_ROWS, MetricsRecord, ablation_report, accuracy,
                               load_metrics, metrics_to_csv, save_ablation,
                               save_metrics, stability)
from renlab.exceptions import ContractError, NonFiniteError, ShapeError
from renlab.losses import LossBreakdown
from renlab.networks import NetSpec, ParamSet, forward_fc_plain, init_params


def identity_net(dim=2):
    return ParamSet(NetSpec((dim, dim)),
                    {"w0": np.eye(dim), "b0": np.zeros((1, dim))})


def test_accuracy_against_hand_labels():
    f, c = identity_net(), identity_net()
    x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]])
    assert accuracy(f, c, x, [0, 1, 1]) == 1.0
    assert accuracy(f, c, x, [1, 1, 1]) == pytest.approx(2.0 / 3.0)


def test_accuracy_tie_goes_to_lowest_class():
    f, c = identity_net(), identity_net()
    x = np.array([[0.5, 0.5]])
    assert accuracy(f, c, x, [0]) == 1.0
    assert accuracy(f, c, x, [1]) == 0.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_accuracy_refuses_non_finite_logits(value):
    f, c = identity_net(), identity_net()
    x = np.zeros((EVAL_ROWS + 5, 2))
    x[EVAL_ROWS + 2, 1] = value  # in the second block; argmax reads a NaN row as class 0
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="NaN or infinity"):
        accuracy(f, c, x, np.zeros(len(x), dtype=int))  # inf * 0 in the matmul is NaN


def test_accuracy_invariant_under_monotone_logit_maps(rng):
    f, c = identity_net(), identity_net()
    x = rng.normal(size=(50, 2))
    y = rng.integers(0, 2, size=50)
    base = accuracy(f, c, x, y)
    assert accuracy(f, c, 3.0 * x + 7.0, y) == base  # same argmax per row


def test_accuracy_runs_no_softmax(monkeypatch, rng):
    calls = []
    real = T.stable_softmax

    def counting(arr):
        calls.append(arr.shape)
        return real(arr)

    monkeypatch.setattr(T, "stable_softmax", counting)
    ps_F = init_params(NetSpec((4, 6, 3), final="relu"), 1)
    ps_C = init_params(NetSpec((3, 5)), 2)
    x = rng.normal(size=(40, 4))
    y = rng.integers(0, 5, size=40)
    want = np.mean(np.argmax(ps_C.forward_plain(ps_F.forward_plain(x)), axis=1) == y)
    assert accuracy(ps_F, ps_C, x, y) == want
    assert calls == []


def wide_nets():
    """Feature and classifier nets with 64-wide layers, as in a 64-D run."""
    return (init_params(NetSpec((64, 64, 64, 16), final="relu"), 1),
            init_params(NetSpec((16, 6)), 2))


@pytest.mark.parametrize("rows", [2 * EVAL_ROWS + 37, EVAL_ROWS // 3, EVAL_ROWS + 1,
                                  2 * EVAL_ROWS + 1, EVAL_ROWS + 2, 1])
def test_accuracy_over_row_blocks_equals_one_pass_over_all_rows(rng, monkeypatch, rows):
    ps_F, ps_C = wide_nets()
    x = rng.normal(size=(rows, 64))
    y = rng.integers(0, 6, size=rows)
    full = forward_fc_plain(ps_F, ps_C, x)
    blocks = []

    def recorded(*args):
        blocks.append(forward_fc_plain(*args))
        return blocks[-1]

    monkeypatch.setattr(evaluation, "forward_fc_plain", recorded)
    assert accuracy(ps_F, ps_C, x, y) == float(np.mean(np.argmax(full, axis=1) == y))
    assert np.array_equal(np.concatenate(blocks), full)  # the logits, bit for bit
    assert max(map(len, blocks)) <= EVAL_ROWS + 1


def test_accuracy_holds_no_full_size_layer_output(rng, monkeypatch):
    ps_F, ps_C = wide_nets()
    x = rng.normal(size=(8000, 64))
    y = rng.integers(0, 6, size=8000)

    def peak_bytes():
        tracemalloc.start()
        try:
            accuracy(ps_F, ps_C, x, y)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes() < 4 << 20  # one 8000 x 64 layer output is 4 MB
    monkeypatch.setattr(evaluation, "EVAL_ROWS", 8000)  # one pass, as a control
    assert peak_bytes() > 4 << 20


def test_accuracy_rejects_empty_input():
    f, c = identity_net(), identity_net()
    with pytest.raises(ContractError):
        accuracy(f, c, np.zeros((0, 2)), [])


@pytest.mark.parametrize("labels, message", [
    ([0.7, 1.2, 0.1, 1.9], "integer dtype"),  # truncated, a perfect [0, 1, 0, 1]
    ([False, True, False, True], "integer dtype"),
    (np.array([0.0, 1.0, 0.0, 1.0]), "integer dtype"),
    ([0, 5, 0, 1], r"out of range \[0, 2\)"),  # a miss, not an error, if scored
    ([0, 1, 0, -1], r"out of range \[0, 2\)"),
    ([2, 2, 2, 2], r"out of range \[0, 2\)"),
], ids=["fractional", "bool", "whole_floats", "above", "negative", "one_past_the_last_class"])
def test_accuracy_refuses_labels_it_would_misread(labels, message):
    f, c = identity_net(), identity_net()
    with pytest.raises(ContractError, match=message):
        accuracy(f, c, np.eye(2)[[0, 1, 0, 1]], labels)


@pytest.mark.parametrize("labels", [[1], [1, 0]], ids=["one", "two"])
def test_accuracy_rejects_a_label_count_unlike_the_row_count(labels):
    f, c = identity_net(), identity_net()
    with pytest.raises(ShapeError, match=f"{len(labels)} labels for 6 rows"):
        accuracy(f, c, np.eye(2)[[0, 1, 0, 1, 1, 0]], labels)


def test_stability_reference_values():
    assert stability([0.7, 0.7, 0.7, 0.7]) == 0.0
    assert abs(stability([0.5, 0.7], window_fraction=1.0) - 0.14142135623730953) < 1e-15


def test_stability_uses_only_the_final_window():
    # the early outlier must not leak into the final-half window
    assert abs(stability([10.0, 0.4, 0.6, 0.7, 0.8]) - 0.1) < 1e-12


def test_stability_shift_invariance(rng):
    series = rng.uniform(0.4, 0.9, size=20)
    assert abs(stability(series) - stability(series + 0.25)) < 1e-12


def test_stability_validation():
    with pytest.raises(ContractError):
        stability([0.5])
    with pytest.raises(ContractError):
        stability([0.5, 0.6, 0.7], window_fraction=0.0)
    with pytest.raises(ContractError):
        stability([0.5, 0.6, 0.7], window_fraction=1.2)


def chain_results(m1, m2, m3, m4):
    out = {}
    for name, mean in zip(("cdan", "cdan_m", "cdan_m_d", "ren"), (m1, m2, m3, m4)):
        out[name] = {0: mean - 0.01, 1: mean, 2: mean + 0.01}
    return out


def test_ablation_report_summaries_and_ordering():
    rep = ablation_report(chain_results(0.60, 0.62, 0.65, 0.70))
    assert rep["variants"]["cdan"]["mean"] == pytest.approx(0.60)
    assert rep["variants"]["cdan"]["n_seeds"] == 3
    assert rep["variants"]["cdan"]["std"] == pytest.approx(0.01)
    assert rep["ordering"]["chain"] == ["cdan", "cdan_m", "cdan_m_d", "ren"]
    assert rep["ordering"]["satisfied"] is True
    deltas = [s["delta"] for s in rep["ordering"]["steps"]]
    assert deltas == pytest.approx([0.02, 0.03, 0.05])


def test_ablation_ordering_tolerates_small_dips_only():
    ok = ablation_report(chain_results(0.60, 0.596, 0.65, 0.70))
    assert ok["ordering"]["satisfied"] is True  # -0.004 within 0.005
    bad = ablation_report(chain_results(0.60, 0.59, 0.65, 0.70))
    assert bad["ordering"]["satisfied"] is False
    flags = {s["from"]: s["holds"] for s in bad["ordering"]["steps"]}
    assert flags == {"cdan": False, "cdan_m": True, "cdan_m_d": True}


def test_ablation_identical_means_satisfy_nonstrict_ordering():
    rep = ablation_report(chain_results(0.6, 0.6, 0.6, 0.6))
    assert rep["ordering"]["satisfied"] is True


def test_ablation_report_missing_variant():
    with pytest.raises(ContractError):
        ablation_report({"cdan": {}})


@pytest.mark.parametrize("tolerance", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_ablation_report_refuses_a_non_finite_tolerance(tolerance):
    # nan would fail every link and inf pass every one, both without a word,
    # and save_ablation would write nan as JSON's invalid NaN
    with pytest.raises(ContractError, match="^ablation tolerance must be finite, got"):
        ablation_report(chain_results(0.60, 0.59, 0.65, 0.70), tolerance=tolerance)
    strict = ablation_report(chain_results(0.60, 0.62, 0.65, 0.70), tolerance=-0.025)
    assert [s["holds"] for s in strict["ordering"]["steps"]] == [False, True, True]


def test_ablation_report_handles_partial_chains():
    rep = ablation_report({"ren": {0: 0.7, 1: 0.72}, "source_only": {0: 0.6, 1: 0.61}})
    assert rep["ordering"]["chain"] == ["ren"]  # source_only is outside the chain
    assert rep["ordering"]["steps"] == []
    assert rep["variants"]["source_only"]["std"] > 0.0


def sample_records():
    parts = LossBreakdown(l_c=0.5, l_d_stu=0.25, l_d_tea=0.125, l_con=0.0625,
                          total=0.9375)
    return [MetricsRecord(step=50, lr=0.01 / 3.0, parts=parts,
                          acc_student_source=0.98, acc_student_target=2.0 / 3.0,
                          acc_teacher_target=0.7)]


def test_metrics_roundtrip_is_exact(tmp_path):
    path = tmp_path / "m.csv"
    records = sample_records()
    save_metrics(records, path)
    back = load_metrics(path)
    assert back == records  # dataclass equality covers every field
    save_metrics(back, tmp_path / "m2.csv")
    assert (tmp_path / "m2.csv").read_bytes() == path.read_bytes()


def test_metrics_header_is_validated(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("step,awesomeness\n1,2\n")
    with pytest.raises(ContractError):
        load_metrics(path)


@pytest.mark.parametrize("corrupt", [
    lambda t: t.split("\n", 1)[0] + "\n",  # header only: the run never evaluated
    lambda t: t.replace(",0.7\n", "\n"),  # short row
    lambda t: t.replace("\n", ",1\n").replace(",1\n", "\n", 1),  # long row
    lambda t: t.replace("0.98", "high"),
    lambda t: t.replace("50,", "5.5,", 1),  # fractional step
    lambda t: t.replace(",0.7\n", ",nan\n"),  # float() parses these three
    lambda t: t.replace("0.98", "inf"),
    lambda t: t.replace("0.98", "-inf"),
], ids=["no-rows", "short-row", "long-row", "word", "float-step", "nan", "inf", "-inf"])
def test_load_metrics_rejects_corrupt_files(tmp_path, corrupt):
    path = tmp_path / "m.csv"
    path.write_text(corrupt(metrics_to_csv(sample_records())))
    with pytest.raises(ContractError, match="m.csv"):
        load_metrics(path)


def test_load_metrics_rejects_every_truncation(tmp_path):
    text = metrics_to_csv(sample_records())
    path = tmp_path / "m.csv"
    for cut in range(len(text)):
        path.write_text(text[:cut])
        with pytest.raises(ContractError):
            load_metrics(path)


def test_ablation_json_roundtrip_and_stable_bytes(tmp_path):
    rep = ablation_report(chain_results(0.6, 0.62, 0.64, 0.7))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_ablation(rep, p1)
    save_ablation(json.loads(p1.read_text()), p2)
    assert p2.read_bytes() == p1.read_bytes()
    assert json.loads(p1.read_text())["ordering"]["satisfied"] is True
