"""Metric anchors, ETA synthesis arithmetic, and scoring properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t4c.data import SuperSegment
from t4c.evaluation import (
    PROB_CLIP,
    AblationResult,
    PredictionError,
    core_metric,
    eta_from_speeds,
    eta_labels,
    eta_metric,
)

from conftest import label_table

UNIFORM = np.full(3, 1.0 / 3.0)


# -- core metric -----------------------------------------------------------------


def test_uniform_predictor_scores_ln3():
    labels = label_table({"r0": {"a": 1, "b": 2}, "r1": {"a": 3}})
    predictions = {
        "r0": {"a": UNIFORM, "b": UNIFORM},
        "r1": {"a": UNIFORM},
    }
    score = core_metric(predictions, labels)
    assert score.n_scored == 3
    assert abs(score.score - np.log(3.0)) <= 1e-9
    assert abs(score.per_record["r0"] - np.log(3.0)) <= 1e-9


def test_correct_one_hot_scores_near_zero_and_wrong_is_clipped():
    labels = label_table({"r0": {"a": 1}})
    perfect = core_metric({"r0": {"a": np.array([1.0, 0.0, 0.0])}}, labels)
    assert perfect.score == 0.0
    wrong = core_metric({"r0": {"a": np.array([0.0, 1.0, 0.0])}}, labels)
    assert wrong.score == pytest.approx(-np.log(PROB_CLIP))


def test_undefined_and_missing_labels_are_excluded():
    labels = label_table({"r0": {"a": 0, "b": 2, "c": None}})
    score = core_metric({"r0": {"a": UNIFORM, "b": np.array([0.25, 0.5, 0.25]), "c": UNIFORM}}, labels)
    assert score.n_scored == 1
    assert score.score == pytest.approx(-np.log(0.5))


def test_zero_scored_segments_flagged():
    labels = label_table({"r0": {"a": 0}})
    score = core_metric({"r0": {"a": UNIFORM}}, labels)
    assert score.score is None
    assert score.n_scored == 0


def test_missing_prediction_is_an_error():
    labels = label_table({"r0": {"a": 1}})
    with pytest.raises(ValueError):
        core_metric({}, labels)
    with pytest.raises(ValueError):
        core_metric({"r0": {}}, labels)


@pytest.mark.parametrize("probs", [["0.2", "0.3", "0.5"], [True, False, False], [True, 0.5, 0.5],
                                   np.array(["0.2", "0.3", "0.5"]), np.array([True, False, False])],
                         ids=["strings", "bools", "bool_mixed", "string_array", "bool_array"])
def test_probabilities_that_are_not_numbers_are_refused(probs):
    """numpy would read strings and bools as numbers."""
    with pytest.raises(PredictionError, match="expected 3 finite probabilities"):
        core_metric({"r0": {"a": probs}}, label_table({"r0": {"a": 1}}))


def test_integer_probabilities_count_as_numbers():
    assert core_metric({"r0": {"a": [1, 0, 0]}}, label_table({"r0": {"a": 1}})).score == 0.0


def test_naive_count_on_own_labels_equals_empirical_entropy():
    """Oracle: predicting a segment's empirical distribution scores the
    entropy of that distribution (no cc=0 labels present)."""
    rng = np.random.default_rng(5)
    cc_values = [int(c) for c in rng.integers(1, 4, size=60)]
    labels = label_table({f"r{i}": {"seg": cc_values[i]} for i in range(60)})
    counts = np.bincount(cc_values, minlength=4)[1:4].astype(float)
    probs = counts / counts.sum()
    predictions = {f"r{i}": {"seg": probs} for i in range(60)}
    score = core_metric(predictions, labels)

    entropy = 0.0
    for i in range(60):
        entropy += -np.log(probs[cc_values[i] - 1])
    entropy /= 60
    assert score.score == pytest.approx(entropy, abs=1e-12)


def test_core_metric_invariant_under_segment_order():
    rng = np.random.default_rng(6)
    segs = [f"s{i}" for i in range(10)]
    cc = {s: int(rng.integers(1, 4)) for s in segs}
    raw = rng.random((10, 3)) + 0.05
    probs = {s: raw[i] / raw[i].sum() for i, s in enumerate(segs)}
    forward_order = core_metric({"r": probs}, label_table({"r": cc}, segs))
    reversed_order = core_metric({"r": probs}, label_table({"r": cc}, segs[::-1]))
    assert forward_order.score == pytest.approx(reversed_order.score, abs=1e-12)


def test_raising_true_class_probability_never_hurts():
    rng = np.random.default_rng(7)
    for _ in range(20):
        raw = rng.random(3) + 0.05
        probs = raw / raw.sum()
        label = int(rng.integers(1, 4))
        base = core_metric({"r": {"s": probs}}, label_table({"r": {"s": label}})).score
        boosted = probs.copy()
        boosted[label - 1] += 0.1
        boosted /= boosted.sum()
        better = core_metric({"r": {"s": boosted}}, label_table({"r": {"s": label}})).score
        assert better <= base + 1e-12


# -- eta synthesis ------------------------------------------------------------------


def path_ss(*seg_ids):
    return SuperSegment("ss", tuple(seg_ids), {})


def test_eta_two_segments_exact():
    eta = eta_from_speeds(
        path_ss("a", "b"),
        speeds_kph={"a": 36.0, "b": 72.0},
        lengths_m={"a": 100.0, "b": 200.0},
    )
    assert eta == 20.0


def test_eta_zero_speed_floored():
    eta = eta_from_speeds(path_ss("a"), {"a": 0.0}, {"a": 100.0})
    assert eta == pytest.approx(100.0 / (5.0 / 3.6))


def test_eta_single_kilometer():
    assert eta_from_speeds(path_ss("a"), {"a": 36.0}, {"a": 1000.0}) == pytest.approx(100.0)


def test_eta_empty_path_rejected():
    with pytest.raises(ValueError):
        eta_from_speeds(SuperSegment("ss", (), {}), {}, {})


def test_eta_missing_speed_rejected():
    with pytest.raises(ValueError):
        eta_from_speeds(path_ss("a"), {}, {"a": 100.0})


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31))
def test_eta_additivity_over_path_splits(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    seg_ids = [f"s{i}" for i in range(n)]
    speeds = {s: float(rng.uniform(0.0, 90.0)) for s in seg_ids}
    lengths = {s: float(rng.uniform(10.0, 500.0)) for s in seg_ids}
    cut = int(rng.integers(1, n))
    whole = eta_from_speeds(path_ss(*seg_ids), speeds, lengths)
    left = eta_from_speeds(path_ss(*seg_ids[:cut]), speeds, lengths)
    right = eta_from_speeds(path_ss(*seg_ids[cut:]), speeds, lengths)
    assert whole == pytest.approx(left + right, rel=1e-12)


# -- eta metric ---------------------------------------------------------------------


def test_eta_metric_exact_predictions_score_zero():
    labeled = {("r0", "ss0"): 100.0, ("r1", "ss0"): 50.0}
    assert eta_metric(labeled, labeled).score == 0.0


def test_eta_metric_simple_difference():
    score = eta_metric({("r0", "ss0"): 100.0}, {("r0", "ss0"): 110.0})
    assert score.score == 10.0
    assert score.n_scored == 1


def test_eta_metric_is_symmetric():
    a = {("r0", "ss0"): 100.0, ("r0", "ss1"): 30.0}
    b = {("r0", "ss0"): 140.0, ("r0", "ss1"): 10.0}
    assert eta_metric(a, b).score == eta_metric(b, a).score


def test_eta_metric_missing_prediction_rejected():
    with pytest.raises(ValueError):
        eta_metric({}, {("r0", "ss0"): 1.0})


def test_median_predictor_scores_mean_absolute_deviation():
    """Oracle: a constant median prediction scores the MAD from the median."""
    values = [10.0, 20.0, 30.0, 40.0]
    median = 20.0  # lower median
    labeled = {(f"r{i}", "ss0"): v for i, v in enumerate(values)}
    predicted = {key: median for key in labeled}
    expected = float(np.mean([abs(v - median) for v in values]))
    assert eta_metric(predicted, labeled).score == pytest.approx(expected, abs=1e-12)


def test_eta_labels_flattening():
    ss = [
        SuperSegment("ss0", ("a",), {"r0": 10.0, "r1": 12.0}),
        SuperSegment("ss1", ("b",), {"r0": 5.0}),
    ]
    out = eta_labels(ss)
    assert out == {("r0", "ss0"): 10.0, ("r1", "ss0"): 12.0, ("r0", "ss1"): 5.0}
    only_r1 = eta_labels(ss, record_ids={"r1"})
    assert only_r1 == {("r1", "ss0"): 12.0}


# -- ablation ------------------------------------------------------------------------


def test_ablation_csv_rows_follow_the_variant_order():
    """ablation.json is written with sorted keys; the CSV rendered from it
    must match the one written at ablation time."""
    result = AblationResult(
        scores={"no_static": 0.5, "full": 0.25, "no_gnn": 0.75},
        best_epochs={"no_static": 1, "full": 2, "no_gnn": 0},
        data_order_hashes={},
    )
    assert result.as_csv() == (
        "variant,val_core,best_epoch\nfull,0.250000,2\nno_static,0.500000,1\nno_gnn,0.750000,0\n"
    )
