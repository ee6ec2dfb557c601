"""Metric anchors, ETA synthesis arithmetic, and scoring properties."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from t4c.data import PredictionError, PredictionTable, SuperSegment
from t4c.evaluation import (
    PROB_CLIP,
    CoreScore,
    EtaScore,
    core_metric,
    eta_labels,
    eta_metric,
    etas_from_speeds,
)

from t4c.training import AblationResult

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


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
def test_rows_of_float_arrays_score_as_their_lists_and_a_bad_vector_is_named(dtype):
    """A row of float arrays is read in one pass, as a row of lists is; a row with one bad vector is read vector by
    vector, so the error names its record and segment."""
    rng = np.random.default_rng(11)
    segments = [f"s{j}" for j in range(20)]
    arrays = {f"r{k}": {seg: rng.dirichlet(np.ones(3)).astype(dtype) for seg in segments} for k in range(4)}
    lists = {rid: {seg: value.astype(np.float64).tolist() for seg, value in row.items()} for rid, row in arrays.items()}
    labels = label_table({rid: {seg: int(rng.integers(0, 4)) for seg in segments} for rid in arrays})
    by_arrays, by_lists = core_metric(arrays, labels), core_metric(lists, labels)
    assert (by_arrays.score, by_arrays.per_record, by_arrays.n_scored) == (by_lists.score, by_lists.per_record,
                                                                          by_lists.n_scored)
    for bad in (np.array([0.5, np.nan, 0.5], dtype), np.array([0.5, 0.5], dtype), np.array([1, 0, 0])):
        mixed = {**arrays, "r2": {**arrays["r2"], "s7": bad}}
        if bad.dtype.kind == "i":  # integers are numbers too, read vector by vector
            assert core_metric(mixed, labels).n_scored == by_lists.n_scored
            continue
        with pytest.raises(PredictionError, match="record 'r2', segment 's7': expected 3 finite probabilities"):
            core_metric(mixed, labels)


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


def one_eta(supersegment, speeds_kph: dict, lengths_m: dict) -> float:
    """One path's ETA by ``etas_from_speeds`` over one record, whose segments are those with a speed."""
    seg_ids = list(speeds_kph)
    speeds = np.array([list(speeds_kph.values())], np.float64).reshape(1, len(seg_ids))
    return float(etas_from_speeds([supersegment], seg_ids, [lengths_m[s] for s in seg_ids], speeds)[0, 0])


def test_eta_two_segments_exact():
    eta = one_eta(
        path_ss("a", "b"),
        speeds_kph={"a": 36.0, "b": 72.0},
        lengths_m={"a": 100.0, "b": 200.0},
    )
    assert eta == 20.0


def test_eta_zero_speed_floored():
    eta = one_eta(path_ss("a"), {"a": 0.0}, {"a": 100.0})
    assert eta == pytest.approx(100.0 / (5.0 / 3.6))


def test_eta_single_kilometer():
    assert one_eta(path_ss("a"), {"a": 36.0}, {"a": 1000.0}) == pytest.approx(100.0)


def test_eta_empty_path_rejected():
    with pytest.raises(ValueError):
        one_eta(SuperSegment("ss", (), {}), {}, {})


def test_eta_missing_speed_rejected():
    with pytest.raises(ValueError):
        one_eta(path_ss("a"), {}, {"a": 100.0})


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31))
def test_eta_additivity_over_path_splits(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    seg_ids = [f"s{i}" for i in range(n)]
    speeds = {s: float(rng.uniform(0.0, 90.0)) for s in seg_ids}
    lengths = {s: float(rng.uniform(10.0, 500.0)) for s in seg_ids}
    cut = int(rng.integers(1, n))
    whole = one_eta(path_ss(*seg_ids), speeds, lengths)
    left = one_eta(path_ss(*seg_ids[:cut]), speeds, lengths)
    right = one_eta(path_ss(*seg_ids[cut:]), speeds, lengths)
    assert whole == pytest.approx(left + right, rel=1e-12)


def loop_eta(path, speeds_kph, lengths_m, floor=5.0) -> float:
    """The reference: each segment's travel time added to a running total from 0.0, in path order."""
    total = 0.0
    for seg_id in path:
        total += float(lengths_m[seg_id]) / (max(float(speeds_kph[seg_id]), floor) / 3.6)
    return total


def float_bits(value: float) -> bytes:
    return struct.pack("<d", value)


ETA_SPEED = st.one_of(st.sampled_from([0.0, -0.0, 4.999, 5.0, 5e-324, math.nan, math.inf, 1e300]),
                      st.floats(min_value=-10.0, max_value=200.0), st.floats(allow_infinity=False))
ETA_LENGTH = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e300]), st.floats(min_value=0.0, max_value=1e300))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_pass_etas_equal_the_loop_bit_for_bit(data):
    """Every record's every super-segment in one array pass, against a loop per (record, super-segment): speeds
    under the 5 km/h floor, NaN, infinite and signed-zero speeds, zero and subnormal lengths, repeated segments."""
    seg_ids = [f"s{j}" for j in range(data.draw(st.integers(1, 6), "segments"))]
    paths = data.draw(st.lists(st.lists(st.sampled_from(seg_ids), min_size=1, max_size=8), max_size=5), "paths")
    supersegments = [SuperSegment(f"ss{i}", tuple(path), {}) for i, path in enumerate(paths)]
    records = data.draw(st.integers(0, 4), "records")
    speeds = np.array(data.draw(st.lists(ETA_SPEED, min_size=records * len(seg_ids), max_size=records * len(seg_ids)),
                                "speeds"), np.float64).reshape(records, len(seg_ids))
    lengths = data.draw(st.lists(ETA_LENGTH, min_size=len(seg_ids), max_size=len(seg_ids)), "lengths")
    etas = etas_from_speeds(supersegments, seg_ids, lengths, speeds)
    assert etas.shape == (records, len(supersegments))
    for k in range(records):
        by_id = dict(zip(seg_ids, speeds[k].tolist()))
        for i, ss in enumerate(supersegments):
            expected = loop_eta(ss.path, by_id, dict(zip(seg_ids, lengths)))
            assert float_bits(etas[k, i]) == float_bits(expected)


def test_one_pass_eta_of_negative_zero_times_is_the_loop_s_0_0():
    """The loop's running total starts at 0.0, and 0.0 + -0.0 is 0.0: a cumsum from the first term would keep -0.0."""
    eta = etas_from_speeds([path_ss("a", "a")], ["a"], [-0.0], np.array([[36.0]]))[0, 0]
    assert float_bits(eta) == float_bits(loop_eta(("a", "a"), {"a": 36.0}, {"a": -0.0})) == float_bits(0.0)


def test_one_pass_etas_refuse_an_empty_path_and_a_segment_without_a_speed():
    with pytest.raises(ValueError, match="'ss' has an empty path"):
        etas_from_speeds([SuperSegment("ss", (), {})], ["a"], [1.0], np.ones((2, 1)))
    with pytest.raises(ValueError, match="no predicted speed for segment 'b'"):
        etas_from_speeds([path_ss("a", "b", "c")], ["a", "c"], [1.0, 1.0], np.ones((2, 2)))


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


# -- the whole-table scorers against a per-record loop, bit for bit -----------------------------------------------

# probabilities at the edges: exactly 1.0 (-log gives -0.0), 0.0 and values below PROB_CLIP (clipped), a subnormal
EDGE_PROBS = st.one_of(st.sampled_from([1.0, 0.0, PROB_CLIP, PROB_CLIP / 2, 5e-324, 0.5]), st.floats(0.0, 1.0))


def reference_core(probs: dict[str, np.ndarray], table) -> tuple:
    """The score, per-record means and count by a loop: each record's -log probabilities added left to right in
    segment order from 0.0, then the records' sums in table order."""
    total, n, per_record = 0.0, 0, {}
    for row, record_id in enumerate(table.record_ids):
        scored = [j for j in range(len(table.segment_ids)) if table.cc[row, j] > 0]
        if not scored:
            continue
        picked = np.array([probs[record_id][j, table.cc[row, j] - 1] for j in scored])
        record_total = 0.0
        for value in (-np.log(np.clip(picked, PROB_CLIP, 1.0))).tolist():
            record_total += value
        per_record[record_id] = record_total / len(scored)
        total += record_total
        n += len(scored)
    return (total / n if n else None), per_record, n


def bits(score) -> tuple:
    """A score as exact bits: ``float.hex`` of the score and of every per-record value, and the count."""
    hexed = None if score.score is None else float.hex(score.score)
    return hexed, {rid: float.hex(value) for rid, value in score.per_record.items()}, score.n_scored


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_core_metric_equals_a_per_record_loop_in_every_input_form(data):
    n_segments = data.draw(st.integers(0, 40), "segments")  # 8 and more: np.sum would add in another order
    record_ids = [f"r{k}" for k in range(data.draw(st.integers(0, 5), "records"))]
    segment_ids = [f"s{j}" for j in range(n_segments)]
    cc = data.draw(arrays(np.int8, (len(record_ids), n_segments), elements=st.sampled_from([-1, 0, 1, 2, 3])), "cc")
    table = label_table({rid: dict(zip(segment_ids, row)) for rid, row in zip(record_ids, cc.tolist())}, segment_ids)
    values = data.draw(arrays(np.float64, (len(record_ids), n_segments, 3), elements=EDGE_PROBS), "probabilities")
    probs = dict(zip(record_ids, values))
    expected_score, expected_per_record, expected_n = reference_core(probs, table)
    expected = CoreScore(expected_score, expected_per_record, expected_n)

    order = data.draw(st.permutations(range(n_segments)), "block segment order")
    no_etas = np.empty((len(record_ids), 0))
    in_order = PredictionTable(record_ids, segment_ids, [], values, no_etas)
    block = PredictionTable(record_ids, [segment_ids[j] for j in order], [], values[:, order], no_etas)
    mapping = {rid: dict(zip(segment_ids, rows.tolist())) for rid, rows in probs.items()}
    for form in (in_order, block, mapping):
        assert bits(core_metric(form, table)) == bits(expected)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_eta_metric_equals_a_per_record_loop_for_a_mapping_and_a_block(data):
    record_ids = [f"r{k}" for k in range(data.draw(st.integers(1, 5), "records"))]
    ss_ids = [f"ss{j}" for j in range(data.draw(st.integers(1, 8), "supersegments"))]
    pairs = data.draw(st.permutations([(rid, ss) for rid in record_ids for ss in ss_ids]), "pair order")
    pairs = pairs[:data.draw(st.integers(0, len(pairs)), "labeled pairs")]  # 8 and more: np.sum adds in another order
    seconds = st.one_of(st.sampled_from([0.0, 1e-300, 1e300]), st.floats(0.0, 1e6))
    labeled = dict(zip(pairs, data.draw(arrays(np.float64, len(pairs), elements=seconds), "truth").tolist()))
    values = data.draw(arrays(np.float64, (len(record_ids), len(ss_ids)), elements=seconds), "predicted")
    predicted = {(rid, ss): values[k, j] for k, rid in enumerate(record_ids) for j, ss in enumerate(ss_ids)}

    total, sums, counts = 0.0, {}, {}
    for (rid, ss), truth in labeled.items():  # the loop the array sums replace
        error = abs(float(predicted[rid, ss]) - float(truth))
        total += error
        sums[rid] = sums.get(rid, 0.0) + error
        counts[rid] = counts.get(rid, 0) + 1
    n = len(labeled)
    expected = EtaScore(total / n if n else None, {rid: sums[rid] / counts[rid] for rid in sums}, n)
    block = PredictionTable(record_ids, [], ss_ids, np.empty((len(record_ids), 0, 3)), values)
    for form in (predicted, block):
        assert bits(eta_metric(form, labeled)) == bits(expected)


def test_a_block_missing_a_segment_names_the_fault_the_mapping_names():
    table = label_table({"r0": {"a": 0, "b": 2}, "r1": {"a": 1, "b": 3}})
    block = PredictionTable(("r0", "r1"), ("b",), (), np.full((2, 1, 3), 1.0 / 3.0), np.empty((2, 0)))
    mapping = {rid: {"b": [1.0 / 3.0] * 3} for rid in ("r0", "r1")}
    for form in (block, mapping):
        with pytest.raises(PredictionError, match="record 'r1': no prediction for segment 'a'") as caught:
            core_metric(form, table)
        assert caught.value.record_id == "r1"


def test_the_first_labeled_pair_without_a_predicted_eta_is_named_for_a_mapping_and_a_block():
    labeled = {("r1", "ss0"): 5.0, ("r0", "ss1"): 6.0, ("r0", "ss0"): 7.0}
    block = PredictionTable(("r0", "r1"), (), ("ss0",), np.empty((2, 0, 3)), np.ones((2, 1)))
    mapping = {("r0", "ss0"): 1.0, ("r1", "ss0"): 1.0}
    for form in (block, mapping):
        with pytest.raises(PredictionError, match=r"\('r0', 'ss1'\)") as caught:
            eta_metric(form, labeled)
        assert caught.value.record_id == "r0"


def test_every_vector_of_a_mapping_is_read_and_a_nan_in_a_table_is_no_prediction():
    """The mapping form is read whole, so a bad vector on a segment the labels skip is refused too; in a table NaN is
    no prediction, named only where a scored segment needs one."""
    table = label_table({"r0": {"a": 0, "b": 2}})
    with pytest.raises(PredictionError, match="record 'r0', segment 'a': expected 3 finite probabilities"):
        core_metric({"r0": {"a": "abc", "b": UNIFORM}}, table)
    holes = PredictionTable(["r0"], ["a", "b"], ["ss0"], np.array([[[math.nan] * 3, UNIFORM]]), np.array([[math.nan]]))
    assert core_metric(holes, table).n_scored == 1
    with pytest.raises(PredictionError, match="record 'r0': no prediction for segment 'b'"):
        core_metric(holes._replace(segment_ids=["b", "a"]), table)
    with pytest.raises(PredictionError, match=r"no predicted eta for \(record, supersegment\) \('r0', 'ss0'\)"):
        eta_metric(holes, {("r0", "ss0"): 1.0})
