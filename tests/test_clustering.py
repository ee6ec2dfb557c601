"""Equal-frequency binning, threshold assignment, and prior matrices
against brute-force tallies."""

import json
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t4c.clustering import (
    ClusterModel,
    assign_cluster,
    build_prior_matrices,
    fit_clusters,
    load_cluster_model,
    save_cluster_model,
    volume_sum,
)
from t4c.data import VolumeRecord

from conftest import label_table

SEG_IDS = ("e1", "e2", "e3")  # the toy graph's segments, in graph order


def rec(record_id, total, bins=None):
    volumes = {"A": bins} if bins is not None else ({"A": (total, 0, 0, 0)} if total else {})
    return VolumeRecord(record_id, date(2022, 1, 3), 30, volumes)


# -- volume_sum -----------------------------------------------------------------


def test_volume_sum_adds_all_bins():
    r = VolumeRecord("r", date(2022, 1, 3), 30, {"A": (1, 2, 3, 4), "B": (0, 0, 5, 0)})
    assert volume_sum(r) == 15.0


def test_volume_sum_empty_mapping_is_zero():
    assert volume_sum(rec("r", 0)) == 0.0


def test_volume_sum_all_zero_counter():
    assert volume_sum(rec("r", None, bins=(0, 0, 0, 0))) == 0.0


# -- fit_clusters ----------------------------------------------------------------


def test_twenty_distinct_records_make_pairs():
    records = [rec(f"r{i:02d}", i + 1) for i in range(20)]
    model = fit_clusters(records, 10)
    for i in range(20):
        assert model.assignment[f"r{i:02d}"] == i // 2
    assert model.thresholds == (3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0, 19.0)


def test_ties_break_by_record_id():
    records = [rec(f"r{i}", None, bins=(5, 0, 0, 0)) for i in range(10)]
    model = fit_clusters(records, 10)
    expected = {f"r{i}": i for i in range(10)}  # lexicographic r0..r9
    assert model.assignment == expected


def test_23_records_cluster_sizes_match_rank_oracle():
    rng = np.random.default_rng(0)
    totals = rng.integers(0, 100, size=23)
    records = [rec(f"r{i:02d}", int(totals[i])) for i in range(23)]
    model = fit_clusters(records, 10)

    # oracle: independent rank enumeration
    order = sorted(range(23), key=lambda i: (float(totals[i]), f"r{i:02d}"))
    expected = {f"r{i:02d}": (order.index(i) * 10) // 23 for i in range(23)}
    assert model.assignment == expected

    sizes = np.bincount(list(model.assignment.values()), minlength=10)
    assert sorted(sizes.tolist()) == [2] * 7 + [3] * 3


def test_fewer_records_than_clusters_errors():
    with pytest.raises(ValueError):
        fit_clusters([rec("a", 1)], 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(10, 200), st.integers(2, 12), st.integers(0, 2**31))
def test_equal_frequency_property(n, k, seed):
    if n < k:
        n = k
    rng = np.random.default_rng(seed)
    records = [rec(f"r{i:04d}", int(rng.integers(0, 30))) for i in range(n)]
    model = fit_clusters(records, k)
    sizes = np.bincount(list(model.assignment.values()), minlength=k)
    assert sizes.max() - sizes.min() <= 1
    assert all(b >= a for a, b in zip(model.thresholds, model.thresholds[1:]))


def test_fit_is_permutation_invariant():
    rng = np.random.default_rng(1)
    records = [rec(f"r{i:03d}", int(rng.integers(0, 10))) for i in range(37)]
    model_a = fit_clusters(records, 5)
    shuffled = list(records)
    rng.shuffle(shuffled)
    model_b = fit_clusters(shuffled, 5)
    assert model_a == model_b


# -- assign_cluster ---------------------------------------------------------------


def test_assign_between_thresholds():
    model = ClusterModel(3, (3.0, 5.0), {})
    assert assign_cluster(model, rec("x", 4)) == 1


def test_assign_below_first_threshold():
    model = ClusterModel(3, (3.0, 5.0), {})
    assert assign_cluster(model, rec("x", 2)) == 0


def test_assign_above_last_threshold():
    model = ClusterModel(3, (3.0, 5.0), {})
    assert assign_cluster(model, rec("x", 99)) == 2


def test_training_records_map_to_their_cluster_off_boundaries():
    records = [rec(f"r{i:02d}", i * 3 + 1) for i in range(20)]
    model = fit_clusters(records, 4)
    for r in records:
        assert assign_cluster(model, r) == model.assignment[r.record_id]


# -- prior matrices ----------------------------------------------------------------


def test_prior_row_from_four_labels(toy_graph):
    records = [rec(f"r{i}", i) for i in range(4)]
    model = ClusterModel(1, (), {f"r{i}": 0 for i in range(4)})
    labels = label_table({"r0": {"e1": 1}, "r1": {"e1": 1}, "r2": {"e1": 2}, "r3": {"e1": 3}})
    priors, _support = build_prior_matrices(model, labels, toy_graph)
    assert np.allclose(priors[0, 0], [0.5, 0.25, 0.25])  # e1


def test_undefined_merges_into_green(toy_graph):
    model = ClusterModel(1, (), {"r0": 0, "r1": 0})
    labels = label_table({"r0": {"e1": 0}, "r1": {"e1": 1}})
    priors, _support = build_prior_matrices(model, labels, toy_graph)
    assert priors[0, 0].tolist() == [1.0, 0.0, 0.0]  # e1


def test_zero_support_row_uses_global_distribution(toy_graph):
    # e1 labeled only in cluster 0 with distribution (0.7, 0.2, 0.1) over 10 labels
    assignment = {f"r{i}": 0 for i in range(10)}
    assignment["r_other"] = 1
    model = ClusterModel(2, (100.0,), assignment)
    cc_seq = [1] * 7 + [2] * 2 + [3]
    cc_by_record = {f"r{i}": {"e1": cc_seq[i]} for i in range(10)}
    cc_by_record["r_other"] = {"e2": 1}  # cluster 1 never labels e1
    labels = label_table(cc_by_record)
    priors, support = build_prior_matrices(model, labels, toy_graph)
    assert np.allclose(priors[0, 1], [0.7, 0.2, 0.1])  # e1
    assert support[0].tolist() == [10, 0]


def test_never_labeled_segment_gets_uniform(toy_graph):
    model = ClusterModel(2, (5.0,), {"r0": 0})
    labels = label_table({"r0": {"e1": 1}})
    priors, _support = build_prior_matrices(model, labels, toy_graph)
    assert np.allclose(priors[2], 1.0 / 3.0)  # e3


def test_unknown_record_rejected(toy_graph):
    model = ClusterModel(1, (), {"r0": 0})
    with pytest.raises(ValueError):
        build_prior_matrices(model, label_table({"zz": {"e1": 1}}), toy_graph)


def test_rows_are_probability_vectors(toy_graph):
    rng = np.random.default_rng(7)
    n = 40
    records = [rec(f"r{i:02d}", int(rng.integers(0, 50))) for i in range(n)]
    model = fit_clusters(records, 5)
    cc_by_record = {}
    for i in range(n):
        edges = {}
        for seg in ("e1", "e2", "e3"):
            if rng.random() < 0.6:
                edges[seg] = int(rng.integers(0, 4))
        cc_by_record[f"r{i:02d}"] = edges
    priors, _support = build_prior_matrices(model, label_table(cc_by_record, ("e1", "e2", "e3")), toy_graph)
    assert priors.shape == (3, 5, 3)
    assert np.all(priors >= 0)
    assert np.all(np.abs(priors.sum(axis=2) - 1.0) <= 1e-9)


def test_matches_brute_force_tally_exactly(toy_graph):
    """Independent oracle: walk every (record, segment) pair and tally."""
    rng = np.random.default_rng(3)
    n = 50
    records = [rec(f"r{i:02d}", int(rng.integers(0, 40))) for i in range(n)]
    model = fit_clusters(records, 10)
    cc_by_record = {}
    for i in range(n):
        edges = {}
        for seg in ("e1", "e2", "e3"):
            if rng.random() < 0.7:
                edges[seg] = int(rng.integers(0, 4))
        cc_by_record[f"r{i:02d}"] = edges
    priors, supports = build_prior_matrices(model, label_table(cc_by_record, ("e1", "e2", "e3")), toy_graph)

    for j, seg in enumerate(("e1", "e2", "e3")):  # the toy graph's segment order
        tally = np.zeros((10, 3))
        for record_id, edges in cc_by_record.items():
            if seg not in edges:
                continue
            col = {0: 0, 1: 0, 2: 1, 3: 2}[edges[seg]]
            tally[model.assignment[record_id], col] += 1
        global_counts = tally.sum(axis=0)
        fallback = global_counts / global_counts.sum() if global_counts.sum() else np.full(3, 1 / 3)
        for row in range(10):
            support = tally[row].sum()
            expected = tally[row] / support if support else fallback
            assert np.array_equal(priors[j, row], expected), (seg, row)
            assert supports[j, row] == support, (seg, row)


# -- serialization -----------------------------------------------------------------


def test_cluster_model_json_round_trip(toy_graph, tmp_path):
    records = [rec(f"r{i:02d}", i) for i in range(20)]
    model = fit_clusters(records, 4)
    labels = label_table({f"r{i:02d}": {"e1": (i % 3) + 1} for i in range(20)})
    priors, _support = build_prior_matrices(model, labels, toy_graph)
    path = save_cluster_model(tmp_path / "cluster_model.json", model, priors, SEG_IDS)
    loaded_model, loaded_priors = load_cluster_model(path, SEG_IDS)
    assert loaded_model.num_clusters == 4
    assert loaded_model.thresholds == model.thresholds
    assert loaded_priors.tobytes() == priors.tobytes()
    assert sorted(json.loads(path.read_text())["priors"]) == list(SEG_IDS)
    reordered = load_cluster_model(path, SEG_IDS[::-1])[1]  # the block follows the ids asked for
    assert reordered.tobytes() == priors[::-1].tobytes()


@pytest.mark.parametrize("key, value", [
    ("K", 0),
    ("K", -4),
    ("K", 4.0),
    ("K", "4"),
    ("K", True),
    ("thresholds", "appended"),
    ("thresholds", "dropped"),
    ("thresholds", "decreasing"),
    ("thresholds", [5.0, "10.0", 15.0]),
    ("thresholds", [5.0, None, 15.0]),
    ("thresholds", [5.0, True, 15.0]),
    ("thresholds", [5.0, float("nan"), 15.0]),
    ("thresholds", [5.0, 10.0, float("inf")]),
    ("thresholds", [5.0, 10.0, 10**400]),
])
def test_cluster_model_with_bad_k_or_thresholds_names_the_file(toy_graph, tmp_path, key, value):
    """K is a positive JSON integer; thresholds are K - 1 finite, non-decreasing JSON numbers."""
    records = [rec(f"r{i:02d}", i) for i in range(20)]
    model = fit_clusters(records, 4)
    priors, _support = build_prior_matrices(model, label_table({f"r{i:02d}": {"e1": 1} for i in range(20)}), toy_graph)
    path = save_cluster_model(tmp_path / "cluster_model.json", model, priors, SEG_IDS)
    obj = json.loads(path.read_text())
    thresholds = obj["thresholds"]
    edits = {"appended": thresholds + [thresholds[-1] + 1.0], "dropped": thresholds[:-1], "decreasing": thresholds[::-1]}
    obj[key] = edits.get(value, value) if isinstance(value, str) else value
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError) as err:
        load_cluster_model(path, SEG_IDS)
    assert str(path) in str(err.value) and "t4c fit-clusters" in str(err.value)


def test_cluster_model_with_equal_integer_thresholds_loads(toy_graph, tmp_path):
    records = [rec(f"r{i:02d}", i // 10) for i in range(20)]
    model = fit_clusters(records, 4)
    assert model.thresholds == (0.0, 1.0, 1.0)
    priors, _support = build_prior_matrices(model, label_table({f"r{i:02d}": {"e1": 1} for i in range(20)}), toy_graph)
    path = save_cluster_model(tmp_path / "cluster_model.json", model, priors, SEG_IDS)
    obj = json.loads(path.read_text())
    obj["thresholds"] = [0, 1, 1]
    path.write_text(json.dumps(obj))
    loaded, _ = load_cluster_model(path, SEG_IDS)
    assert loaded.thresholds == model.thresholds
