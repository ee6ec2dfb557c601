"""Counting baselines against brute-force tallies, the K=1 degeneracy,
serialization, and node-GNN ordering runs."""

import json
from datetime import date

import numpy as np
import pytest

from t4c.baselines import (
    fit_naive,
    fit_volume_cluster,
    node_gnn_baseline,
    save_baseline,
)
from t4c.clustering import ClusterModel, fit_clusters, build_prior_matrices
from t4c.data import (
    NodeRec,
    RoadGraph,
    SuperSegment,
    SynthSpec,
    VolumeRecord,
    daytime_filter,
    generate_synthetic_city,
    split_train_validation,
)
from t4c.evaluation import core_metric
from t4c.model import ModelConfig
from t4c.training import TrainConfig, prepare_training, train_one

from conftest import label_table, make_segment

SEGS = ("e1", "e2", "e3")


# -- naive count ------------------------------------------------------------------


def test_naive_per_segment_distribution():
    labels = label_table({f"r{i}": {"s": c} for i, c in enumerate([1, 1, 2, 3, 1])})
    model = fit_naive(labels, [], labels.record_ids)
    assert model.segment_ids == ("s",)
    assert np.allclose(model.cc_probs[0], [0.6, 0.2, 0.2])


def test_naive_lower_median_eta():
    labels = label_table({f"r{i}": {"s": 1} for i in range(4)})
    ss = SuperSegment("ss0", ("s",), {f"r{i}": eta for i, eta in enumerate([10.0, 20.0, 30.0, 40.0])})
    model = fit_naive(labels, [ss], labels.record_ids)
    assert model.eta_median["ss0"] == 20.0


def test_naive_unlabeled_segment_falls_back_to_global():
    labels = label_table({"r0": {"a": 1}, "r1": {"a": 2}}, ("a", "never_seen"))
    model = fit_naive(labels, [], labels.record_ids)
    assert model.labelled.tolist() == [True, False]
    assert np.array_equal(model.cc_probs[1], model.global_probs)
    assert np.allclose(model.global_probs, [0.5, 0.5, 0.0])


def test_naive_undefined_merges_into_green():
    labels = label_table({"r0": {"a": 0}, "r1": {"a": 3}})
    model = fit_naive(labels, [], labels.record_ids)
    assert np.allclose(model.cc_probs[0], [0.5, 0.0, 0.5])


def test_naive_requires_labels():
    with pytest.raises(ValueError):
        fit_naive(label_table({"r0": {}}, SEGS), [], ["r0"])


def test_naive_global_mode_applies_pooled_distribution():
    labels = label_table({"r0": {"a": 1, "b": 3}, "r1": {"a": 1}})
    model = fit_naive(labels, [], labels.record_ids, per_segment=False)
    assert model.segment_ids == ("a", "b")
    assert np.allclose(model.cc_probs, model.global_probs)


def test_naive_eta_restricted_to_training_records():
    labels = label_table({"r0": {"a": 1}})
    ss = SuperSegment("ss0", ("a",), {"r0": 10.0, "r_val": 99999.0})
    model = fit_naive(labels, [ss], ["r0"])
    assert model.eta_median["ss0"] == 10.0


def test_naive_eta_counts_the_training_records_without_a_label_line():
    """The ETAs come from the super-segments, so a training record counts whether or not it has labels."""
    labels = label_table({"r0": {"a": 1}})
    sss = [SuperSegment("ss0", ("a",), {"r1": 30.0, "r2": 10.0, "r_val": 99999.0}),
           SuperSegment("ss1", ("a",), {"r0": 5.0, "r1": 7.0})]
    model = fit_naive(labels, sss, ["r0", "r1", "r2"])
    assert model.eta_median == {"ss0": 10.0, "ss1": 5.0}


def test_naive_matches_brute_force_tally(toy_graph):
    rng = np.random.default_rng(11)
    cc_by_record = {}
    for i in range(50):
        edges = {}
        for seg in SEGS:
            if rng.random() < 0.6:
                edges[seg] = int(rng.integers(0, 4))
        cc_by_record[f"r{i:02d}"] = edges
    model = fit_naive(label_table(cc_by_record, SEGS), [], cc_by_record)
    for j, seg in enumerate(SEGS):
        tally = np.zeros(3)
        for edges in cc_by_record.values():
            if seg in edges:
                tally[{0: 0, 1: 0, 2: 1, 3: 2}[edges[seg]]] += 1
        assert model.labelled[j] == (tally.sum() > 0)
        if tally.sum():
            assert np.array_equal(model.cc_probs[j], tally / tally.sum())


# -- volume cluster -----------------------------------------------------------------


def _clustered_fixture(toy_graph):
    rng = np.random.default_rng(4)
    records = [
        VolumeRecord(f"r{i:02d}", date(2022, 1, 3), 30, {"A": (int(rng.integers(0, 30)), 0, 0, 0)})
        for i in range(30)
    ]
    model = fit_clusters(records, 3)
    cc_by_record = {}
    for i in range(30):
        edges = {}
        for seg in SEGS:
            if rng.random() < 0.8:
                edges[seg] = int(rng.integers(0, 4))
        cc_by_record[f"r{i:02d}"] = edges
    etas = {f"r{i:02d}": float(10 + 5 * (i % 7)) for i in range(30)}
    ss = SuperSegment("ss0", ("e1", "e2"), etas)
    return records, model, cc_by_record, [ss]


def test_volume_cluster_k1_reproduces_naive(toy_graph):
    records, _model, cc_by_record, sss = _clustered_fixture(toy_graph)
    k1 = fit_clusters(records, 1)
    vc = fit_volume_cluster(k1, label_table(cc_by_record, SEGS), sss, cc_by_record, toy_graph)
    naive = vc.naive
    assert np.array_equal(vc.cc_probs[:, 0], naive.cc_probs)
    assert vc.eta_median["ss0"][0] == naive.eta_median["ss0"]


def _one_segment_graph():
    return RoadGraph(nodes=(NodeRec("A", 0, 0, None), NodeRec("B", 0, 0, None)),
                     segments=(make_segment("s", "A", "B"),), counters={})


def test_volume_cluster_median_per_cluster():
    labels = label_table({f"r{i}": {"s": 1} for i in range(3)})
    model = ClusterModel(2, (100.0,), {"r0": 0, "r1": 0, "r2": 0})
    ss = SuperSegment("ss0", ("s",), {"r0": 100.0, "r1": 200.0, "r2": 300.0})
    vc = fit_volume_cluster(model, labels, [ss], labels.record_ids, _one_segment_graph())
    assert vc.eta_median["ss0"][0] == 200.0
    # cluster 1 has no data -> naive fallback
    assert vc.eta_median["ss0"][1] == vc.naive.eta_median["ss0"] == 200.0


def test_volume_cluster_counts_the_etas_of_every_training_record_labelled_or_not():
    """The medians count the records passed in, not every record the cluster model assigned (here also r_val)."""
    labels = label_table({"r0": {"s": 1}})
    model = ClusterModel(2, (100.0,), {"r0": 0, "r1": 1, "r2": 1, "r3": 0, "r_val": 0})
    ss = SuperSegment("ss0", ("s",), {"r1": 100.0, "r2": 300.0, "r3": 50.0, "r_val": 5.0})
    vc = fit_volume_cluster(model, labels, [ss], ["r0", "r1", "r2", "r3"], _one_segment_graph())
    assert vc.naive.eta_median == {"ss0": 100.0}
    assert vc.eta_median["ss0"].tolist() == [50.0, 100.0]


def test_volume_cluster_refuses_a_training_record_without_a_cluster():
    labels = label_table({"r0": {"s": 1}})
    model = ClusterModel(2, (100.0,), {"r0": 0})
    with pytest.raises(ValueError, match="record 'r1' is not in the cluster model's training set"):
        fit_volume_cluster(model, labels, [], ["r0", "r1"], _one_segment_graph())


def test_volume_cluster_zero_support_cc_falls_back_to_naive(toy_graph):
    records, model, cc_by_record, sss = _clustered_fixture(toy_graph)
    # drop every label in cluster 2 for e3
    filtered = {
        record_id: {seg: cc for seg, cc in edges.items() if seg != "e3" or model.assignment[record_id] != 2}
        for record_id, edges in cc_by_record.items()
    }
    vc = fit_volume_cluster(model, label_table(filtered, SEGS), sss, filtered, toy_graph)
    assert np.array_equal(vc.cc_probs[2, 2], vc.naive.cc_probs[2])  # e3, cluster 2


def test_volume_cluster_refuses_labels_in_another_segment_order(toy_graph):
    """Its blocks stack the naive (label table order) and prior (graph order) rows by position."""
    _records, model, cc_by_record, sss = _clustered_fixture(toy_graph)
    with pytest.raises(ValueError, match="not the graph's, in graph order"):
        fit_volume_cluster(model, label_table(cc_by_record, SEGS[::-1]), sss, cc_by_record, toy_graph)


def test_save_baseline_writes_each_model_as_sorted_json(toy_graph, tmp_path):
    records, model, cc_by_record, sss = _clustered_fixture(toy_graph)
    labels = label_table(cc_by_record, SEGS)
    naive = fit_naive(labels, sss, labels.record_ids)
    naive_obj = {
        "per_segment": naive.per_segment,
        "global_probs": naive.global_probs.tolist(),
        "cc_probs": {seg: probs.tolist() for seg, probs in zip(SEGS, naive.cc_probs)},
        "eta_median": naive.eta_median,
    }
    path = save_baseline(tmp_path / "baseline_naive.json", naive)
    text = path.read_text(encoding="utf-8")
    assert json.loads(text) == {"kind": "naive", **naive_obj}
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    vc = fit_volume_cluster(model, labels, sss, labels.record_ids, toy_graph)
    path = save_baseline(tmp_path / "baseline_vc.json", vc)
    text = path.read_text(encoding="utf-8")
    assert json.loads(text) == {
        "kind": "volume_cluster",
        "K": vc.num_clusters,
        "thresholds": list(vc.thresholds),
        "cc_probs": {seg: probs.tolist() for seg, probs in zip(SEGS, vc.cc_probs)},
        "eta_median": {ss: medians.tolist() for ss, medians in vc.eta_median.items()},
        "naive": naive_obj,
    }
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


# -- node GNN -------------------------------------------------------------------------


NODE_TRAIN = TrainConfig(epochs=4, batch_size=2, learning_rate=3e-3, ensemble_size=1)


def test_node_gnn_deterministic(tmp_path):
    spec = SynthSpec(num_nodes=20, counter_fraction=0.3, num_records=40, signal=0.9, records_per_day=8)
    dataset = generate_synthetic_city(spec, seed=3, out_dir=tmp_path / "city")
    a = node_gnn_baseline(dataset, NODE_TRAIN, seed=0)
    b = node_gnn_baseline(dataset, NODE_TRAIN, seed=0)
    assert a == b


def _validation_core_of_naive(dataset, train_cfg):
    records = daytime_filter(dataset.records, *train_cfg.daytime)
    train_records, val_records = split_train_validation(records, 1.0 - train_cfg.val_fraction, train_cfg.split_seed)
    train_ids = [r.record_id for r in train_records]
    naive = fit_naive(dataset.labels.select(train_ids), dataset.supersegments, train_ids)
    predictions = {r.record_id: dict(zip(dataset.graph.segment_ids, naive.cc_probs)) for r in val_records}
    return core_metric(predictions, dataset.labels.select(r.record_id for r in val_records)).score


@pytest.mark.slow
def test_node_gnn_with_sparse_counters_loses_to_main_model(tmp_path):
    """10% counter coverage starves the node GNN; the segment model with
    its clustering priors stays ahead."""
    spec = SynthSpec(num_nodes=30, counter_fraction=0.1, num_records=80, signal=0.9, records_per_day=10)
    dataset = generate_synthetic_city(spec, seed=13, out_dir=tmp_path / "sparse")
    train_cfg = TrainConfig(epochs=12, batch_size=2, learning_rate=5e-3, ensemble_size=1)
    records = daytime_filter(dataset.records, *train_cfg.daytime)
    train_records, _ = split_train_validation(records, 0.8, train_cfg.split_seed)
    cluster_model = fit_clusters(train_records, 5)
    priors, _support = build_prior_matrices(
        cluster_model, dataset.labels.select(r.record_id for r in train_records), dataset.graph
    )
    model_cfg = ModelConfig(volume_hidden=(16,), static_hidden=(16,), gnn_layers=2, hidden=16, head_blocks=1, num_clusters=5)
    training_set = prepare_training(
        train_cfg, dataset, cluster_model, priors, model_cfg.prior_mode, model_cfg.cc_classes
    )
    _ckpt, runlog = train_one(training_set, model_cfg, seed=0)
    main_score = min(e.val_core for e in runlog.epochs)
    gnn_score = node_gnn_baseline(dataset, train_cfg, seed=0)
    assert gnn_score > main_score


@pytest.mark.slow
def test_node_gnn_with_full_counters_beats_naive(tmp_path):
    spec = SynthSpec(num_nodes=20, counter_fraction=1.0, num_records=80, signal=0.95, records_per_day=10)
    dataset = generate_synthetic_city(spec, seed=17, out_dir=tmp_path / "dense")
    train_cfg = TrainConfig(epochs=6, batch_size=2, learning_rate=3e-3, ensemble_size=1)
    gnn_score = node_gnn_baseline(dataset, train_cfg, seed=0)
    naive_score = _validation_core_of_naive(dataset, train_cfg)
    assert gnn_score < naive_score
