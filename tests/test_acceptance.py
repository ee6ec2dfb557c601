"""Acceptance gate: eight end-to-end criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines.
The ordering experiment (criterion 6) trains the full model and its
no-prior ablation for 20 epochs each on the fixed 50-node synthetic city
and compares them against the two counting baselines on the validation
split; everything is seeded so the outcome is deterministic.
"""

import time
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from t4c.checkpoint import load_checkpoint, save_checkpoint
from t4c.clustering import assign_cluster, build_prior_matrices, fit_clusters
from t4c.data import (
    SuperSegment,
    SynthSpec,
    VolumeRecord,
    daytime_filter,
    generate_synthetic_city,
    load_dataset,
    split_train_validation,
    write_dataset,
)
from t4c.evaluation import core_metric, etas_from_speeds
from t4c.baselines import fit_naive, fit_volume_cluster
from t4c.model import ModelConfig, init_params
from t4c.training import TrainConfig, ensemble_predict, prepare_ensemble, prepare_training, run_ablation, train_one

from conftest import central_diff_store, label_table, max_rel_error, same_checkpoint, same_dataset
from reference import compute_loss, forward, predict_record
from test_model import TINY, six_segment_labels, six_segment_setup

# fixed experiment settings for the ordering criterion: 50 nodes, 10%
# counters, 200 daytime records, signal 0.9, 20 epochs, all seeds pinned
ORDERING_SPEC = SynthSpec(num_nodes=50, counter_fraction=0.1, num_records=200,
                          signal=0.9, records_per_day=16)
ORDERING_SEED = 1
ORDERING_TRAIN = TrainConfig(epochs=20, batch_size=2, learning_rate=5e-3, ensemble_size=1)
ORDERING_MODEL = ModelConfig(
    volume_hidden=(16,), static_hidden=(16,), gnn_layers=2, hidden=32,
    head_blocks=1, num_clusters=5, prior_mode="active_row",
)
MARGIN = 0.005  # required relative separation between compared scores


def _training_set(train_cfg, dataset, cluster_model, priors):
    return prepare_training(train_cfg, dataset, cluster_model, priors, ORDERING_MODEL)


@pytest.fixture(scope="module")
def ordering_city(tmp_path_factory):
    out = tmp_path_factory.mktemp("ordering") / "city"
    dataset = generate_synthetic_city(ORDERING_SPEC, ORDERING_SEED, out)
    return dataset, out


@pytest.fixture(scope="module")
def ordering_fit(ordering_city):
    dataset, _ = ordering_city
    records = daytime_filter(dataset.records, *ORDERING_TRAIN.daytime)
    train_records, val_records = split_train_validation(
        records, 1.0 - ORDERING_TRAIN.val_fraction, ORDERING_TRAIN.split_seed
    )
    train_labels = dataset.labels.select(r.record_id for r in train_records)
    val_labels = dataset.labels.select(r.record_id for r in val_records)
    cluster_model = fit_clusters(train_records, ORDERING_MODEL.num_clusters)
    priors, _support = build_prior_matrices(cluster_model, train_labels, dataset.graph)
    return cluster_model, priors, train_records, val_records, train_labels, val_labels


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    cfg = TINY
    graph, feats, counter = six_segment_setup(cfg)
    labels = six_segment_labels()
    cc_w = np.array([1.0, 2.0, 0.5])
    vol_w = np.array([0.7, 1.0, 1.3])
    store = init_params(cfg, seed=11)

    def loss_value() -> float:
        loss, _ = compute_loss(
            forward(store, cfg, graph, feats, counter), labels, cc_w, vol_w, cfg.lambdas
        )
        return float(loss.data)

    loss, _ = compute_loss(forward(store, cfg, graph, feats, counter), labels, cc_w, vol_w, cfg.lambdas)
    store.zero_grad()
    loss.backward()
    numeric = central_diff_store(loss_value, store, h=1e-5)
    worst = 0.0
    for name in store.state_arrays():
        p = store[name]
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        worst = max(worst, max_rel_error(grad, numeric[name]))
    elapsed = time.perf_counter() - started
    assert worst < 1e-6
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1 PASS: full-model gradient check, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_clustering_properties(toy_graph):
    rng = np.random.default_rng(123)
    records = [
        VolumeRecord(f"r{i:04d}", date(2022, 1, 3), 30, {"A": tuple(int(v) for v in rng.integers(0, 40, 4))})
        for i in range(1000)
    ]
    model = fit_clusters(records, 10)
    sizes = np.bincount(list(model.assignment.values()), minlength=10)
    assert sizes.max() - sizes.min() <= 1

    cc_by_record = {}
    for i in range(1000):
        edges = {}
        for seg in ("e1", "e2", "e3"):
            if rng.random() < 0.6:
                edges[seg] = int(rng.integers(0, 4))
        cc_by_record[f"r{i:04d}"] = edges
    labels = label_table(cc_by_record, ("e1", "e2", "e3"))
    priors, _support = build_prior_matrices(model, labels, toy_graph)
    assert np.all(np.abs(priors.sum(axis=2) - 1.0) <= 1e-9)

    # brute-force oracle on a 50-record subset, exact equality
    small = records[:50]
    small_model = fit_clusters(small, 10)
    small_labels = dict(list(cc_by_record.items())[:50])
    small_priors, _support = build_prior_matrices(small_model, labels.select(small_labels), toy_graph)
    for j, seg in enumerate(("e1", "e2", "e3")):  # the toy graph's segment order
        tally = np.zeros((10, 3))
        for record_id, edges in small_labels.items():
            if seg in edges:
                tally[small_model.assignment[record_id], {0: 0, 1: 0, 2: 1, 3: 2}[edges[seg]]] += 1
        totals = tally.sum(axis=0)
        fallback = totals / totals.sum() if totals.sum() else np.full(3, 1 / 3)
        for row in range(10):
            expected = tally[row] / tally[row].sum() if tally[row].sum() else fallback
            assert np.array_equal(small_priors[j, row], expected)
    print(f"ACCEPTANCE 2 PASS: equal-frequency sizes {sizes.min()}..{sizes.max()}, "
          f"prior rows sum to 1, 50-record oracle exact")


def test_criterion_3_loss_identity():
    cfg = TINY
    assert cfg.lambdas == (0.03, 1.0, 1.0)
    graph, feats, counter = six_segment_setup(cfg)
    store = init_params(cfg, seed=5)
    pred = forward(store, cfg, graph, feats, counter)
    _, report = compute_loss(pred, six_segment_labels(), np.ones(3), np.ones(3), cfg.lambdas)
    recombined = (0.03 * report.loss_cc + 1.0 * report.loss_speed) + 1.0 * report.loss_vol
    gap = abs(report.loss - recombined)
    assert gap <= 1e-12
    print(f"ACCEPTANCE 3 PASS: loss identity gap {gap:.2e} with lambdas (0.03, 1, 1)")


def test_criterion_4_metric_anchors():
    uniform = np.full(3, 1.0 / 3.0)
    labels = label_table({"r": {"a": 1, "b": 3}})
    score = core_metric({"r": {"a": uniform, "b": uniform}}, labels)
    assert abs(score.score - np.log(3.0)) <= 1e-9

    eta = etas_from_speeds([SuperSegment("ss", ("a", "b"), {})], ["a", "b"], [100.0, 200.0], np.array([[36.0, 72.0]]))[0, 0]
    assert eta == 20.0

    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        seg_ids = [f"s{i}" for i in range(n)]
        speeds = {s: float(rng.uniform(0.0, 100.0)) for s in seg_ids}
        lengths = {s: float(rng.uniform(10.0, 800.0)) for s in seg_ids}
        cut = int(rng.integers(1, n))
        paths = [SuperSegment("w", tuple(seg_ids), {}), SuperSegment("l", tuple(seg_ids[:cut]), {}),
                 SuperSegment("r", tuple(seg_ids[cut:]), {})]
        whole, left, right = etas_from_speeds(paths, seg_ids, [lengths[s] for s in seg_ids],
                                              np.array([[speeds[s] for s in seg_ids]]))[0].tolist()
        assert abs(whole - (left + right)) <= 1e-9 * max(whole, 1.0)
    print(f"ACCEPTANCE 4 PASS: uniform predictor ln3, 20 s path anchor, 100 additive splits")


def test_criterion_5_ensemble_exactness(ordering_city, ordering_fit):
    dataset, _ = ordering_city
    cluster_model, priors, *_ = ordering_fit
    cfg = replace(ORDERING_TRAIN, epochs=2, ensemble_size=3)
    training_set = prepare_training(cfg, dataset, cluster_model, priors, ORDERING_MODEL)
    checkpoints = [train_one(training_set, ORDERING_MODEL, seed)[0] for seed in cfg.seeds()]
    record = dataset.records[5]
    member_probs = [
        predict_record(c, dataset.graph, priors, record, cluster_model)
        for c in checkpoints
    ]
    expected_cc = (member_probs[0].cc + member_probs[1].cc + member_probs[2].cc) / 3.0
    expected_vol = (member_probs[0].vol + member_probs[1].vol + member_probs[2].vol) / 3.0
    expected_speed = (
        member_probs[0].speed_kph + member_probs[1].speed_kph + member_probs[2].speed_kph
    ) / 3.0
    ensembled = ensemble_predict(prepare_ensemble(checkpoints, dataset.graph, priors, cluster_model), record)
    assert np.array_equal(ensembled.cc, expected_cc)
    assert np.array_equal(ensembled.vol, expected_vol)
    assert np.array_equal(ensembled.speed_kph, expected_speed)

    single = predict_record(checkpoints[0], dataset.graph, priors, record, cluster_model)
    solo = ensemble_predict(prepare_ensemble(checkpoints[:1], dataset.graph, priors, cluster_model), record)
    assert np.array_equal(single.cc, solo.cc)
    assert np.array_equal(single.speed_kph, solo.speed_kph)
    print("ACCEPTANCE 5 PASS: 3-member mean bit-for-bit, single member identical")


def test_criterion_6_ordering_reproduction(ordering_city, ordering_fit):
    started = time.perf_counter()
    dataset, _ = ordering_city
    cluster_model, priors, train_records, val_records, train_labels, val_labels = ordering_fit
    assert 120 <= len(dataset.graph.segments) <= 180
    seg_ids, train_ids = dataset.graph.segment_ids, [r.record_id for r in train_records]

    naive = fit_naive(train_labels, dataset.supersegments, train_ids)
    naive_score = core_metric(
        {r.record_id: dict(zip(seg_ids, naive.cc_probs)) for r in val_records},
        val_labels,
    ).score

    vc = fit_volume_cluster(cluster_model, train_labels, dataset.supersegments, train_ids, dataset.graph)
    vc_preds = {}
    for r in val_records:
        cluster = assign_cluster(cluster_model, r)
        vc_preds[r.record_id] = dict(zip(seg_ids, vc.cc_probs[:, cluster]))
    vc_score = core_metric(vc_preds, val_labels).score

    result = run_ablation(
        dataset, ["full", "no_cluster"], cluster_model, priors,
        ORDERING_TRAIN, ORDERING_MODEL,
    )
    full_score = result.scores["full"]
    no_cluster_score = result.scores["no_cluster"]
    # identical seed -> identical record order across the two variants
    assert result.data_order_hashes["full"] == result.data_order_hashes["no_cluster"]

    elapsed = time.perf_counter() - started
    assert full_score < vc_score * (1.0 - MARGIN)
    assert vc_score < naive_score * (1.0 - MARGIN)
    assert no_cluster_score > full_score * (1.0 + MARGIN)
    assert elapsed < 600.0
    print(
        "ACCEPTANCE 6 PASS: "
        f"full {full_score:.5f} < volume_cluster {vc_score:.5f} < naive {naive_score:.5f}; "
        f"no_cluster {no_cluster_score:.5f} > full; {elapsed:.0f}s"
    )


def test_criterion_7_train_determinism(ordering_city, ordering_fit):
    dataset, _ = ordering_city
    cluster_model, priors, *_ = ordering_fit
    cfg = replace(ORDERING_TRAIN, epochs=3)
    ckpt_a, runlog_a = train_one(_training_set(cfg, dataset, cluster_model, priors), ORDERING_MODEL, seed=4)
    ckpt_b, runlog_b = train_one(_training_set(cfg, dataset, cluster_model, priors), ORDERING_MODEL, seed=4)
    assert set(ckpt_a.params) == set(ckpt_b.params)
    for name in ckpt_a.params:
        assert np.array_equal(ckpt_a.params[name], ckpt_b.params[name]), name
    assert runlog_a == runlog_b
    assert runlog_a.data_order_hash == runlog_b.data_order_hash
    print("ACCEPTANCE 7 PASS: repeated training bitwise-identical (params and run log)")


def test_criterion_8_round_trips(ordering_city, ordering_fit, tmp_path):
    dataset, _ = ordering_city
    cluster_model, priors, *_ = ordering_fit
    write_dataset(dataset, tmp_path / "again")
    assert same_dataset(load_dataset(tmp_path / "again"), dataset)

    cfg = replace(ORDERING_TRAIN, epochs=1)
    ckpt, _ = train_one(_training_set(cfg, dataset, cluster_model, priors), ORDERING_MODEL, seed=2)
    path = save_checkpoint(tmp_path / "checkpoint.bin", ckpt)
    loaded = load_checkpoint(path)
    assert same_checkpoint(loaded, ckpt)
    for name in ckpt.params:
        assert np.array_equal(loaded.params[name], ckpt.params[name])
    assert loaded.norm_stats.speed_mean == ckpt.norm_stats.speed_mean
    assert loaded.norm_stats.speed_std == ckpt.norm_stats.speed_std
    assert np.array_equal(loaded.norm_stats.cont_mean, ckpt.norm_stats.cont_mean)
    print("ACCEPTANCE 8 PASS: dataset write/load and checkpoint save/load exact")
