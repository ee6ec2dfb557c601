"""Trainer determinism, batch accumulation equivalence, checkpoint
selection, ensembling exactness, and checkpoint round-trips."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t4c import autodiff as ad
from t4c.checkpoint import load_checkpoint, save_checkpoint
from t4c.clustering import build_prior_matrices, fit_clusters
from t4c.data import SynthSpec, daytime_filter, generate_synthetic_city, labels_by_record, split_train_validation
from t4c.model import ModelConfig, compute_loss, forward, init_params
from t4c.seggraph import assemble_features, build_line_graph, fit_normalization
from t4c.training import (
    TrainConfig,
    ensemble_predict,
    load_runlog,
    load_store,
    predict_record,
    save_runlog,
    train_ensemble,
    train_one,
)

SMALL_MODEL = ModelConfig(
    volume_hidden=(16,), static_hidden=(16,), gnn_layers=2, hidden=16,
    head_blocks=1, num_clusters=5,
)
SMALL_TRAIN = TrainConfig(epochs=3, batch_size=2, learning_rate=3e-3, ensemble_size=2, base_seed=0)


@pytest.fixture(scope="module")
def small_city(tmp_path_factory):
    spec = SynthSpec(num_nodes=25, counter_fraction=0.2, num_records=60, signal=0.9, records_per_day=10)
    dataset = generate_synthetic_city(spec, seed=7, out_dir=tmp_path_factory.mktemp("city"))
    records = daytime_filter(dataset.records, *SMALL_TRAIN.daytime)
    train_records, _val = split_train_validation(records, 1.0 - SMALL_TRAIN.val_fraction, SMALL_TRAIN.split_seed)
    cluster_model = fit_clusters(train_records, SMALL_MODEL.num_clusters)
    label_map = labels_by_record(dataset.labels)
    train_labels = [label_map[r.record_id] for r in train_records]
    priors = build_prior_matrices(cluster_model, train_labels, dataset.graph)
    return dataset, cluster_model, priors


@pytest.fixture(scope="module")
def trained(small_city):
    dataset, cluster_model, priors = small_city
    return train_one(SMALL_TRAIN, SMALL_MODEL, dataset, cluster_model, priors, seed=1)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(ensemble_size=0)
    with pytest.raises(ValueError):
        TrainConfig(val_fraction=1.0)
    with pytest.raises(ValueError):
        TrainConfig(ensemble_size=2, member_seeds=(1,)).seeds()
    assert TrainConfig(ensemble_size=3, base_seed=5).seeds() == (5, 6, 7)


def test_two_identical_runs_are_bitwise_identical(small_city, trained):
    dataset, cluster_model, priors = small_city
    ckpt_a, runlog_a = trained
    ckpt_b, runlog_b = train_one(SMALL_TRAIN, SMALL_MODEL, dataset, cluster_model, priors, seed=1)
    assert ckpt_a.equals(ckpt_b)
    assert runlog_a == runlog_b  # wall time excluded from comparison
    assert runlog_a.data_order_hash == runlog_b.data_order_hash


def test_training_loss_decreases_on_learnable_fixture(trained):
    _ckpt, runlog = trained
    assert runlog.epochs[-1].train_loss < runlog.epochs[0].train_loss


def test_best_epoch_minimizes_validation_score(trained):
    _ckpt, runlog = trained
    scores = [e.val_core for e in runlog.epochs]
    assert runlog.best_epoch == int(np.argmin(scores))
    assert scores[runlog.best_epoch] == min(scores)


def test_runlog_round_trip(tmp_path, trained):
    _ckpt, runlog = trained
    path = save_runlog(tmp_path / "runlog.json", runlog)
    loaded = load_runlog(path)
    assert loaded == runlog
    assert loaded.wall_time_s is None  # timing never serialized
    # canonical bytes are reproducible
    again = save_runlog(tmp_path / "runlog2.json", loaded)
    assert path.read_bytes() == again.read_bytes()


def test_checkpoint_round_trip_is_bit_exact(tmp_path, trained):
    ckpt, _runlog = trained
    path = save_checkpoint(tmp_path / "checkpoint.bin", ckpt)
    loaded = load_checkpoint(path)
    assert loaded.equals(ckpt)
    for name in ckpt.params:
        assert np.array_equal(loaded.params[name], ckpt.params[name])
    assert loaded.config == ckpt.config
    assert np.array_equal(loaded.cc_weights, ckpt.cc_weights)
    assert loaded.norm_stats.speed_mean == ckpt.norm_stats.speed_mean
    # byte determinism of the container itself
    again = save_checkpoint(tmp_path / "checkpoint2.bin", loaded)
    assert path.read_bytes() == again.read_bytes()


@pytest.fixture(scope="module")
def checkpoint_file(trained, tmp_path_factory):
    return save_checkpoint(tmp_path_factory.mktemp("ckpt") / "checkpoint.bin", trained[0])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_truncated_checkpoint_raises_value_error_naming_the_path(checkpoint_file, data):
    raw = checkpoint_file.read_bytes()
    header_end = 16 + int.from_bytes(raw[8:16], "little")
    boundaries = [0, 3, 4, 5, 8, 15, 16, 17, header_end - 1, header_end, header_end + 1, len(raw) - 1]
    cut = data.draw(st.one_of(st.sampled_from(boundaries), st.integers(0, len(raw) - 1)))
    path = checkpoint_file.with_name("cut.bin")
    path.write_bytes(raw[:cut])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_gradient_accumulation_equals_mean_of_gradients(small_city):
    """One batch step over {r1, r2} == Adam on the mean of their gradients."""
    dataset, cluster_model, priors = small_city
    records = daytime_filter(dataset.records, *SMALL_TRAIN.daytime)
    train_records, _ = split_train_validation(records, 0.8, SMALL_TRAIN.split_seed)
    label_map = labels_by_record(dataset.labels)
    seg_graph = build_line_graph(dataset.graph)
    stats = fit_normalization(dataset.graph, train_records, [label_map[r.record_id] for r in train_records])

    from t4c.model import make_label_arrays

    r1, r2 = train_records[0], train_records[1]
    feats = {
        r.record_id: assemble_features(dataset.graph, seg_graph, r, priors, stats)
        for r in (r1, r2)
    }
    targets = {
        r.record_id: make_label_arrays(label_map[r.record_id], seg_graph, stats)
        for r in (r1, r2)
    }
    w = np.ones(3)

    def grads_for(record, store):
        store.zero_grad()
        loss, _ = compute_loss(
            forward(store, SMALL_MODEL, seg_graph, feats[record.record_id]),
            targets[record.record_id], w, w,
        )
        loss.backward()
        return {n: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for n, p in store.items()}

    # manual: mean of individual gradients, then one Adam step
    store_manual = init_params(SMALL_MODEL, seed=3)
    g1 = grads_for(r1, store_manual)
    g2 = grads_for(r2, store_manual)
    store_manual.zero_grad()
    for name, p in store_manual.items():
        p.grad = (g1[name] + g2[name]) / 2.0
    ad.adam_step(store_manual, lr=1e-3)

    # accumulated: backward twice into the same buffers, scale, step
    store_batch = init_params(SMALL_MODEL, seed=3)
    store_batch.zero_grad()
    for record in (r1, r2):
        loss, _ = compute_loss(
            forward(store_batch, SMALL_MODEL, seg_graph, feats[record.record_id]),
            targets[record.record_id], w, w,
        )
        loss.backward()
    store_batch.scale_grads(0.5)
    ad.adam_step(store_batch, lr=1e-3)

    for name in store_manual.names():
        a = store_manual[name].data
        b = store_batch[name].data
        assert np.max(np.abs(a - b)) <= 1e-12, name


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_aborts_with_context(small_city):
    from t4c.training import TrainingDivergedError

    dataset, cluster_model, priors = small_city
    explosive = replace(SMALL_TRAIN, learning_rate=1e200, epochs=2)
    with pytest.raises(TrainingDivergedError) as err:
        train_one(explosive, SMALL_MODEL, dataset, cluster_model, priors, seed=0)
    assert "last finite" in str(err.value)


# -- ensembling ----------------------------------------------------------------------


def test_ensemble_of_one_equals_member(small_city, trained):
    dataset, cluster_model, priors = small_city
    ckpt, _ = trained
    seg_graph = build_line_graph(dataset.graph)
    record = dataset.records[0]
    single = predict_record(ckpt, dataset.graph, seg_graph, priors, record)
    ensembled = ensemble_predict([ckpt], dataset.graph, seg_graph, priors, record)
    assert np.array_equal(single.cc, ensembled.cc)
    assert np.array_equal(single.speed_kph, ensembled.speed_kph)
    assert np.array_equal(single.vol, ensembled.vol)


def test_ensemble_probabilities_are_exact_member_means(small_city):
    dataset, cluster_model, priors = small_city
    cfg = replace(SMALL_TRAIN, epochs=2, ensemble_size=3)
    members = train_ensemble(cfg, SMALL_MODEL, dataset, cluster_model, priors)
    assert len(members) == 3
    seeds = [runlog.seed for _ckpt, runlog in members]
    assert len(set(seeds)) == 3
    checkpoints = [ckpt for ckpt, _ in members]
    seg_graph = build_line_graph(dataset.graph)
    record = dataset.records[3]

    member_probs = [
        predict_record(c, dataset.graph, seg_graph, priors, record) for c in checkpoints
    ]
    expected_cc = (member_probs[0].cc + member_probs[1].cc + member_probs[2].cc) / 3.0
    expected_speed = (
        member_probs[0].speed_kph + member_probs[1].speed_kph + member_probs[2].speed_kph
    ) / 3.0
    ensembled = ensemble_predict(checkpoints, dataset.graph, seg_graph, priors, record)
    assert np.array_equal(ensembled.cc, expected_cc)
    assert np.array_equal(ensembled.speed_kph, expected_speed)
    assert np.array_equal(
        ensembled.vol, (member_probs[0].vol + member_probs[1].vol + member_probs[2].vol) / 3.0
    )


def test_member_retraining_reproduces_checkpoint(small_city):
    dataset, cluster_model, priors = small_city
    cfg = replace(SMALL_TRAIN, epochs=2, ensemble_size=2)
    members = train_ensemble(cfg, SMALL_MODEL, dataset, cluster_model, priors)
    ckpt_again, _ = train_one(cfg, SMALL_MODEL, dataset, cluster_model, priors, seed=cfg.seeds()[1])
    assert members[1][0].equals(ckpt_again)


def test_config_hash_mismatch_rejected(small_city, trained):
    dataset, cluster_model, priors = small_city
    ckpt, _ = trained
    other_cfg = replace(SMALL_MODEL, hidden=24)
    other = train_one(replace(SMALL_TRAIN, epochs=1), other_cfg, dataset, cluster_model, priors, seed=0)[0]
    seg_graph = build_line_graph(dataset.graph)
    with pytest.raises(ValueError) as err:
        ensemble_predict([ckpt, other], dataset.graph, seg_graph, priors, dataset.records[0])
    assert "hash" in str(err.value)


def test_store_count_unlike_checkpoint_count_rejected(small_city, trained):
    """One store for two checkpoints would average one member over two."""
    dataset, _cluster_model, priors = small_city
    ckpt, _ = trained
    seg_graph = build_line_graph(dataset.graph)
    with pytest.raises(ValueError, match="1 parameter stores for 2 checkpoints"):
        ensemble_predict(
            [ckpt, ckpt], dataset.graph, seg_graph, priors, dataset.records[0], stores=[load_store(ckpt)]
        )


def test_load_store_round_trips_parameters(trained):
    ckpt, _ = trained
    store = load_store(ckpt)
    for name, tensor in store.items():
        assert np.array_equal(tensor.data, ckpt.params[name])
