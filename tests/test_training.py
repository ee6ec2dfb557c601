"""Trainer determinism, batch accumulation equivalence, checkpoint
selection, ensembling exactness, and checkpoint round-trips."""

import json
import re
from collections.abc import Mapping
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t4c import autodiff as ad
from t4c.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from t4c.clustering import assign_cluster, build_prior_matrices, fit_clusters
from t4c.data import SynthSpec, daytime_filter, generate_synthetic_city, split_train_validation
from t4c.model import ModelConfig, compute_loss, config_hash, forward, init_params
from t4c.seggraph import fit_normalization
from t4c.training import (
    TrainConfig,
    ensemble_predict,
    load_runlog,
    predict_record,
    prepare_ensemble,
    prepare_training,
    save_runlog,
    train_ensemble,
    train_one,
)

from conftest import record_inputs, rewrite_checkpoint_header, write_body_value

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
    train_labels = dataset.labels.select(r.record_id for r in train_records)
    priors, _support = build_prior_matrices(cluster_model, train_labels, dataset.graph)
    return dataset, cluster_model, priors


def _training_set(small_city, train_cfg=SMALL_TRAIN, model_cfg=SMALL_MODEL):
    dataset, cluster_model, priors = small_city
    return prepare_training(train_cfg, dataset, cluster_model, priors, model_cfg.prior_mode, model_cfg.cc_classes)


@pytest.fixture(scope="module")
def trained(small_city):
    return train_one(_training_set(small_city), SMALL_MODEL, seed=1)


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
    ckpt_a, runlog_a = trained
    ckpt_b, runlog_b = train_one(_training_set(small_city), SMALL_MODEL, seed=1)
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


@pytest.mark.parametrize("damage", [
    lambda text: text[: len(text) // 2],
    lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "best_epoch"}),
    lambda text: json.dumps([json.loads(text)]),
    lambda text: json.dumps({**json.loads(text), "best_epoch": 99}),
    lambda text: json.dumps({**json.loads(text), "epochs": [{"val_core": "low"}]}),
    lambda text: json.dumps({**json.loads(text), "seed": "1"}),
    lambda text: json.dumps({**json.loads(text), "seed": 1.0}),
    lambda text: json.dumps({**json.loads(text), "seed": True}),
    lambda text: json.dumps({**json.loads(text), "data_order_hash": 7}),
    lambda text: json.dumps({**json.loads(text), "data_order_hash": json.loads(text)["data_order_hash"][:63]}),
    lambda text: json.dumps({**json.loads(text), "data_order_hash": json.loads(text)["data_order_hash"].upper()}),
    lambda text: text.replace('"val_core": ', '"val_core": NaN, "_": ', 1),
    lambda text: text.replace('"train_loss": ', '"train_loss": Infinity, "_": ', 1),
], ids=["truncated", "no_best_epoch", "json_list", "best_epoch_out_of_range", "epoch_without_numbers",
        "seed_string", "seed_float", "seed_bool", "hash_number", "hash_short", "hash_not_lowercase_hex",
        "val_core_nan", "train_loss_infinite"])
def test_damaged_runlog_raises_value_error_naming_the_file(tmp_path, trained, damage):
    path = save_runlog(tmp_path / "runlog.json", trained[1])
    path.write_text(damage(path.read_text()))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_runlog(path)


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


def _set_hidden_and_rehash(header, hidden=24):
    header["config"]["hidden"] = hidden
    header["config_hash"] = config_hash(ModelConfig(**header["config"]))


HEADER_DAMAGE = {
    # a header without a field, a non-integer shape, and tensors unlike the config
    "no_norm_stats": (lambda header: header.pop("norm_stats"), "norm_stats"),
    "float_shape": (lambda header: header["tensors"][0].update(shape=[2.0, 3.0]), "shape"),
    "hidden_unlike_tensors": (_set_hidden_and_rehash, "the config makes"),
    # a model of 2**40 hidden units is refused by its shapes, not by allocating it (64 TiB)
    "hidden_too_large_to_allocate": (lambda header: _set_hidden_and_rehash(header, 2**40),
                                     "'combine_b' has shape [16], the config makes (1099511627776,)"),
    "unknown_tensor_name": (lambda header: header["tensors"][0].update(name="not_a_parameter"), "not_a_parameter"),
    "missing_tensor": (lambda header: header["tensors"].pop(), "missing"),
    "shifted_offset": (lambda header: header["tensors"][1].update(offset=header["tensors"][1]["offset"] + 8), "offset"),
    "config_unlike_its_hash": (lambda header: header["config"].update(lambdas=[0.05, 1.0, 1.0]), "config_hash"),
    "short_cc_weights": (lambda header: header["cc_weights"].pop(), "cc_weights"),
    # values of the right JSON type that no training writes
    "nan_speed_std": (lambda header: header["norm_stats"].update(speed_std=float("nan")), "norm_stats.speed_std"),
    "zero_counter_std": (lambda header: header["norm_stats"].update(counter_std=[0.0] * 8), "norm_stats.counter_std"),
    "negative_cont_std": (lambda header: header["norm_stats"]["cont_std"].__setitem__(0, -1.0), "norm_stats.cont_std"),
    "infinite_cc_weight": (lambda header: header["cc_weights"].__setitem__(0, float("inf")), "cc_weights[0]"),
    "nan_weight_in_a_string": (lambda header: header["vol_weights"].__setitem__(0, "NaN"), "vol_weights[0]"),
}


@pytest.mark.parametrize("damage", sorted(HEADER_DAMAGE))
def test_inconsistent_checkpoint_header_raises_value_error_naming_the_path(checkpoint_file, tmp_path, damage):
    edit, detail = HEADER_DAMAGE[damage]
    path = rewrite_checkpoint_header(checkpoint_file, tmp_path / "damaged.bin", edit)
    with pytest.raises(ValueError, match=re.escape(str(path))) as err:
        load_checkpoint(path)
    assert detail in str(err.value)


BODY_DAMAGE = {"nan": float("nan"), "inf": float("inf")}  # one parameter value no training writes


@pytest.mark.parametrize("value", sorted(BODY_DAMAGE))
def test_non_finite_checkpoint_parameter_raises_value_error_naming_the_path(checkpoint_file, tmp_path, value):
    path = write_body_value(checkpoint_file, tmp_path / "damaged.bin", "head_speed_out_w", BODY_DAMAGE[value])
    with pytest.raises(ValueError, match=re.escape(str(path))) as err:
        load_checkpoint(path)
    assert "'head_speed_out_w'" in str(err.value) and "non-finite" in str(err.value)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_overwritten_header_byte_fails_cleanly_or_loads_a_consistent_checkpoint(checkpoint_file, data):
    raw = bytearray(checkpoint_file.read_bytes())
    header_end = 16 + int.from_bytes(raw[8:16], "little")
    position = data.draw(st.integers(16, header_end - 1))
    raw[position] = data.draw(st.integers(0, 255).filter(lambda byte: byte != raw[position]))
    path = checkpoint_file.with_name("overwritten.bin")
    path.write_bytes(bytes(raw))
    try:
        ckpt = load_checkpoint(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    assert ckpt.config_hash == config_hash(ckpt.config)
    expected = init_params(ckpt.config, 0)
    assert {name: p.shape for name, p in ckpt.params.items()} == {name: t.shape for name, t in expected.items()}


def test_gradient_accumulation_equals_mean_of_gradients(small_city):
    """One batch step over {r1, r2} == Adam on the mean of their gradients."""
    dataset, cluster_model, priors = small_city
    records = daytime_filter(dataset.records, *SMALL_TRAIN.daytime)
    train_records, _ = split_train_validation(records, 0.8, SMALL_TRAIN.split_seed)
    stats = fit_normalization(dataset.graph, train_records, dataset.labels.select(r.record_id for r in train_records))

    from t4c.model import make_label_arrays

    r1, r2 = train_records[0], train_records[1]
    feats = {
        r.record_id: record_inputs(SMALL_MODEL, dataset.graph, r, priors, stats)
        for r in (r1, r2)
    }
    targets = {
        r.record_id: make_label_arrays(dataset.labels, dataset.labels.rows[r.record_id], dataset.graph, stats)
        for r in (r1, r2)
    }
    w = np.ones(3)

    def grads_for(record, store):
        store.zero_grad()
        loss, _ = compute_loss(
            forward(store, SMALL_MODEL, dataset.graph, *feats[record.record_id]),
            targets[record.record_id], w, w,
        )
        loss.backward()
        return {n: p.grad.copy() for n, p in store.items()}

    # manual: mean of individual gradients, then one Adam step
    store_manual = init_params(SMALL_MODEL, seed=3)
    g1 = grads_for(r1, store_manual)
    g2 = grads_for(r2, store_manual)
    store_manual.zero_grad()
    for name, p in store_manual.items():
        p.grad[...] = (g1[name] + g2[name]) / 2.0
    ad.adam_step(store_manual, lr=1e-3)

    # accumulated: backward twice into the same buffers, scale, step
    store_batch = init_params(SMALL_MODEL, seed=3)
    store_batch.zero_grad()
    for record in (r1, r2):
        loss, _ = compute_loss(
            forward(store_batch, SMALL_MODEL, dataset.graph, *feats[record.record_id]),
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

    explosive = replace(SMALL_TRAIN, learning_rate=1e200, epochs=2)
    with pytest.raises(TrainingDivergedError) as err:
        train_one(_training_set(small_city, explosive), SMALL_MODEL, seed=5)
    message = str(err.value)
    assert "seed 5" in message and re.search(r"epoch \d+, record 'r\d+'", message), message
    assert "last finite" in message


# -- ensembling ----------------------------------------------------------------------


def test_ensemble_of_one_equals_member(small_city, trained):
    dataset, cluster_model, priors = small_city
    ckpt, _ = trained
    record = dataset.records[0]
    single = predict_record(ckpt, dataset.graph, priors, record)
    ensembled = ensemble_predict(prepare_ensemble([ckpt], dataset.graph, priors), record)
    assert np.array_equal(single.cc, ensembled.cc)
    assert np.array_equal(single.speed_kph, ensembled.speed_kph)
    assert np.array_equal(single.vol, ensembled.vol)


@pytest.fixture(scope="module")
def three_members(small_city):
    dataset, cluster_model, priors = small_city
    cfg = replace(SMALL_TRAIN, epochs=2, ensemble_size=3)
    return train_ensemble(cfg, SMALL_MODEL, dataset, cluster_model, priors)


def _ordered_mean(probs, field):
    total = getattr(probs[0], field).copy()
    for p in probs[1:]:
        total += getattr(p, field)
    return total / float(len(probs))


def test_ensemble_probabilities_are_exact_member_means(small_city, three_members):
    dataset, cluster_model, priors = small_city
    members = three_members
    assert len(members) == 3
    seeds = [runlog.seed for _ckpt, runlog in members]
    assert len(set(seeds)) == 3
    checkpoints = [ckpt for ckpt, _ in members]
    record = dataset.records[3]

    member_probs = [
        predict_record(c, dataset.graph, priors, record) for c in checkpoints
    ]
    expected_cc = (member_probs[0].cc + member_probs[1].cc + member_probs[2].cc) / 3.0
    expected_speed = (
        member_probs[0].speed_kph + member_probs[1].speed_kph + member_probs[2].speed_kph
    ) / 3.0
    ensembled = ensemble_predict(prepare_ensemble(checkpoints, dataset.graph, priors), record)
    assert np.array_equal(ensembled.cc, expected_cc)
    assert np.array_equal(ensembled.speed_kph, expected_speed)
    assert np.array_equal(
        ensembled.vol, (member_probs[0].vol + member_probs[1].vol + member_probs[2].vol) / 3.0
    )


@settings(max_examples=40, deadline=None)
@given(
    order=st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True),
    record_index=st.integers(0, 59),
)
def test_ensemble_of_any_member_subset_and_order_is_the_ordered_member_mean(
    small_city, three_members, order, record_index
):
    dataset, _cluster_model, priors = small_city
    members = [three_members[i][0] for i in order]
    record = dataset.records[record_index % len(dataset.records)]
    singles = [predict_record(c, dataset.graph, priors, record) for c in members]
    ensembled = ensemble_predict(prepare_ensemble(members, dataset.graph, priors), record)
    for field in ("cc", "speed_kph", "vol"):
        value = getattr(ensembled, field)
        assert value.tobytes() == _ordered_mean(singles, field).tobytes()
        stacked = np.stack([getattr(s, field) for s in singles])
        assert np.all(stacked.min(axis=0) <= value) and np.all(value <= stacked.max(axis=0))
    assert np.all(np.abs(ensembled.cc.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(np.abs(ensembled.vol.sum(axis=1) - 1.0) <= 1e-12)


def _count_calls(monkeypatch, module, names):
    """Count the calls ``module`` makes to each of ``names`` (as its own global)."""
    counts = {name: [] for name in names}
    for name, calls in counts.items():
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _real=real, _calls=calls, **kw: _calls.append(1) or _real(*a, **kw))
    return counts


def test_ensemble_builds_static_branches_up_front_and_one_counter_slice_per_record(
    small_city, three_members, monkeypatch
):
    """Per stage: one static-branch build per member and prior row; per record: one raw
    counter slice, which each member normalizes, also when the members' norm stats differ."""
    import t4c.training as training

    dataset, _cluster_model, priors = small_city
    checkpoints = [ckpt for ckpt, _ in three_members]
    records = dataset.records[5:9]
    counts = _count_calls(monkeypatch, training, ("static_inputs", "static_branch", "counter_slice_matrix"))

    stats = checkpoints[1].norm_stats
    shifted = replace(checkpoints[1], norm_stats=replace(stats, counter_mean=stats.counter_mean + 0.5))
    mixed = [checkpoints[0], shifted, checkpoints[2]]
    for members in (checkpoints, mixed):
        for calls in counts.values():
            calls.clear()
        ensemble = prepare_ensemble(members, dataset.graph, priors)
        # full prior mode: the static branch is the same for every record, so one prior row
        assert {name: len(calls) for name, calls in counts.items()} == {
            "static_inputs": 3, "static_branch": 3, "counter_slice_matrix": 0,
        }
        ensembled = [ensemble_predict(ensemble, record) for record in records]
        assert {name: len(calls) for name, calls in counts.items()} == {
            "static_inputs": 3, "static_branch": 3, "counter_slice_matrix": len(records),
        }
        assert list(ensemble.static) == [None] and len(ensemble.static[None]) == 3
    for record, probs in zip(records, ensembled):
        singles = [predict_record(c, dataset.graph, priors, record) for c in mixed]
        for field in ("cc", "speed_kph", "vol"):
            assert getattr(probs, field).tobytes() == _ordered_mean(singles, field).tobytes()


@pytest.mark.parametrize("change", [
    {},
    {"prior_mode": "active_row"},
    {"prior_mode": "active_row", "use_static": False, "use_prior_block": False},
    {"use_static": False, "use_prior_block": False},
    {"cc_classes": 4},
], ids=["full", "active_row", "active_row_gates_off", "full_gates_off", "four_classes"])
def test_prepared_ensemble_is_the_ordered_member_mean_over_clusters(small_city, change, monkeypatch):
    import t4c.training as training

    dataset, cluster_model, priors = small_city
    model_cfg = replace(SMALL_MODEL, **change)
    cfg = replace(SMALL_TRAIN, epochs=1, ensemble_size=2)
    checkpoints = [ckpt for ckpt, _ in train_ensemble(cfg, model_cfg, dataset, cluster_model, priors)]
    records = dataset.records[:24]
    clusters = {assign_cluster(cluster_model, r) for r in records}
    assert len(clusters) >= 2

    counts = _count_calls(monkeypatch, training, ("static_inputs", "static_branch", "counter_slice_matrix"))
    ensemble = prepare_ensemble(checkpoints, dataset.graph, priors, cluster_model)
    prior_rows = list(range(cluster_model.num_clusters)) if model_cfg.prior_mode == "active_row" else [None]
    assert list(ensemble.static) == prior_rows
    assert {name: len(calls) for name, calls in counts.items()} == {
        "static_inputs": 2 * len(prior_rows), "static_branch": 2 * len(prior_rows), "counter_slice_matrix": 0,
    }
    for record in records:
        before = {name: len(calls) for name, calls in counts.items()}
        ensembled = ensemble_predict(ensemble, record)
        per_record = {name: len(calls) - before[name] for name, calls in counts.items()}
        assert per_record == {"static_inputs": 0, "static_branch": 0, "counter_slice_matrix": 1}
        singles = [predict_record(c, dataset.graph, priors, record, cluster_model) for c in checkpoints]
        for field in ("cc", "speed_kph", "vol"):
            assert getattr(ensembled, field).tobytes() == _ordered_mean(singles, field).tobytes(), (record, field)
    assert all(len(members) == 2 for members in ensemble.static.values())
    assert not any(static.flags.writeable for members in ensemble.static.values() for static in members)


def _noisy_checkpoint(config, norm_stats, seed):
    """Member ``seed`` of an untrained ensemble: every parameter, biases included, and its norm stats moved by
    seeded noise, so no two members share a value."""
    rng = np.random.default_rng(seed)
    params = {name: value + rng.normal(scale=0.1, size=value.shape)
              for name, value in init_params(config, seed).arrays().items()}
    stats = replace(norm_stats, counter_mean=norm_stats.counter_mean + 0.1 * seed,
                    speed_std=norm_stats.speed_std * (1 + 0.1 * seed))
    return Checkpoint(params, stats, config, np.ones(config.cc_classes), np.ones(3), config_hash(config))


@pytest.mark.parametrize("prior_mode", ["full", "active_row"])
@pytest.mark.parametrize("head_blocks, gnn_layers", [(0, 0), (0, 3), (2, 0), (2, 3)])
def test_stacked_ensemble_is_the_ordered_member_mean_at_every_depth(small_city, prior_mode, head_blocks, gnn_layers):
    """One member-stacked forward serves 1, 2 and 3 members with the bits of their own forwards, over
    trunks and heads of every depth the model takes: no round or block, and more than one of each."""
    dataset, cluster_model, priors = small_city
    config = replace(SMALL_MODEL, volume_hidden=(16, 8), head_blocks=head_blocks, gnn_layers=gnn_layers,
                     prior_mode=prior_mode)
    norm_stats = _training_set(small_city).norm_stats
    checkpoints = [_noisy_checkpoint(config, norm_stats, seed) for seed in range(3)]
    records = dataset.records[:12]
    assert len({assign_cluster(cluster_model, r) for r in records}) >= 2
    singles = {r.record_id: [predict_record(c, dataset.graph, priors, r, cluster_model) for c in checkpoints]
               for r in records}
    for members in (1, 2, 3):
        ensemble = prepare_ensemble(checkpoints[:members], dataset.graph, priors, cluster_model)
        for record in records:
            ensembled = ensemble_predict(ensemble, record)
            for field in ("cc", "speed_kph", "vol"):
                expected = _ordered_mean(singles[record.record_id][:members], field)
                assert getattr(ensembled, field).tobytes() == expected.tobytes(), (members, record.record_id, field)


def _arrays(obj, seen=None):
    """Every ndarray reachable from ``obj`` through dataclass fields, mappings, sequences and cached properties."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, Mapping):
        for value in obj.values():
            yield from _arrays(value, seen)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _arrays(value, seen)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            yield from _arrays(value, seen)


def test_every_array_of_a_served_ensemble_is_read_only(small_city, three_members):
    dataset, cluster_model, priors = small_city
    checkpoints = [ckpt for ckpt, _ in three_members]
    ensemble = prepare_ensemble(checkpoints, dataset.graph, priors, cluster_model)
    ensemble_predict(ensemble, dataset.records[0])
    assert ensemble.config == checkpoints[0].config
    served = [a for f in fields(ensemble) for a in _arrays(getattr(ensemble, f.name))]
    assert len(served) > len(ensemble.static)
    assert not [a.shape for a in served if a.flags.writeable]
    params, stats, segments = ensemble.params, ensemble.norm_stats, len(ensemble.graph.segments)
    stacks = [stats.counter_mean, stats.counter_std, stats.speed_mean, stats.speed_std,
              *(params[f"head_{task}_out_b"] for task in ("cc", "speed", "vol")), params["head_cc_out_w"],
              ensemble.static[None]]
    assert [a.shape for a in stacks] == [(3, 1, 8), (3, 1, 8), (3, 1), (3, 1), (3, 1, 3), (3, 1, 1), (3, 1, 3),
                                         (3, 16, 3), (3, segments, 16)]
    assert all(any(a is b for b in served) for a in stacks)
    assert list(params) == list(checkpoints[0].params)
    for k, ckpt in enumerate(checkpoints):  # member k's own values, at index k
        assert stats.counter_std[k, 0].tobytes() == ckpt.norm_stats.counter_std.tobytes()
        assert stats.speed_mean[k, 0] == ckpt.norm_stats.speed_mean
        assert all(params[name][k].tobytes() == value.tobytes() for name, value in ckpt.params.items())
    with pytest.raises(TypeError):
        ensemble.static[None] = ()
    with pytest.raises(TypeError):
        ensemble.params["combine_w"] = params["combine_w"]

    # one member: its own arrays, read-only views with no member axis; the checkpoint's stay writable
    solo = prepare_ensemble(checkpoints[:1], dataset.graph, priors, cluster_model)
    ckpt = checkpoints[0]
    assert all(np.shares_memory(solo.params[name], value) for name, value in ckpt.params.items())
    assert (solo.norm_stats.counter_mean.shape, solo.static[None].shape) == ((8,), (segments, 16))
    served = [a for f in fields(solo) for a in _arrays(getattr(solo, f.name))]
    assert not [a.shape for a in served if a.flags.writeable]
    assert all(value.flags.writeable for value in ckpt.params.values())


def test_active_row_ensemble_needs_a_cluster_model(small_city, trained):
    dataset, _cluster_model, priors = small_city
    ckpt = replace(trained[0], config=replace(SMALL_MODEL, prior_mode="active_row"))
    with pytest.raises(ValueError, match="needs a cluster model"):
        prepare_ensemble([ckpt], dataset.graph, priors)


def test_prediction_constructs_no_tensor(small_city, three_members, monkeypatch):
    dataset, cluster_model, priors = small_city
    checkpoints = [ckpt for ckpt, _ in three_members]
    made = []
    real_init = ad.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
    predict_record(checkpoints[0], dataset.graph, priors, dataset.records[0])
    ensemble_predict(prepare_ensemble(checkpoints, dataset.graph, priors), dataset.records[0])
    assert made == []
    ad.Tensor(np.zeros(1))  # the counter itself works
    assert made == [1]


def test_member_retraining_reproduces_checkpoint(small_city):
    dataset, cluster_model, priors = small_city
    cfg = replace(SMALL_TRAIN, epochs=2, ensemble_size=2)
    members = train_ensemble(cfg, SMALL_MODEL, dataset, cluster_model, priors)
    ckpt_again, _ = train_one(_training_set(small_city, cfg), SMALL_MODEL, seed=cfg.seeds()[1])
    assert members[1][0].equals(ckpt_again)


def test_config_hash_mismatch_rejected(small_city, trained):
    dataset, cluster_model, priors = small_city
    ckpt, _ = trained
    other_cfg = replace(SMALL_MODEL, hidden=24)
    other = train_one(_training_set(small_city, replace(SMALL_TRAIN, epochs=1), other_cfg), other_cfg, seed=0)[0]
    with pytest.raises(ValueError) as err:
        prepare_ensemble([ckpt, other], dataset.graph, priors)
    assert "hash" in str(err.value)


# -- one training set per run ---------------------------------------------------------


@pytest.mark.parametrize("seeds", [(0, 1), (1, 0)])
def test_members_from_one_training_set_equal_members_from_fresh_sets(small_city, seeds):
    cfg = replace(SMALL_TRAIN, epochs=2)
    shared = _training_set(small_city, cfg)
    from_shared = {seed: train_one(shared, SMALL_MODEL, seed) for seed in seeds}
    for seed in seeds:
        ckpt, runlog = from_shared[seed]
        fresh_ckpt, fresh_runlog = train_one(_training_set(small_city, cfg), SMALL_MODEL, seed)
        assert ckpt.equals(fresh_ckpt), seed
        assert runlog == fresh_runlog, seed
    counter_slice = next(iter(shared.counter_slices.values()))
    targets = next(iter(shared.targets.values()))
    for array in (shared.priors, counter_slice, targets.cc, targets.speed, shared.cc_weights,
                  shared.norm_stats.counter_mean):
        assert not array.flags.writeable


def test_training_set_holds_a_read_only_copy_of_the_priors_and_leaves_the_callers_writable(small_city):
    _dataset, _cluster_model, priors = small_city
    before = priors.copy()
    ts = _training_set(small_city)
    assert priors.flags.writeable and np.array_equal(priors, before)
    assert not ts.priors.flags.writeable and not np.shares_memory(ts.priors, priors)
    assert ts.priors.tobytes() == priors.tobytes()


@pytest.mark.parametrize("prior_mode", ["full", "active_row"])
def test_train_one_builds_static_inputs_once_per_prior_row_its_records_use(small_city, prior_mode, monkeypatch):
    import t4c.training as training

    _dataset, cluster_model, _priors = small_city
    model_cfg = replace(SMALL_MODEL, prior_mode=prior_mode)
    built_rows, real = [], training.static_inputs
    monkeypatch.setattr(training, "static_inputs", lambda *a: built_rows.append(a[4]) or real(*a))
    counts = _count_calls(monkeypatch, training, ("counter_slice_matrix",))
    ts = _training_set(small_city, replace(SMALL_TRAIN, epochs=1), model_cfg)
    records = ts.train_records + ts.val_records
    by_cluster = {}
    for r in records:
        row = assign_cluster(cluster_model, r) if prior_mode == "active_row" else None
        by_cluster.setdefault(row, []).append(r.record_id)
    assert len(by_cluster) == 1 if prior_mode == "full" else len(by_cluster) >= 2
    assert built_rows == []  # the training set builds no static inputs
    assert len(counts["counter_slice_matrix"]) == len(records)
    assert ts.rows == {rid: row for row, rids in by_cluster.items() for rid in rids}
    assert set(ts.counter_slices) == set(ts.rows) == {r.record_id for r in records}
    train_one(ts, model_cfg, seed=0)
    assert len(built_rows) == len(by_cluster) and set(built_rows) == set(by_cluster)


@pytest.mark.parametrize("change", [{"prior_mode": "active_row"}, {"cc_classes": 4}])
def test_train_one_refuses_a_config_unlike_its_training_set(small_city, change):
    with pytest.raises(ValueError, match="training set"):
        train_one(_training_set(small_city), replace(SMALL_MODEL, **change), seed=0)


def test_ablation_builds_one_training_set_for_all_variants(small_city, monkeypatch):
    import t4c.training as training
    from t4c.training import ABLATION_VARIANTS, run_ablation

    dataset, cluster_model, priors = small_city
    built, trained = [], []
    real_prepare, real_train = training.prepare_training, training.train_one
    monkeypatch.setattr(training, "prepare_training", lambda *a, **kw: built.append(1) or real_prepare(*a, **kw))
    monkeypatch.setattr(training, "train_one", lambda *a, **kw: trained.append(1) or real_train(*a, **kw))
    result = run_ablation(
        dataset, ABLATION_VARIANTS, cluster_model, priors, replace(SMALL_TRAIN, epochs=1), SMALL_MODEL, seed=0
    )
    assert set(result.scores) == set(ABLATION_VARIANTS)
    assert len(built) == 1
    assert len(trained) == len(ABLATION_VARIANTS)


# -- the training plan ------------------------------------------------------------------


def _captured_fits(monkeypatch, module, run, times=2):
    """What ``run()`` hands ``module.fit_loop`` (which is not run), ``times`` times: the
    parameter store, the inputs of the first six training records and the record loss."""
    from t4c.training import FitResult

    captured = []

    def fake_fit_loop(store, train_cfg, seed, train_records, val_records, labels, record_inputs, record_loss,
                      val_cc_probs):
        captured.append((store, [record_inputs(r) for r in train_records[:6]], record_loss))
        return FitResult(params=store.state_arrays(), best_epoch=0, val_scores=(0.5,),
                         mean_losses=(np.zeros(4),), data_order_hash="0" * 64)

    monkeypatch.setattr(module, "fit_loop", fake_fit_loop)
    for _ in range(times):
        run()
    return captured


def _assert_replay_equals_one_shot(fits):
    """Three batches of two records: one store steps through a plan traced on the first record,
    an identical store through a graph built and backpropagated per record; every bit agrees."""
    (store, inputs, record_loss), (other, _, other_loss) = fits
    plan = ad.Plan.trace(record_loss, inputs[0])
    for batch in (inputs[0:2], inputs[2:4], inputs[4:6]):
        store.zero_grad()
        other.zero_grad()
        for record_inputs in batch:
            replayed = [np.float64(v).tobytes() for v in plan.forward(*record_inputs)]
            plan.backward()
            one_shot = other_loss(*record_inputs)
            one_shot[0].backward()
            assert replayed == [t.data.tobytes() for t in one_shot]
        for name, p in store.items():
            assert p.grad.tobytes() == other[name].grad.tobytes(), name
        for s in (store, other):
            s.scale_grads(0.5)
            ad.adam_step(s, lr=1e-2)
        for name, p in store.items():
            assert p.data.tobytes() == other[name].data.tobytes(), name


@pytest.mark.parametrize("change", [
    {}, {"prior_mode": "active_row"}, {"cc_classes": 4}, {"use_static": False}, {"use_prior_block": False},
], ids=["full", "active_row", "cc_classes_4", "no_static", "no_prior_block"])
def test_plan_replay_equals_a_one_shot_backward_bit_for_bit(small_city, monkeypatch, change):
    """The batches hold a record with no labels (every loss has no row) and one with no speed."""
    import t4c.training as training
    from t4c.model import LabelArrays, make_label_arrays

    model_cfg = replace(SMALL_MODEL, **change)
    ts = _training_set(small_city, model_cfg=model_cfg)
    rids = [r.record_id for r in ts.train_records[:6]]
    if model_cfg.prior_mode == "active_row":  # the replays rebind another cluster's static inputs
        assert len({ts.rows[rid] for rid in rids}) >= 2
    no_speed = ts.targets[rids[4]]
    targets = {
        **ts.targets,
        rids[2]: make_label_arrays(ts.labels, None, ts.graph, ts.norm_stats, model_cfg.cc_classes),
        rids[4]: LabelArrays(no_speed.cc, no_speed.speed, np.zeros_like(no_speed.speed_mask), no_speed.vol),
    }
    ts = replace(ts, targets=targets)
    _assert_replay_equals_one_shot(_captured_fits(monkeypatch, training, lambda: train_one(ts, model_cfg, seed=0)))


def test_node_gnn_plan_replay_equals_a_one_shot_backward_bit_for_bit(small_city, monkeypatch):
    """The third training record has no labels."""
    import t4c.baselines as baselines
    from t4c.training import split_records

    dataset = small_city[0]
    unlabelled = split_records(dataset, SMALL_TRAIN)[1][2].record_id
    dataset = dataset._replace(labels=dataset.labels.select(r for r in dataset.labels.record_ids if r != unlabelled))
    fits = _captured_fits(monkeypatch, baselines, lambda: baselines.node_gnn_baseline(dataset, SMALL_TRAIN, seed=0))
    _store, inputs, _loss = fits[0]
    assert (inputs[2][1] == -1).all()  # the third record's (node volumes, targets): every target masked
    _assert_replay_equals_one_shot(fits)


def test_training_steps_build_no_tensor_and_walk_no_graph(small_city, monkeypatch):
    """Once the plan of a run is traced, a step only replays it: three epochs build as many Tensors as one."""
    made = {"tensors": 0, "walks": 0}
    real_init, real_walk = ad.Tensor.__init__, ad._walk

    def counting_init(self, *args, **kwargs):
        made["tensors"] += 1
        real_init(self, *args, **kwargs)

    def counting_walk(outputs):
        made["walks"] += 1
        return real_walk(outputs)

    monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
    monkeypatch.setattr(ad, "_walk", counting_walk)
    ts = _training_set(small_city)
    per_run = []
    for epochs in (1, 3):
        made.update(tensors=0, walks=0)
        train_one(replace(ts, train_cfg=replace(SMALL_TRAIN, epochs=epochs)), SMALL_MODEL, seed=0)
        per_run.append(dict(made))
    assert per_run[0] == per_run[1]
    assert per_run[0]["walks"] == 1


def test_validation_builds_the_static_branch_once_per_cluster_and_only_the_congestion_head(small_city, monkeypatch):
    import t4c.training as training

    model_cfg = replace(SMALL_MODEL, prior_mode="active_row")
    ts = _training_set(small_city, replace(SMALL_TRAIN, epochs=2), model_cfg)
    counts = _count_calls(monkeypatch, training, ("static_branch", "congestion_probs", "record_branch"))
    train_one(ts, model_cfg, seed=0)
    clusters = len(set(ts.rows.values()))
    assert clusters >= 2
    # one trace of the training record, then each epoch: every cluster's static branch, every record's head
    assert len(counts["static_branch"]) == 1 + 2 * clusters
    assert len(counts["record_branch"]) == 1
    assert len(counts["congestion_probs"]) == 2 * len(ts.val_records)
