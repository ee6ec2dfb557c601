"""Architecture wiring, loss decomposition, masking, equivariance,
end-to-end gradients, and memorization capacity."""

from dataclasses import replace
from datetime import date
import math
import zlib

import numpy as np
import pytest

from t4c import autodiff as ad
from t4c.data import NodeRec, RoadGraph, VolumeRecord
from t4c.model import (
    LabelArrays,
    ModelConfig,
    compute_loss,
    config_hash,
    forward,
    init_params,
    inverse_frequency_weights,
    make_label_arrays,
    param_shapes,
    predict_probabilities,
    static_inputs,
)
from t4c.seggraph import NormStats

from conftest import central_diff_store, make_segment, max_rel_error, record_inputs

TINY = ModelConfig(
    volume_hidden=(8,),
    static_hidden=(8,),
    gnn_layers=2,
    hidden=8,
    head_blocks=1,
    num_clusters=3,
)


def identity_stats():
    return NormStats(
        cont_mean=np.zeros(5), cont_std=np.ones(5),
        counter_mean=np.zeros(8), counter_std=np.ones(8),
        speed_mean=30.0, speed_std=10.0,
    )


def graph_from_edges(edges, counters=None):
    node_names = sorted({n for e in edges for n in e})
    counters = counters or {}
    nodes = tuple(NodeRec(n, 48.0, 11.0, counters.get(n)) for n in node_names)
    rng = np.random.default_rng(zlib.crc32(repr(tuple(edges)).encode()))  # hash() is salted per process
    segments = tuple(
        make_segment(
            f"e{i}", tail, head,
            importance=int(rng.integers(0, 6)),
            lanes=int(rng.integers(1, 5)),
            flow_speed=float(rng.uniform(20, 60)),
            length_meters=float(rng.uniform(50, 300)),
        )
        for i, (tail, head) in enumerate(edges)
    )
    return RoadGraph(nodes=nodes, segments=segments, counters=counters)


def random_priors(graph, k, seed=0):
    raw = np.random.default_rng(seed).random((len(graph.segments), k, 3)) + 0.1
    return raw / raw.sum(axis=2, keepdims=True)


def six_segment_city(cfg=TINY, seed=0):
    """The six-segment graph, its one record, random priors and the record's norm stats."""
    graph = graph_from_edges(
        [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A"), ("B", "D"), ("A", "C")],
        counters={"A": "c0", "C": "c1"},
    )
    record = VolumeRecord("r0", date(2022, 1, 3), 40, {"A": (3, 1, 4, 1), "C": (2, 7, 1, 8)})
    from t4c.seggraph import fit_normalization

    return graph, record, random_priors(graph, cfg.num_clusters, seed), fit_normalization(graph, [record])


def six_segment_setup(cfg=TINY, seed=0):
    graph, record, priors, stats = six_segment_city(cfg, seed)
    feats, counter = record_inputs(cfg, graph, record, priors, stats, row=1 if cfg.prior_mode == "active_row" else None)
    return graph, feats, counter


def six_segment_labels():
    return LabelArrays(
        cc=np.array([0, 1, 2, -1, 0, 2]),
        speed=np.array([0.5, -0.3, 0.0, 1.2, 0.0, -1.0]),
        speed_mask=np.array([True, True, False, True, False, True]),
        vol=np.array([0, -1, 1, 2, 0, -1]),
    )


def test_default_static_encoder_width_is_47():
    cfg = ModelConfig()
    assert cfg.embedding_width == 5 + 2 + 2 + 3
    assert cfg.static_input_width == 12 + 5 + 30
    assert cfg.static_input_width == 47


@pytest.mark.parametrize("cfg", [TINY, ModelConfig(), replace(TINY, gnn_layers=0, head_blocks=0)],
                         ids=["tiny", "default", "no_gnn_no_blocks"])
def test_param_shapes_are_the_names_and_shapes_init_params_draws_in_its_order(cfg):
    assert list(param_shapes(cfg).items()) == [(name, p.shape) for name, p in init_params(cfg, seed=0).items()]


def test_default_lambdas_match_training_recipe():
    assert ModelConfig().lambdas == (0.03, 1.0, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(prior_mode="bogus")
    with pytest.raises(ValueError):
        ModelConfig(lambdas=(0.0, 1.0, 1.0))


@pytest.mark.parametrize("lambdas", [(1.0,), (1.0, 1.0, 1.0, 1.0), (math.nan, 1.0, 1.0), (1.0, math.inf, 1.0)])
def test_lambdas_must_be_three_finite_positive_numbers(lambdas):
    """A JSON config cannot carry these. A wrong count failed at the first loss, naming no field, and a NaN or
    infinite lambda made the loss non-finite."""
    with pytest.raises(ValueError, match="lambdas must be three finite numbers > 0"):
        ModelConfig(lambdas=lambdas)


@pytest.mark.parametrize("name", ["head_blocks", "importance_dim", "oneway_dim", "tunnel_dim", "lanes_dim"])
def test_a_negative_block_count_or_embedding_width_is_refused_by_name(name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1$"):
        ModelConfig(**{name: -1})
    assert getattr(ModelConfig(**{name: 0}), name) == 0  # width 0 still trains


def test_isolated_segment_matches_manual_layer_oracle():
    """One segment, no neighbors: replay the pipeline with plain numpy."""
    cfg = TINY
    graph = graph_from_edges([("A", "B")], counters={"A": "c0"})
    record = VolumeRecord("r0", date(2022, 1, 3), 40, {"A": (5, 2, 0, 7)})
    priors = random_priors(graph, cfg.num_clusters, seed=3)
    feats, counter = record_inputs(cfg, graph, record, priors, identity_stats())
    store = init_params(cfg, seed=9)
    pred = forward(store, cfg, graph, feats, counter)

    def p(name):
        return store[name].data

    x = counter
    for i in range(len(cfg.volume_hidden)):
        x = np.maximum(x @ p(f"vol{i}_w") + p(f"vol{i}_b"), 0.0)
    codes = graph.categorical_matrix
    emb = np.concatenate(
        [
            p("emb_importance")[codes[:, 0]],
            p("emb_oneway")[codes[:, 1]],
            p("emb_tunnel")[codes[:, 2]],
            p("emb_lanes")[codes[:, 3]],
        ],
        axis=1,
    )
    # identity stats: the continuous attributes enter as they are
    s = np.concatenate([emb, graph.continuous_matrix, priors.reshape(1, -1)], axis=1)
    for i in range(len(cfg.static_hidden)):
        s = np.maximum(s @ p(f"static{i}_w") + p(f"static{i}_b"), 0.0)
    h = np.concatenate([x, s], axis=1) @ p("combine_w") + p("combine_b")
    for layer in range(cfg.gnn_layers):
        nbr = np.zeros_like(h)  # isolated node: empty neighborhood
        h = np.maximum(h @ p(f"gnn{layer}_self_w") + nbr @ p(f"gnn{layer}_nbr_w") + p(f"gnn{layer}_b"), 0.0)

    def head(task, out_dim):
        y = h
        for block in range(cfg.head_blocks):
            inner = np.maximum(y @ p(f"head_{task}_block{block}_a_w") + p(f"head_{task}_block{block}_a_b"), 0.0)
            y = y + inner @ p(f"head_{task}_block{block}_b_w") + p(f"head_{task}_block{block}_b_b")
        return y @ p(f"head_{task}_out_w") + p(f"head_{task}_out_b")

    assert np.allclose(pred.cc_logits.data, head("cc", 3), atol=1e-12)
    assert np.allclose(pred.speed_pred.data, head("speed", 1).reshape(-1), atol=1e-12)
    assert np.allclose(pred.vol_logits.data, head("vol", 3), atol=1e-12)


def test_permutation_equivariance():
    cfg = TINY
    graph, feats, counter = six_segment_setup(cfg)
    store = init_params(cfg, seed=4)
    base = forward(store, cfg, graph, feats, counter)

    perm = np.array([3, 0, 5, 1, 4, 2])
    inv = np.argsort(perm)
    permuted_graph = RoadGraph(graph.nodes, tuple(graph.segments[i] for i in perm), graph.counters)
    assert permuted_graph.segment_ids == tuple(graph.segment_ids[i] for i in perm)
    assert permuted_graph.neighbors == tuple(tuple(sorted(int(inv[j]) for j in graph.neighbors[i])) for i in perm)
    permuted_feats = tuple(block[perm] for block in feats)  # each static input has one row per segment
    permuted = forward(store, cfg, permuted_graph, permuted_feats, counter[perm])
    assert np.allclose(permuted.cc_logits.data, base.cc_logits.data[perm], atol=1e-12)
    assert np.allclose(permuted.speed_pred.data, base.speed_pred.data[perm], atol=1e-12)
    assert np.allclose(permuted.vol_logits.data, base.vol_logits.data[perm], atol=1e-12)

    labels = six_segment_labels()
    permuted_labels = LabelArrays(
        cc=labels.cc[perm], speed=labels.speed[perm],
        speed_mask=labels.speed_mask[perm], vol=labels.vol[perm],
    )
    w = np.array([1.0, 2.0, 0.5])
    _, rep_a = compute_loss(base, labels, w, w)
    _, rep_b = compute_loss(permuted, permuted_labels, w, w)
    assert abs(rep_a.loss - rep_b.loss) <= 1e-12
    assert abs(rep_a.loss_cc - rep_b.loss_cc) <= 1e-12


def test_loss_decomposition_identity():
    cfg = TINY
    graph, feats, counter = six_segment_setup(cfg)
    store = init_params(cfg, seed=5)
    pred = forward(store, cfg, graph, feats, counter)
    w = np.ones(3)
    lambdas = (0.03, 1.0, 1.0)
    _, report = compute_loss(pred, six_segment_labels(), w, w, lambdas)
    recombined = (0.03 * report.loss_cc + 1.0 * report.loss_speed) + 1.0 * report.loss_vol
    assert abs(report.loss - recombined) <= 1e-12
    assert report.n_cc == 5  # one -1 row is masked
    assert report.n_speed == 4
    assert report.n_vol == 4


def test_lambda_arithmetic_example():
    # pure combination check: components (2, 1, 0.5) with (0.03, 1, 1)
    assert abs((0.03 * 2.0 + 1.0 * 1.0) + 1.0 * 0.5 - 1.56) < 1e-15


def test_all_masked_labels_give_zero_loss():
    cfg = TINY
    graph, feats, counter = six_segment_setup(cfg)
    store = init_params(cfg, seed=6)
    pred = forward(store, cfg, graph, feats, counter)
    n = len(graph.segments)
    empty = LabelArrays(
        cc=np.full(n, -1), speed=np.zeros(n), speed_mask=np.zeros(n, bool), vol=np.full(n, -1)
    )
    _, report = compute_loss(pred, empty, np.ones(3), np.ones(3))
    assert report.loss == 0.0
    assert report.all_masked


def test_unlabeled_segment_does_not_change_loss():
    """Growing the graph by an isolated, unlabeled segment leaves every
    loss component untouched."""
    cfg = TINY
    graph = graph_from_edges([("A", "B"), ("B", "C")], counters={"A": "c0"})
    record = VolumeRecord("r0", date(2022, 1, 3), 40, {"A": (1, 2, 3, 4)})
    priors = random_priors(graph, cfg.num_clusters, seed=8)
    stats = identity_stats()
    feats, counter = record_inputs(cfg, graph, record, priors, stats)
    store = init_params(cfg, seed=7)
    labels = LabelArrays(
        cc=np.array([1, 2]), speed=np.array([0.1, -0.4]),
        speed_mask=np.array([True, True]), vol=np.array([0, 2]),
    )
    w = np.ones(3)
    _, before = compute_loss(forward(store, cfg, graph, feats, counter), labels, w, w)

    bigger = graph_from_edges([("A", "B"), ("B", "C"), ("X", "Y")], counters={"A": "c0"})
    # keep the original two segments' attributes identical
    bigger = RoadGraph(
        nodes=bigger.nodes,
        segments=(graph.segments[0], graph.segments[1], bigger.segments[2]),
        counters={"A": "c0"},
    )
    priors2 = random_priors(bigger, cfg.num_clusters, seed=8)
    priors2[:2] = priors  # e0 and e1
    feats2, counter2 = record_inputs(cfg, bigger, record, priors2, stats)
    labels2 = LabelArrays(
        cc=np.array([1, 2, -1]), speed=np.array([0.1, -0.4, 0.0]),
        speed_mask=np.array([True, True, False]), vol=np.array([0, 2, -1]),
    )
    _, after = compute_loss(forward(store, cfg, bigger, feats2, counter2), labels2, w, w)
    assert abs(before.loss - after.loss) <= 1e-12
    assert abs(before.loss_cc - after.loss_cc) <= 1e-12
    assert abs(before.loss_speed - after.loss_speed) <= 1e-12
    assert abs(before.loss_vol - after.loss_vol) <= 1e-12


def test_end_to_end_gradient_check_six_segments():
    cfg = TINY
    graph, feats, counter = six_segment_setup(cfg)
    labels = six_segment_labels()
    cc_w = np.array([1.0, 2.0, 0.5])
    vol_w = np.array([0.7, 1.0, 1.3])
    store = init_params(cfg, seed=11)

    def loss_value() -> float:
        pred = forward(store, cfg, graph, feats, counter)
        loss, _ = compute_loss(pred, labels, cc_w, vol_w, cfg.lambdas)
        return loss.item()

    pred = forward(store, cfg, graph, feats, counter)
    loss, _ = compute_loss(pred, labels, cc_w, vol_w, cfg.lambdas)
    store.zero_grad()
    loss.backward()
    numeric = central_diff_store(loss_value, store)
    for name, p in store.items():
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        assert max_rel_error(grad, numeric[name]) < 1e-6, name


def test_ablation_gates_zero_the_right_slices():
    cfg = TINY
    graph, record, priors, stats = six_segment_city(cfg)
    feats, counter = record_inputs(cfg, graph, record, priors, stats)
    store = init_params(cfg, seed=12)
    base = forward(store, cfg, graph, feats, counter)

    no_prior_cfg = replace(cfg, use_prior_block=False)
    cells, continuous, prior_block = static_inputs(no_prior_cfg, graph, priors, stats)
    assert not prior_block.any() and prior_block.shape == feats[2].shape
    assert np.array_equal(cells, feats[0]) and np.array_equal(continuous, feats[1])
    zeroed_feats = (feats[0], feats[1], np.zeros_like(feats[2]))
    gated = forward(store, no_prior_cfg, graph, (cells, continuous, prior_block), counter)
    explicit = forward(store, cfg, graph, zeroed_feats, counter)
    assert np.allclose(gated.cc_logits.data, explicit.cc_logits.data, atol=1e-12)
    # and it actually differs from the full model
    assert not np.allclose(gated.cc_logits.data, base.cc_logits.data)

    no_static_cfg = replace(cfg, use_static=False)
    static_feats = static_inputs(no_static_cfg, graph, priors, stats)
    assert not static_feats[1].any() and np.array_equal(static_feats[2], feats[2])
    blanked = (np.zeros_like(feats[0]), np.zeros_like(feats[1]), feats[2])
    gated_static = forward(store, no_static_cfg, graph, static_feats, counter)
    explicit_static = forward(store, no_static_cfg, graph, blanked, counter)
    assert np.allclose(gated_static.cc_logits.data, explicit_static.cc_logits.data, atol=1e-12)


def test_no_gnn_heads_read_pre_aggregation_features():
    cfg = replace(TINY, gnn_layers=0)
    graph, feats, counter = six_segment_setup(cfg)
    store = init_params(cfg, seed=13)
    pred = forward(store, cfg, graph, feats, counter)
    assert np.all(np.isfinite(pred.cc_logits.data))
    assert not any(name.startswith("gnn") for name in store.names())


@pytest.mark.parametrize(
    "overrides",
    [{}, {"prior_mode": "active_row"}, {"use_static": False}, {"use_prior_block": False}],
    ids=["full", "active_row", "no_static", "no_prior_block"],
)
def test_forward_on_arrays_equals_forward_on_a_param_store(overrides):
    cfg = replace(TINY, **overrides)
    graph, feats, counter = six_segment_setup(cfg)
    store = init_params(cfg, seed=4)
    traced = forward(store, cfg, graph, feats, counter)
    plain = forward(store.arrays(), cfg, graph, feats, counter)
    for name in ("cc_logits", "speed_pred", "vol_logits"):
        value = getattr(plain, name)
        assert type(value) is np.ndarray
        assert value.tobytes() == getattr(traced, name).data.tobytes()


def test_predict_probabilities_examples():
    stats = identity_stats()  # speed_mean 30, speed_std 10
    pred_like = type("P", (), {})()
    pred_like.cc_logits = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    pred_like.vol_logits = np.zeros((2, 3))
    pred_like.speed_pred = np.array([0.0, 1.0])
    probs = predict_probabilities(pred_like, stats)
    assert np.allclose(probs.cc[0], 1 / 3)
    assert probs.cc[1, 0] > 0.9999
    assert probs.speed_kph.tolist() == [30.0, 40.0]


def test_make_label_arrays_codings(toy_dataset):
    graph = toy_dataset.graph
    stats = identity_stats()
    arrays = make_label_arrays(toy_dataset.labels, 0, graph, stats)
    assert arrays.cc.tolist() == [0, 1, 2]  # cc 1/2/3 -> 0/1/2
    assert arrays.vol.tolist() == [0, 1, 2]  # {1,3,5} -> {0,1,2}
    assert arrays.speed_mask.all()
    assert np.allclose(arrays.speed, (np.array([38.0, 20.0, 10.0]) - 30.0) / 10.0)

    arrays1 = make_label_arrays(toy_dataset.labels, 1, graph, stats)
    assert arrays1.cc.tolist() == [-1, 0, -1]  # the undefined cc=0 masked


def test_inverse_frequency_weights_clipped():
    w = inverse_frequency_weights([np.array([0] * 98 + [1, 2]), np.full(100, -1)], 3)
    assert w[0] == pytest.approx(100 / (3 * 98))
    assert w[1] == 10.0 and w[2] == 10.0  # clipped at the ceiling


def test_config_hash_distinguishes_configs():
    assert config_hash(ModelConfig()) == config_hash(ModelConfig())
    assert config_hash(ModelConfig()) != config_hash(ModelConfig(hidden=32))


def test_overfit_small_instance_memorizes():
    """500 steps on one fixed instance drive the congestion loss under 0.05."""
    cfg = ModelConfig(
        volume_hidden=(16,), static_hidden=(16,), gnn_layers=2,
        hidden=16, head_blocks=1, num_clusters=3,
    )
    edges = [(f"N{i}", f"N{(i + 1) % 10}") for i in range(10)]
    edges += [(f"N{(i + 1) % 10}", f"N{i}") for i in range(10)]
    graph = graph_from_edges(edges, counters={"N0": "c0", "N5": "c1"})
    assert len(graph.segments) == 20
    record = VolumeRecord("r0", date(2022, 1, 3), 40, {"N0": (3, 1, 4, 1), "N5": (2, 7, 1, 8)})
    from t4c.seggraph import fit_normalization

    feats, counter = record_inputs(
        cfg, graph, record, random_priors(graph, 3, seed=2),
        fit_normalization(graph, [record]),
    )
    rng = np.random.default_rng(0)
    labels = LabelArrays(
        cc=rng.integers(0, 3, size=20),
        speed=rng.normal(size=20),
        speed_mask=np.ones(20, bool),
        vol=rng.integers(0, 3, size=20),
    )
    store = init_params(cfg, seed=1)
    w = np.ones(3)
    final_cc = None
    for _ in range(500):
        pred = forward(store, cfg, graph, feats, counter)
        loss, report = compute_loss(pred, labels, w, w, cfg.lambdas)
        store.zero_grad()
        loss.backward()
        ad.adam_step(store, lr=0.01)
        final_cc = report.loss_cc
    assert final_cc < 0.05
