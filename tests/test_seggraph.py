"""The road graph's segment adjacency against a brute-force endpoint oracle, its mean
operator, plus normalization and feature assembly contracts."""

import re
from dataclasses import replace
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t4c import autodiff as ad
from t4c import data as data_module
from t4c.autodiff import Tensor
from t4c.data import NodeRec, RoadGraph, SynthSpec, VolumeRecord, generate_synthetic_city, mean_aggregation_matrix
from t4c.model import ModelConfig, forward, init_params, static_inputs
from t4c.seggraph import (
    NormStats,
    counter_slice_matrix,
    fit_normalization,
)

from conftest import central_diff_tensor, label_table, make_segment, max_rel_error, record_inputs


def graph_from_edges(edges, counters=None):
    """edges: list of (tail, head) node names."""
    node_names = sorted({n for e in edges for n in e})
    counters = counters or {}
    nodes = tuple(
        NodeRec(n, 48.0, 11.0, counters.get(n)) for n in node_names
    )
    segments = tuple(
        make_segment(f"e{i}", tail, head) for i, (tail, head) in enumerate(edges)
    )
    return RoadGraph(nodes=nodes, segments=segments, counters=counters)


def brute_force_adjacency(segments):
    """O(E^2) oracle: adjacent iff any endpoint is shared."""
    n = len(segments)
    out = [set() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ends_i = {segments[i].tail_node, segments[i].head_node}
            ends_j = {segments[j].tail_node, segments[j].head_node}
            if ends_i & ends_j:
                out[i].add(j)
    return [tuple(sorted(s)) for s in out]


def test_three_edges_through_one_node_all_adjacent():
    graph = graph_from_edges([("A", "B"), ("B", "C"), ("B", "A")])
    assert graph.segment_ids == ("e0", "e1", "e2")
    assert graph.neighbors == ((1, 2), (0, 2), (0, 1))


def test_disconnected_edges_have_no_neighbors():
    graph = graph_from_edges([("A", "B"), ("C", "D")])
    assert graph.neighbors == ((), ())


def test_star_spokes_all_pairwise_adjacent():
    spokes = [("X", f"L{i}") for i in range(5)]
    graph = graph_from_edges(spokes)
    assert graph.neighbors == tuple(brute_force_adjacency(graph.segments))
    assert all(len(nbrs) == 4 for nbrs in graph.neighbors)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 8), st.integers(1, 30))
def test_line_graph_matches_brute_force(seed, n_nodes, n_edges):
    rng = np.random.default_rng(seed)
    names = [f"n{i}" for i in range(n_nodes)]
    edges = []
    for _ in range(n_edges):
        a, b = rng.choice(n_nodes, size=2, replace=False)
        edges.append((names[a], names[b]))
    graph = graph_from_edges(edges)
    assert list(graph.neighbors) == brute_force_adjacency(graph.segments)
    # symmetry and no self-loops
    for i, nbrs in enumerate(graph.neighbors):
        assert i not in nbrs
        for j in nbrs:
            assert i in graph.neighbors[j]


# -- mean-aggregation operator -------------------------------------------------------


def test_mean_aggregate_isolated_node_is_zero():
    x = np.arange(6, dtype=float).reshape(3, 2)
    out = mean_aggregation_matrix([(1,), (), (0, 1)]) @ x
    assert out[1].tolist() == [0.0, 0.0]
    assert np.allclose(out[0], x[1])
    assert np.allclose(out[2], (x[0] + x[1]) / 2.0)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_mean_aggregate_matches_dense_oracle(data):
    n = data.draw(st.integers(min_value=1, max_value=20))
    d = data.draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    dense = rng.random((n, n)) < 0.3
    np.fill_diagonal(dense, False)
    dense |= dense.T  # symmetric like the segment graph
    neighbors = [tuple(np.flatnonzero(dense[i])) for i in range(n)]
    x = rng.normal(size=(n, d))
    out = mean_aggregation_matrix(neighbors) @ x
    expected = np.zeros((n, d))
    for i in range(n):
        if neighbors[i]:
            expected[i] = x[list(neighbors[i])].mean(axis=0)
    assert np.allclose(out, expected, atol=1e-12, rtol=1e-12)


def test_grad_mean_aggregate():
    """The neighbour-mean path of a GNN round: no self weight, identity neighbour weight."""
    rng = np.random.default_rng(5)
    operator = mean_aggregation_matrix([(1, 2), (0,), (), (0, 1, 2)])
    bias = np.full(3, 10.0)  # keeps every unit above the ReLU's kink

    def build(t):
        agg = ad.gnn_round(t, operator, np.zeros((3, 3)), np.eye(3), bias)
        return ad.mse(agg, np.zeros((4, 3)))[0]

    t = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    build(t).backward()
    numeric = central_diff_tensor(lambda: build(Tensor(t.data)).item(), t)
    assert max_rel_error(t.grad, numeric) < 1e-6


def test_mean_aggregation_matrix_rejects_out_of_range_neighbor():
    with pytest.raises(IndexError, match="node 1"):
        mean_aggregation_matrix([(1,), (0, 2)])


def test_mean_operator_is_built_once_per_graph(toy_graph, monkeypatch):
    builds = []

    def counting(neighbors):
        builds.append(neighbors)
        return mean_aggregation_matrix(neighbors)

    monkeypatch.setattr(data_module, "mean_aggregation_matrix", counting)
    assert toy_graph.mean_operator is toy_graph.mean_operator
    assert len(builds) == 1 and builds[0] is toy_graph.neighbors
    assert not toy_graph.mean_operator.flags.writeable

    graph = replace(toy_graph)  # the same segments, nothing built yet
    config = ModelConfig(volume_hidden=(4,), static_hidden=(4,), hidden=4, head_blocks=1)
    store = init_params(config, seed=0)
    features = record_inputs(config, graph, record("r0", {}), uniform_priors(graph), identity_stats())
    first = forward(store, config, graph, *features)
    second = forward(store, config, graph, *features)
    assert len(builds) == 2  # one more for the new graph, none for the second forward
    assert np.array_equal(first.cc_logits.data, second.cc_logits.data)


# -- normalization ------------------------------------------------------------------


def record(record_id, volumes):
    return VolumeRecord(record_id, date(2022, 1, 3), 30, volumes)


def test_constant_feature_floored_sigma(toy_graph):
    stats = fit_normalization(toy_graph, [record("r0", {})])
    # parsed_maxspeed is 50 for every segment
    assert stats.cont_std[0] == 1e-6
    normalized = (50.0 - stats.cont_mean[0]) / stats.cont_std[0]
    assert normalized == 0.0


def test_two_point_feature_gives_unit_sigma():
    graph = graph_from_edges([("A", "B"), ("B", "C")])
    segments = (
        make_segment("e0", "A", "B", length_meters=2.0),
        make_segment("e1", "B", "C", length_meters=1e-12),
    )
    # length column values {2, ~0}: mean 1, sigma 1
    graph = RoadGraph(nodes=graph.nodes, segments=segments, counters={})
    stats = fit_normalization(graph, [record("r0", {})])
    col = 2  # length_meters position
    assert abs(stats.cont_mean[col] - 1.0) < 1e-9
    assert abs(stats.cont_std[col] - 1.0) < 1e-9


def test_stats_invariant_under_record_permutation(toy_graph):
    records = [
        record("r0", {"A": (1, 2, 3, 4)}),
        record("r1", {"A": (5, 0, 0, 1)}),
        record("r2", {}),
    ]
    a = fit_normalization(toy_graph, records)
    b = fit_normalization(toy_graph, records[::-1])
    assert np.array_equal(a.counter_mean, b.counter_mean)
    assert np.array_equal(a.counter_std, b.counter_std)


def test_empty_training_set_rejected(toy_graph):
    with pytest.raises(ValueError):
        fit_normalization(toy_graph, [])


def test_speed_stats_come_from_labels_when_given(toy_graph):
    labels = label_table({"r0": {"e1": (None, 10.0, None)}, "r1": {"e1": (None, 30.0, None)}})
    stats = fit_normalization(toy_graph, [record("r0", {})], labels)
    assert stats.speed_mean == 20.0
    assert stats.speed_std == 10.0


# -- feature assembly ------------------------------------------------------------------


def uniform_priors(graph, k=10):
    return np.full((len(graph.segments), k, 3), 1 / 3)


def identity_stats():
    return NormStats(
        cont_mean=np.zeros(5),
        cont_std=np.ones(5),
        counter_mean=np.zeros(8),
        counter_std=np.ones(8),
        speed_mean=0.0,
        speed_std=1.0,
    )


def test_counter_slice_uses_own_endpoints(toy_graph):
    rec = record("r0", {"A": (1, 2, 3, 4)})
    slice_ = counter_slice_matrix(toy_graph, rec)
    # e1 = A -> B: tail A has the counter, head B none
    assert slice_[0].tolist() == [1, 2, 3, 4, 0, 0, 0, 0]
    # e2 = B -> C: neither endpoint has a counter
    assert slice_[1].tolist() == [0] * 8
    # e3 = B -> A: head A has the counter
    assert slice_[2].tolist() == [0, 0, 0, 0, 1, 2, 3, 4]


def test_gathered_counter_slice_equals_a_per_segment_loop_on_every_record(tmp_path):
    spec = SynthSpec(num_nodes=30, counter_fraction=0.3, num_records=40, records_per_day=10)
    dataset = generate_synthetic_city(spec, seed=4, out_dir=tmp_path / "city")
    graph = dataset.graph
    assert graph.endpoint_rows.shape == (len(graph.segments), 2) and not graph.endpoint_rows.flags.writeable
    for rec in dataset.records:
        oracle = np.zeros((len(graph.segments), 8))
        for i, seg in enumerate(graph.segments):
            for offset, node in ((0, seg.tail_node), (4, seg.head_node)):
                if node in rec.volumes:
                    oracle[i, offset:offset + 4] = rec.volumes[node]
        assert counter_slice_matrix(graph, rec).tobytes() == oracle.tobytes(), rec.record_id
    assert any(rec.volumes for rec in dataset.records)


def test_feature_at_training_mean_normalizes_to_zero(toy_graph):
    stats = fit_normalization(toy_graph, [record("r0", {})])
    _cells, continuous, _prior_block = static_inputs(ModelConfig(), toy_graph, uniform_priors(toy_graph), stats)
    # limit_speed is 50 everywhere -> z-score exactly 0
    col = 4
    assert np.all(continuous[:, col] == 0.0)


def test_prior_row_lands_at_cluster_offset(toy_graph):
    priors = uniform_priors(toy_graph, k=10)
    row = np.array([0.5, 0.25, 0.25])
    priors[0, 3] = row  # e1
    _cells, _continuous, prior_block = static_inputs(ModelConfig(num_clusters=10), toy_graph, priors, identity_stats())
    assert prior_block.shape == (3, 30)
    assert prior_block[0, 9:12].tolist() == [0.5, 0.25, 0.25]


def test_active_row_mode_selects_single_row(toy_graph):
    priors = uniform_priors(toy_graph, k=4)
    priors[1, 2] = [0.1, 0.2, 0.7]  # e2
    config = ModelConfig(num_clusters=4, prior_mode="active_row")
    _cells, _continuous, prior_block = static_inputs(config, toy_graph, priors, identity_stats(), row=2)
    assert prior_block.shape == (3, 3)
    assert prior_block[1].tolist() == [0.1, 0.2, 0.7]


def test_active_row_requires_a_row(toy_graph):
    config = ModelConfig(prior_mode="active_row")
    with pytest.raises(ValueError, match="prior_mode 'active_row' needs a prior row"):
        static_inputs(config, toy_graph, uniform_priors(toy_graph), identity_stats())


def test_missing_prior_rejected(toy_graph):
    priors = uniform_priors(toy_graph)[[0, 2]]  # e2's row dropped
    with pytest.raises(ValueError) as err:
        static_inputs(ModelConfig(), toy_graph, priors, identity_stats())
    assert "priors of shape (2, 10, 3), expected (3, 10, 3)" in str(err.value)


def test_prior_width_other_than_the_configs_and_a_code_outside_its_vocabulary_are_refused(toy_graph):
    for config in (ModelConfig(num_clusters=10), ModelConfig(num_clusters=10, prior_mode="active_row")):
        with pytest.raises(ValueError, match=re.escape("priors of shape (3, 4, 3), expected (3, 10, 3)")):
            static_inputs(config, toy_graph, uniform_priors(toy_graph, k=4), identity_stats(), row=0)
    wide_lanes = replace(toy_graph, segments=(make_segment("e1", "A", "B", lanes=5), *toy_graph.segments[1:]))
    with pytest.raises(IndexError, match=r"values in \[1, 4\] for table of size 4"):
        static_inputs(ModelConfig(), wide_lanes, uniform_priors(toy_graph), identity_stats())


def test_assembly_is_pure(toy_graph):
    rec = record("r0", {"A": (1, 2, 3, 4)})
    stats = fit_normalization(toy_graph, [rec])
    priors = uniform_priors(toy_graph)
    before = priors.copy()
    a, a_counter_slice = record_inputs(ModelConfig(), toy_graph, rec, priors, stats)
    b, b_counter_slice = record_inputs(ModelConfig(), toy_graph, rec, priors, stats)
    for a_block, b_block in zip(a, b):
        assert np.array_equal(a_block, b_block)
    assert np.array_equal(a_counter_slice, b_counter_slice)
    assert np.array_equal(priors, before)
