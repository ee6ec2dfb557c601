"""Comparison systems: naive counting, volume clustering, and a node GNN.

* Naive Count scores every record the same way: the per-segment empirical
  congestion distribution over the training labels (undefined merged into
  green), a (segments, 3) block, and the per-supersegment median ETA
  (lower median) over the training records, labeled or not.
* Volume Cluster conditions both statistics on the record's volume-sum
  cluster, a (segments, K, 3) block, and falls back to the naive model
  where a cell has no data.
* The node GNN works on the original intersection graph: counter volumes
  are the node inputs (zeros elsewhere), message passing runs over nodes,
  and each segment's congestion logits are read from the concatenation of
  its endpoint states.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .clustering import CC_COLUMN, ClusterModel, build_prior_matrices
from .data import (Dataset, LabelTable, RoadGraph, SuperSegment, VolumeRecord, mean_aggregation_matrix,
                   write_json)
from .model import inverse_frequency_weights
from .seggraph import column_moments
from .training import fit_loop, split_records

__all__ = [
    "NaiveCountModel",
    "VolumeClusterModel",
    "fit_naive",
    "fit_volume_cluster",
    "node_gnn_baseline",
    "save_baseline",
]

def _lower_median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


@dataclass(frozen=True, eq=False)
class NaiveCountModel:
    """City-wide congestion distributions per segment and per-ss median ETAs.

    ``cc_probs`` is (segments, 3) in ``segment_ids`` order: each labeled
    segment's own distribution, the pooled one elsewhere (and everywhere
    when not ``per_segment``). ``labelled`` marks the segments with a label.
    """

    segment_ids: tuple[str, ...]
    cc_probs: np.ndarray  # (S, 3)
    labelled: np.ndarray  # (S,) bool
    global_probs: np.ndarray  # (3,) pooled over all segments
    eta_median: dict[str, float]  # ss_id -> seconds
    per_segment: bool = True


@dataclass(frozen=True, eq=False)
class VolumeClusterModel:
    """Cluster-conditioned distributions with naive fallback, in the naive model's segment order."""

    num_clusters: int
    thresholds: tuple[float, ...]
    cc_probs: np.ndarray  # (S, K, 3)
    eta_median: dict[str, np.ndarray]  # ss_id -> (K,)
    naive: NaiveCountModel


def fit_naive(
    labels: LabelTable,
    supersegments: Sequence[SuperSegment],
    record_ids: Iterable[str],
    per_segment: bool = True,
) -> NaiveCountModel:
    """Tally training congestion labels, and the ETA medians of the training records ``record_ids``, labeled or not.

    ``per_segment=False`` applies the pooled city-wide distribution to
    every segment instead of its own tally.
    """
    row, col = np.nonzero(labels.cc >= 0)
    if col.size == 0:
        raise ValueError("fit_naive needs at least one congestion label")
    cells = col * 3 + CC_COLUMN[labels.cc[row, col]]  # undefined merges into green
    counts = np.bincount(cells, minlength=len(labels.segment_ids) * 3).astype(np.float64).reshape(-1, 3)
    pooled = counts.sum(axis=0)
    global_probs = pooled / pooled.sum()
    totals = counts.sum(axis=1, keepdims=True)
    fallback = np.broadcast_to(global_probs, counts.shape).copy()
    cc_probs = np.divide(counts, totals, out=fallback, where=(totals > 0) & per_segment)

    record_ids = set(record_ids)
    eta_median: dict[str, float] = {}
    for ss in supersegments:
        values = [eta for rid, eta in ss.etas.items() if rid in record_ids]
        if values:
            eta_median[ss.ss_id] = _lower_median(values)
    return NaiveCountModel(labels.segment_ids, cc_probs, totals[:, 0] > 0, global_probs, eta_median, per_segment)


def fit_volume_cluster(
    cluster_model: ClusterModel,
    labels: LabelTable,
    supersegments: Sequence[SuperSegment],
    record_ids: Iterable[str],
    graph: RoadGraph,
) -> VolumeClusterModel:
    """Cluster-conditioned congestion and ETA statistics.

    Congestion cells reuse the prior tally; cells without support (and
    supersegment clusters without ETAs) take the naive values. Both take
    their ETA medians over the training records ``record_ids``, labeled or
    not, each of which the cluster model must have assigned, so a
    super-segment has cluster medians exactly when it has a naive one.
    """
    if labels.segment_ids != graph.segment_ids:
        raise ValueError("the label table's segments are not the graph's, in graph order")
    record_ids = list(record_ids)
    unknown = [rid for rid in record_ids if rid not in cluster_model.assignment]
    if unknown:
        raise ValueError(f"record {unknown[0]!r} is not in the cluster model's training set")
    cluster_of = {rid: cluster_model.assignment[rid] for rid in record_ids}
    naive = fit_naive(labels, supersegments, cluster_of)
    priors, support = build_prior_matrices(cluster_model, labels, graph)
    k = cluster_model.num_clusters
    cc_probs = np.where(support[:, :, None] > 0, priors, naive.cc_probs[:, None])

    eta_median: dict[str, np.ndarray] = {}
    for ss in supersegments:
        per_cluster: list[list[float]] = [[] for _ in range(k)]
        for rid, eta in ss.etas.items():
            if rid in cluster_of:
                per_cluster[cluster_of[rid]].append(eta)
        fallback = naive.eta_median.get(ss.ss_id)
        if fallback is not None:
            eta_median[ss.ss_id] = np.array([_lower_median(etas) if etas else fallback for etas in per_cluster])
    return VolumeClusterModel(k, cluster_model.thresholds, cc_probs, eta_median, naive)


def _naive_obj(model: NaiveCountModel) -> dict:
    return {
        "per_segment": model.per_segment,
        "global_probs": model.global_probs.tolist(),
        "cc_probs": dict(compress(zip(model.segment_ids, model.cc_probs.tolist()), model.labelled)),
        "eta_median": model.eta_median,
    }


def save_baseline(path, model: NaiveCountModel | VolumeClusterModel) -> Path:
    """Write the model as key-sorted JSON, a segment's or super-segment's statistics under its id."""
    path = Path(path)
    if isinstance(model, NaiveCountModel):
        obj = {"kind": "naive", **_naive_obj(model)}
    else:
        obj = {
            "kind": "volume_cluster",
            "K": model.num_clusters,
            "thresholds": list(model.thresholds),
            "cc_probs": dict(zip(model.naive.segment_ids, model.cc_probs.tolist())),
            "eta_median": {ss_id: medians.tolist() for ss_id, medians in model.eta_median.items()},
            "naive": _naive_obj(model.naive),
        }
    write_json(path, obj)
    return path


# ---------------------------------------------------------------------------
# node-level GNN baseline on the original intersection graph


def _node_graph(graph) -> tuple[tuple[int, ...], ...]:
    """Each node's sorted neighbor rows: the nodes it shares a segment with."""
    neighbor_sets: list[set[int]] = [set() for _ in graph.nodes]
    for a, b in graph.endpoint_rows.tolist():
        if a != b:
            neighbor_sets[a].add(b)
            neighbor_sets[b].add(a)
    return tuple(tuple(sorted(s)) for s in neighbor_sets)


def node_gnn_baseline(
    dataset: Dataset,
    train_cfg,
    seed: int = 0,
    hidden: int = 32,
    layers: int = 2,
) -> float:
    """Train the intersection-level GNN and return its validation score.

    Node inputs are the raw counter volumes (zeros where no counter);
    after message passing, each segment's congestion logits come from the
    concatenated states of its two endpoints. Trained by the main model's
    ``fit_loop`` and scored with the same metric.
    """
    records, train_records, val_records = split_records(dataset, train_cfg)
    labels = dataset.labels
    graph = dataset.graph
    node_mean = mean_aggregation_matrix(_node_graph(graph))
    tail_idx, head_idx = graph.endpoint_rows.T

    # z-normalize volumes over the training (record, node) population
    raw_feats = {r.record_id: graph.node_volumes(r) for r in records}
    mean, std = column_moments(raw_feats[r.record_id] for r in train_records)
    feats = {rid: (x - mean) / std for rid, x in raw_feats.items()}

    cc_targets = np.where(labels.cc > 0, labels.cc - 1, -1).astype(np.int64)  # codes 1..3 -> classes 0..2
    unlabelled = np.full(len(graph.segments), -1, dtype=np.int64)
    rows = labels.rows
    targets = {r.record_id: cc_targets[rows[r.record_id]] if r.record_id in rows else unlabelled for r in records}
    weights = inverse_frequency_weights([targets[r.record_id] for r in train_records], 3)

    rng = np.random.default_rng(seed)
    params = {"in_w": ad.glorot_uniform(rng, 4, hidden), "in_b": np.zeros(hidden)}
    for layer in range(layers):
        params[f"gnn{layer}_self_w"] = ad.glorot_uniform(rng, hidden, hidden)
        params[f"gnn{layer}_nbr_w"] = ad.glorot_uniform(rng, hidden, hidden)
        params[f"gnn{layer}_b"] = np.zeros(hidden)
    params["edge_w"] = ad.glorot_uniform(rng, 2 * hidden, 3)
    params["edge_b"] = np.zeros(3)
    store = ad.ParamStore(params)

    def record_inputs(record: VolumeRecord):
        return feats[record.record_id], targets[record.record_id]

    def record_loss(x, target):
        h = ad.linear(x, store["in_w"], store["in_b"])
        for layer in range(layers):
            h = ad.gnn_round(h, node_mean, *(store[f"gnn{layer}_{part}"] for part in ("self_w", "nbr_w", "b")))
        pair = ad.concat([ad.getitem(h, tail_idx), ad.getitem(h, head_idx)], axis=1)
        logits = ad.linear(pair, store["edge_w"], store["edge_b"])
        loss, _n = ad.weighted_cross_entropy(logits, target, weights)
        return loss, logits

    fit = fit_loop(store, train_cfg, seed, train_records, val_records, labels, record_inputs, record_loss)
    return fit.val_scores[fit.best_epoch]
