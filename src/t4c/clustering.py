"""Equal-frequency volume clustering and per-segment congestion priors.

Records are keyed by their total counter volume (``volume_sum``), sorted,
and cut into K near-equal groups. For every road segment a K x 3 matrix
then holds the empirical distribution of congestion states (undefined and
green merged, yellow, red) conditioned on the cluster, which downstream
code feeds to the network as prior knowledge.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import LabelTable, RoadGraph, VolumeRecord, parse_json, read_json

__all__ = [
    "ClusterModel",
    "PriorMatrix",
    "volume_sum",
    "fit_clusters",
    "assign_cluster",
    "build_prior_matrices",
    "save_cluster_model",
    "load_cluster_model",
]

DEFAULT_NUM_CLUSTERS = 10
UNIFORM_ROW = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
CC_COLUMN = np.array([0, 0, 1, 2])  # prior column of each congestion code: undefined merges into green


@dataclass(frozen=True)
class ClusterModel:
    """Fitted equal-frequency binning of records by total volume.

    ``thresholds`` holds the K-1 lower bin edges (the volume sum of the
    first record of each cluster above the first); ``assignment`` maps
    every training record to its fitted cluster.
    """

    num_clusters: int
    thresholds: tuple[float, ...]
    assignment: dict[str, int]


@dataclass(frozen=True, eq=False)
class PriorMatrix:
    """Per-segment K x 3 congestion distribution conditioned on cluster.

    ``support[i]`` counts the labeled records behind row i; rows without
    support carry the fallback distribution (the segment's all-cluster
    distribution, or uniform if the segment was never labeled).
    """

    segment_id: str
    matrix: np.ndarray  # (K, 3)
    support: np.ndarray | None = None  # (K,) int; None when loaded from disk


@dataclass(frozen=True)
class _ClusterFile:  # the JSON object save_cluster_model writes
    K: int
    thresholds: tuple[float, ...]
    priors: dict[str, np.ndarray]


def volume_sum(record: VolumeRecord) -> float:
    """Total of all four bins over all counters present in the record."""
    return float(sum(sum(vec) for vec in record.volumes.values()))


def fit_clusters(records: Sequence[VolumeRecord], num_clusters: int = DEFAULT_NUM_CLUSTERS) -> ClusterModel:
    """Sort records by (volume_sum, record_id) and cut into K equal bins.

    The record with sort rank r goes to cluster floor(r * K / N), so the
    cluster sizes differ by at most one. Ties on the volume sum are broken
    by record id, which makes the fit independent of the input order.
    """
    n = len(records)
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    if n < num_clusters:
        raise ValueError(f"need at least {num_clusters} records, got {n}")
    keyed = sorted(((volume_sum(r), r.record_id) for r in records))
    assignment: dict[str, int] = {}
    thresholds: list[float] = []
    previous_cluster = 0
    for rank, (vsum, record_id) in enumerate(keyed):
        cluster = (rank * num_clusters) // n
        if cluster != previous_cluster:
            thresholds.append(vsum)
            previous_cluster = cluster
        assignment[record_id] = cluster
    return ClusterModel(num_clusters=num_clusters, thresholds=tuple(thresholds), assignment=assignment)


def assign_cluster(model: ClusterModel, record: VolumeRecord) -> int:
    """Threshold lookup: the number of bin edges at or below the volume sum."""
    return bisect_right(model.thresholds, volume_sum(record))


def build_prior_matrices(
    model: ClusterModel,
    labels: LabelTable,
    graph: RoadGraph,
) -> dict[str, PriorMatrix]:
    """Tally congestion states per (segment, cluster) into K x 3 priors.

    State columns merge undefined (0) into green (1); yellow (2) and red
    (3) get their own columns. Each supported row is the plain empirical
    distribution counts / n_i; unsupported rows fall back to the segment's
    distribution over all clusters, or to uniform for unlabeled segments.
    """
    k = model.num_clusters
    seg_index = {s.segment_id: i for i, s in enumerate(graph.segments)}
    unknown = [rid for rid in labels.record_ids if rid not in model.assignment]
    if unknown:
        raise ValueError(f"record {unknown[0]!r} is not in the cluster model's training set")
    position = np.array([seg_index[seg_id] for seg_id in labels.segment_ids], dtype=np.int64)
    cluster = np.array([model.assignment[rid] for rid in labels.record_ids], dtype=np.int64)
    row, col = np.nonzero(labels.cc >= 0)
    cells = (position[col] * k + cluster[row]) * 3 + CC_COLUMN[labels.cc[row, col]]
    # integer tallies, so the divisions below give the same bits as a per-label count would
    counts = np.bincount(cells, minlength=len(seg_index) * k * 3).astype(np.float64).reshape(-1, k, 3)
    support = counts.sum(axis=2, keepdims=True)  # (S, K, 1)
    total = counts.sum(axis=1, keepdims=True)  # (S, 1, 3)
    grand = total.sum(axis=2, keepdims=True)
    fallback = np.divide(total, grand, out=np.broadcast_to(UNIFORM_ROW, total.shape).copy(), where=grand > 0)
    matrix = np.divide(counts, support, out=np.broadcast_to(fallback, counts.shape).copy(), where=support > 0)
    support = support[:, :, 0].astype(np.int64)
    return {seg_id: PriorMatrix(seg_id, matrix[i], support[i]) for seg_id, i in seg_index.items()}


def save_cluster_model(path, model: ClusterModel, priors: Mapping[str, PriorMatrix]) -> Path:
    """Write ``{K, thresholds, priors}`` as deterministic JSON."""
    path = Path(path)
    obj = {
        "K": model.num_clusters,
        "thresholds": list(model.thresholds),
        "priors": {seg_id: priors[seg_id].matrix.tolist() for seg_id in sorted(priors)},
    }
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def load_cluster_model(path) -> tuple[ClusterModel, dict[str, PriorMatrix]]:
    """Inverse of :func:`save_cluster_model`; the assignment is not stored.

    A damaged file raises ValueError naming it and `t4c fit-clusters`: one
    ``read_json`` refuses as ``_ClusterFile``, a K below 1, thresholds that
    are not K - 1 non-decreasing numbers, or a prior that is not a K x 3
    matrix of non-negative numbers.
    """
    path = Path(path)
    try:
        obj = read_json(_ClusterFile, parse_json(path.read_text(encoding="utf-8")))  # not UTF-8 or JSON: a ValueError
        k = obj["K"]
        if k < 1:
            raise ValueError(f"'K' must be a positive integer, got {k!r}")
        thresholds = tuple(map(float, obj["thresholds"]))
        if len(thresholds) != k - 1 or any(b < a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError(f"'thresholds' must be K - 1 = {k - 1} non-decreasing numbers, got {obj['thresholds']!r}")
        model = ClusterModel(num_clusters=k, thresholds=thresholds, assignment={})
        priors: dict[str, PriorMatrix] = {}
        for seg_id, rows in obj["priors"].items():
            matrix = np.asarray(rows, dtype=np.float64)  # ragged rows: a ValueError
            if matrix.shape != (k, 3):
                raise ValueError(f"prior for {seg_id!r} has shape {matrix.shape}, expected ({k}, 3)")
            if (matrix < 0.0).any():
                raise ValueError(f"prior for {seg_id!r} must hold non-negative numbers, got {rows!r}")
            priors[seg_id] = PriorMatrix(segment_id=seg_id, matrix=matrix, support=None)
    except ValueError as exc:
        raise ValueError(f"{path}: damaged cluster model ({exc}); produce it again with `t4c fit-clusters`") from None
    return model, priors
