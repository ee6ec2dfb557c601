"""Equal-frequency volume clustering and per-segment congestion priors.

Records are keyed by their total counter volume (``volume_sum``), sorted,
and cut into K near-equal groups. The priors are one (segments, K, 3)
block in graph segment order: row [s, i] holds the empirical distribution
of congestion states (undefined and green merged, yellow, red) of segment s
over the records of cluster i, which downstream code feeds to the network
as prior knowledge.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import LabelTable, RoadGraph, VolumeRecord, parse_json, read_json, write_json

__all__ = [
    "ClusterModel",
    "volume_sum",
    "fit_clusters",
    "assign_cluster",
    "build_prior_matrices",
    "save_cluster_model",
    "load_cluster_model",
]

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


@dataclass(frozen=True)
class _ClusterFile:  # the JSON object save_cluster_model writes
    K: int
    thresholds: tuple[float, ...]
    priors: dict[str, np.ndarray]


def volume_sum(record: VolumeRecord) -> float:
    """Total of all four bins over all counters present in the record."""
    return float(sum(sum(vec) for vec in record.volumes.values()))


def fit_clusters(records: Sequence[VolumeRecord], num_clusters: int) -> ClusterModel:
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
) -> tuple[np.ndarray, np.ndarray]:
    """Tally congestion states per (segment, cluster) into the (S, K, 3) priors.

    Returns the priors and the (S, K) support, the count of labeled records
    behind each row, both in graph segment order. State columns merge
    undefined (0) into green (1); yellow (2) and red (3) get their own
    columns. Each supported row is the plain empirical distribution
    counts / n; unsupported rows fall back to the segment's distribution
    over all clusters, or to uniform for unlabeled segments.
    """
    k = model.num_clusters
    seg_index = {seg_id: i for i, seg_id in enumerate(graph.segment_ids)}
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
    priors = np.divide(counts, support, out=np.broadcast_to(fallback, counts.shape).copy(), where=support > 0)
    return priors, support[:, :, 0].astype(np.int64)


def save_cluster_model(path, model: ClusterModel, priors: np.ndarray, segment_ids: Sequence[str]) -> Path:
    """Write ``{K, thresholds, priors}`` as deterministic JSON, each segment's K x 3 prior under its id."""
    path = Path(path)
    obj = {
        "K": model.num_clusters,
        "thresholds": list(model.thresholds),
        "priors": dict(zip(segment_ids, priors.tolist())),
    }
    write_json(path, obj)
    return path


def load_cluster_model(path, segment_ids: Sequence[str]) -> tuple[ClusterModel, np.ndarray]:
    """Inverse of :func:`save_cluster_model`: the model, and the (S, K, 3) priors of ``segment_ids`` in that order.
    The assignment is not stored.

    A damaged file raises ValueError naming it and `t4c fit-clusters`: one
    ``read_json`` refuses as ``_ClusterFile``, a K below 1, thresholds that
    are not K - 1 non-decreasing numbers, or a prior that is not a K x 3
    matrix of non-negative numbers; so does a file without a prior for one
    of ``segment_ids``, naming that segment.
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
        priors: dict[str, np.ndarray] = {}
        for seg_id, rows in obj["priors"].items():
            priors[seg_id] = matrix = np.asarray(rows, dtype=np.float64)  # ragged rows: a ValueError
            if matrix.shape != (k, 3):
                raise ValueError(f"prior for {seg_id!r} has shape {matrix.shape}, expected ({k}, 3)")
            if (matrix < 0.0).any():
                raise ValueError(f"prior for {seg_id!r} must hold non-negative numbers, got {rows!r}")
    except ValueError as exc:
        raise ValueError(f"{path}: damaged cluster model ({exc}); produce it again with `t4c fit-clusters`") from None
    missing = next((seg_id for seg_id in segment_ids if seg_id not in priors), None)
    if missing is not None:
        raise ValueError(f"{path} has no prior for segment {missing!r}; produce it again with `t4c fit-clusters`")
    model = ClusterModel(num_clusters=k, thresholds=thresholds, assignment={})
    return model, np.array([priors[seg_id] for seg_id in segment_ids]).reshape(len(segment_ids), k, 3)
