"""Segments-as-nodes graph and per-segment raw feature assembly.

The derived graph takes every road segment as a node; two segments are
adjacent when they share at least one endpoint intersection (direction
ignored). Feature assembly produces, per segment: the four categorical
codes, the z-normalized continuous attributes, the 8-vector counter slice
(four bins at the tail node, four at the head, zeros where no counter or
no data) and the flattened congestion prior block.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .clustering import PriorMatrix
from .data import LabelTable, RoadGraph, VolumeRecord

__all__ = [
    "SegmentGraph",
    "FeatureBundle",
    "NormStats",
    "build_line_graph",
    "mean_aggregation_matrix",
    "fit_normalization",
    "assemble_features",
    "counter_slice_matrix",
    "normalized_counter_slice",
]

SIGMA_FLOOR = 1e-6


@dataclass(frozen=True, eq=False)
class SegmentGraph:
    """Dense-indexed segment adjacency (symmetric, no self-loops)."""

    seg_ids: tuple[str, ...]
    neighbors: tuple[tuple[int, ...], ...]

    @cached_property
    def index(self) -> dict[str, int]:
        return {seg_id: i for i, seg_id in enumerate(self.seg_ids)}

    @cached_property
    def mean_operator(self) -> np.ndarray:
        """The (N, N) neighbor-mean matrix, built on first use."""
        return mean_aggregation_matrix(self.neighbors)

    @property
    def num_segments(self) -> int:
        return len(self.seg_ids)


@dataclass(frozen=True, eq=False)
class FeatureBundle:
    """Raw per-segment model inputs for one volume record."""

    categorical: np.ndarray  # (N, 4) int64: importance, oneway, tunnel, lanes-1
    continuous: np.ndarray  # (N, 5) z-normalized
    counter_slice: np.ndarray  # (N, 8) z-normalized
    prior_block: np.ndarray  # (N, 3K) flattened priors, or (N, 3) active row


@dataclass(frozen=True, eq=False)
class NormStats:
    """Training-set means and floored sigmas for every continuous input."""

    cont_mean: np.ndarray  # (5,)
    cont_std: np.ndarray  # (5,)
    counter_mean: np.ndarray  # (8,)
    counter_std: np.ndarray  # (8,)
    speed_mean: float
    speed_std: float

    def equals(self, other: "NormStats") -> bool:
        """Bit-for-bit equality of every statistic: features built from either are identical."""
        return all(
            np.asarray(getattr(self, f.name)).tobytes() == np.asarray(getattr(other, f.name)).tobytes()
            for f in fields(self)
        )


def mean_aggregation_matrix(neighbors: Sequence[Sequence[int]]) -> np.ndarray:
    """Dense (N, N) matrix whose row i averages the listed neighbors of i.

    Rows with no neighbors are all zero, so isolated nodes aggregate to
    the zero vector.
    """
    n = len(neighbors)
    mat = np.zeros((n, n), dtype=np.float64)
    for i, nbrs in enumerate(neighbors):
        if len(nbrs) == 0:
            continue
        cols = np.asarray(list(nbrs), dtype=np.int64)
        if cols.min() < 0 or cols.max() >= n:
            raise IndexError(f"neighbor index out of range at node {i}: {list(nbrs)}")
        mat[i, cols] = 1.0 / len(cols)
    return mat


def build_line_graph(graph: RoadGraph) -> SegmentGraph:
    """Adjacency between segments that share at least one endpoint node."""
    seg_ids = tuple(s.segment_id for s in graph.segments)
    touching: dict[str, list[int]] = {}
    for i, seg in enumerate(graph.segments):
        touching.setdefault(seg.tail_node, []).append(i)
        if seg.head_node != seg.tail_node:
            touching.setdefault(seg.head_node, []).append(i)
    neighbor_sets: list[set[int]] = [set() for _ in seg_ids]
    for incident in touching.values():
        for i in incident:
            for j in incident:
                if i != j:
                    neighbor_sets[i].add(j)
    neighbors = tuple(tuple(sorted(s)) for s in neighbor_sets)
    return SegmentGraph(seg_ids=seg_ids, neighbors=neighbors)


def counter_slice_matrix(graph: RoadGraph, record: VolumeRecord) -> np.ndarray:
    """(N, 8) raw counter volumes at each segment's own endpoints.

    Tail-node bins occupy columns 0-3, head-node bins columns 4-7; nodes
    without a counter, and counters without data in this record, are zero.
    """
    out = np.zeros((len(graph.segments), 8), dtype=np.float64)
    for i, seg in enumerate(graph.segments):
        tail = record.volumes.get(seg.tail_node)
        if tail is not None:
            out[i, 0:4] = tail
        head = record.volumes.get(seg.head_node)
        if head is not None:
            out[i, 4:8] = head
    return out


def normalized_counter_slice(graph: RoadGraph, record: VolumeRecord, norm_stats: NormStats) -> np.ndarray:
    """The record's (N, 8) counter slice, z-normalized: ``FeatureBundle.counter_slice``."""
    return (counter_slice_matrix(graph, record) - norm_stats.counter_mean) / norm_stats.counter_std


def _floored_std(values: np.ndarray, axis: int = 0) -> np.ndarray:
    return np.maximum(values.std(axis=axis), SIGMA_FLOOR)


def fit_normalization(
    graph: RoadGraph,
    train_records: Sequence[VolumeRecord],
    train_labels: LabelTable | None = None,
) -> NormStats:
    """Per-feature mean and sigma over the training data (sigma floored).

    Continuous attributes are averaged over segments, counter slices over
    all (record, segment) pairs. Speed statistics come from the training
    speed labels when given, otherwise from the segments' flow speeds, and
    are used both to normalize the regression target and to map the speed
    head's output back to km/h.
    """
    if len(train_records) == 0:
        raise ValueError("cannot fit normalization on an empty training set")
    cont = graph.continuous_matrix
    cont_mean = cont.mean(axis=0)
    cont_std = _floored_std(cont)

    total = np.zeros(8)
    total_sq = np.zeros(8)
    count = 0
    for record in train_records:
        slice_ = counter_slice_matrix(graph, record)
        total += slice_.sum(axis=0)
        total_sq += (slice_ * slice_).sum(axis=0)
        count += slice_.shape[0]
    counter_mean = total / count
    counter_var = np.maximum(total_sq / count - counter_mean**2, 0.0)
    counter_std = np.maximum(np.sqrt(counter_var), SIGMA_FLOOR)

    speed_arr = np.empty(0)
    if train_labels is not None:
        speed_arr = train_labels.speed_kph[~np.isnan(train_labels.speed_kph)]  # row by row, each in segment order
    if not speed_arr.size:
        speed_arr = np.array([s.flow_speed for s in graph.segments], dtype=np.float64)
    return NormStats(
        cont_mean=cont_mean,
        cont_std=cont_std,
        counter_mean=counter_mean,
        counter_std=counter_std,
        speed_mean=float(speed_arr.mean()),
        speed_std=float(max(speed_arr.std(), SIGMA_FLOOR)),
    )


def assemble_features(
    graph: RoadGraph,
    seg_graph: SegmentGraph,
    record: VolumeRecord,
    priors: Mapping[str, PriorMatrix],
    norm_stats: NormStats,
    prior_mode: str = "full",
    cluster_index: int | None = None,
) -> FeatureBundle:
    """Build the raw per-segment inputs for one record (pure function).

    ``prior_mode="full"`` flattens each segment's whole K x 3 prior matrix
    row-major, so cluster i's distribution sits at offset 3*i;
    ``"active_row"`` keeps only the row of ``cluster_index``.
    """
    if prior_mode not in ("full", "active_row"):
        raise ValueError(f"prior_mode must be 'full' or 'active_row', got {prior_mode!r}")
    if prior_mode == "active_row" and cluster_index is None:
        raise ValueError("prior_mode 'active_row' needs the record's cluster_index")

    cont = (graph.continuous_matrix - norm_stats.cont_mean) / norm_stats.cont_std

    rows: list[np.ndarray] = []
    for seg_id in seg_graph.seg_ids:
        prior = priors.get(seg_id)
        if prior is None:
            raise ValueError(f"missing prior matrix for segment {seg_id!r}")
        if prior_mode == "full":
            rows.append(prior.matrix.reshape(-1))
        else:
            rows.append(prior.matrix[cluster_index])
    return FeatureBundle(
        categorical=graph.categorical_matrix,
        continuous=cont,
        counter_slice=normalized_counter_slice(graph, record, norm_stats),
        prior_block=np.array(rows, dtype=np.float64),
    )
