"""Segments-as-nodes graph and per-segment raw feature assembly.

The derived graph takes every road segment as a node; two segments are
adjacent when they share at least one endpoint intersection (direction
ignored). Per segment, the model reads two kinds of input. Feature
assembly builds the static ones, which read no counter volume: the four
categorical codes, the z-normalized continuous attributes and the
flattened congestion prior block. They change only with the volume
cluster. The counter slice is built per record: the 8-vector of four bins
at the tail node and four at the head, zeros where no counter or no data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .clustering import PriorMatrix
from .data import CONTINUOUS_FIELDS, LabelTable, RoadGraph, VolumeRecord

__all__ = [
    "SegmentGraph",
    "FeatureBundle",
    "NormStats",
    "build_line_graph",
    "mean_aggregation_matrix",
    "column_moments",
    "fit_normalization",
    "assemble_features",
    "counter_slice_matrix",
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
        """The (N, N) neighbor-mean matrix, built on first use, read-only."""
        out = mean_aggregation_matrix(self.neighbors)
        out.setflags(write=False)
        return out

    @property
    def num_segments(self) -> int:
        return len(self.seg_ids)


@dataclass(frozen=True, eq=False)
class FeatureBundle:
    """The per-segment model inputs that read no counter volume: one bundle serves every record of a cluster."""

    categorical: np.ndarray  # (N, 4) int64: importance, oneway, tunnel, lanes-1
    continuous: np.ndarray  # (N, 5) z-normalized
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

    def normalize_counters(self, raw: np.ndarray) -> np.ndarray:
        """A raw (N, 8) counter slice, z-normalized: the model's counter input."""
        out = raw - self.counter_mean
        out /= self.counter_std  # in place: the bits of ``(raw - mean) / std``, one allocation fewer
        return out


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
    return graph.node_volumes(record).take(graph.endpoint_rows, axis=0).reshape(len(graph.segments), 8)


def _refuse_overflow(field: str, *moments) -> None:
    if not np.isfinite(moments).all():
        raise ValueError(f"{field}: values too large to normalize: their mean or spread overflows float64")


def column_moments(blocks: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Mean and floored sigma of each column over the rows of every (rows, columns) block of counter volumes, by
    running sums."""
    total = total_sq = 0.0
    count = 0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for x in blocks:
            total = total + x.sum(axis=0)
            total_sq = total_sq + (x * x).sum(axis=0)
            count += x.shape[0]
        mean = total / count
        std = np.maximum(np.sqrt(np.maximum(total_sq / count - mean**2, 0.0)), SIGMA_FLOOR)
    _refuse_overflow("volumes.jsonl field 'volumes'", mean, std)
    return mean, std


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
    head's output back to km/h. A moment that overflows raises a ValueError.
    """
    if len(train_records) == 0:
        raise ValueError("cannot fit normalization on an empty training set")
    cont = graph.continuous_matrix
    counter_mean, counter_std = column_moments(counter_slice_matrix(graph, r) for r in train_records)
    # row by row, each in segment order
    speed_arr = np.empty(0) if train_labels is None else train_labels.speed_kph[~np.isnan(train_labels.speed_kph)]
    speed_field = "labels.jsonl field 'speed_kph'" if speed_arr.size else "edges.csv field 'flow_speed'"
    if not speed_arr.size:
        speed_arr = np.array([s.flow_speed for s in graph.segments], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        cont_mean, cont_std = cont.mean(axis=0), np.maximum(cont.std(axis=0), SIGMA_FLOOR)
        speed_mean, speed_std = float(speed_arr.mean()), float(max(speed_arr.std(), SIGMA_FLOOR))
    for name, mean, std in zip(CONTINUOUS_FIELDS, cont_mean, cont_std):
        _refuse_overflow(f"edges.csv field {name!r}", mean, std)
    _refuse_overflow(speed_field, speed_mean, speed_std)
    return NormStats(cont_mean, cont_std, counter_mean, counter_std, speed_mean, speed_std)


def assemble_features(
    graph: RoadGraph,
    seg_graph: SegmentGraph,
    priors: Mapping[str, PriorMatrix],
    norm_stats: NormStats,
    prior_mode: str = "full",
    cluster_index: int | None = None,
) -> FeatureBundle:
    """Build the static per-segment inputs (pure function).

    ``prior_mode="full"`` flattens each segment's whole K x 3 prior matrix
    row-major, so cluster i's distribution sits at offset 3*i, and one
    bundle serves every record; ``"active_row"`` keeps only the row of
    ``cluster_index``, and one bundle serves the records of that cluster.
    """
    if prior_mode not in ("full", "active_row"):
        raise ValueError(f"prior_mode must be 'full' or 'active_row', got {prior_mode!r}")
    if prior_mode == "active_row" and cluster_index is None:
        raise ValueError("prior_mode 'active_row' needs a cluster_index")

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
        prior_block=np.array(rows, dtype=np.float64),
    )
