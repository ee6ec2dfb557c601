"""Per-segment raw feature assembly and normalization.

The model runs on the road graph (``data.RoadGraph``), which takes every
road segment as a node, in its segment order. Per segment, the model reads
two kinds of input. Feature assembly builds the static ones, which read no
counter volume: the four categorical codes, the z-normalized continuous
attributes and the congestion prior block, read from the (segments, K, 3)
priors. They change only with the volume cluster. The counter slice is
built per record: the 8-vector of four bins at the tail node and four at
the head, zeros where no counter or no data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import CONTINUOUS_FIELDS, LabelTable, RoadGraph, VolumeRecord

__all__ = [
    "FeatureBundle",
    "NormStats",
    "column_moments",
    "fit_normalization",
    "assemble_features",
    "counter_slice_matrix",
]

SIGMA_FLOOR = 1e-6


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
    priors: np.ndarray,
    norm_stats: NormStats,
    prior_mode: str = "full",
    cluster_index: int | None = None,
) -> FeatureBundle:
    """Build the static per-segment inputs (pure function).

    ``priors`` is the (segments, K, 3) block in the graph's segment order.
    ``prior_mode="full"`` flattens each segment's whole K x 3 prior matrix
    row-major, so cluster i's distribution sits at offset 3*i, and one
    bundle serves every record; ``"active_row"`` keeps only the row of
    ``cluster_index``, and one bundle serves the records of that cluster.
    """
    if prior_mode not in ("full", "active_row"):
        raise ValueError(f"prior_mode must be 'full' or 'active_row', got {prior_mode!r}")
    if prior_mode == "active_row" and cluster_index is None:
        raise ValueError("prior_mode 'active_row' needs a cluster_index")
    if priors.ndim != 3 or priors.shape[::2] != (len(graph.segments), 3):
        raise ValueError(f"priors of shape {priors.shape}, expected ({len(graph.segments)}, K, 3)")

    cont = (graph.continuous_matrix - norm_stats.cont_mean) / norm_stats.cont_std
    block = priors.reshape(len(priors), -1) if prior_mode == "full" else priors[:, cluster_index]
    return FeatureBundle(
        categorical=graph.categorical_matrix,
        continuous=cont,
        prior_block=np.array(block, dtype=np.float64),  # a copy: the bundle is made read-only, the priors are not
    )
