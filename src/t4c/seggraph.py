"""Per-segment counter slices and normalization statistics.

The model runs on the road graph (``data.RoadGraph``), which takes every
road segment as a node, in its segment order. Per segment, the model reads
two kinds of input. The static ones read no counter volume and change only
with the volume cluster; ``model.static_inputs`` builds them from the graph,
the priors and the continuous attributes' ``NormStats``. The counter slice
is built per record: the 8-vector of four bins at the tail node and four at
the head, zeros where no counter or no data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import CONTINUOUS_FIELDS, LabelTable, RoadGraph, VolumeRecord

__all__ = [
    "NormStats",
    "column_moments",
    "fit_normalization",
    "counter_slice_matrix",
]

SIGMA_FLOOR = 1e-6


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
