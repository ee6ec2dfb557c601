"""Scoring: congestion cross entropy and ETA error.

The core score is the masked mean cross entropy over labeled segments:
for every (record, segment) pair whose congestion label is green, yellow
or red, it adds -log of the probability the predictor put on the true
class (clipped to [1e-15, 1]); undefined and missing labels are skipped.
The extended score is the mean absolute ETA error in seconds. ETAs are
synthesized from predicted speeds by summing per-segment travel times
with a floor on the speed.

Both scorers score a ``data.PredictionTable``, the one in-memory form of a predictions file: (records, ids) blocks with
NaN for no prediction. Each also takes a mapping, which ``PredictionTable.from_mappings`` turns into a table on entry:
``core_metric`` record -> segment -> 3-vector, with its labels a ``LabelTable`` or a list of ``LabelBundle`` rows of
one; ``eta_metric`` (record, ss) -> seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import LabelBundle, LabelTable, PredictionError, PredictionTable, SuperSegment

__all__ = [
    "CoreScore",
    "EtaScore",
    "core_metric",
    "etas_from_speeds",
    "eta_metric",
    "PROB_CLIP",
    "SPEED_FLOOR_KPH",
]

PROB_CLIP = 1e-15
SPEED_FLOOR_KPH = 5.0


@dataclass(frozen=True)
class CoreScore:
    """Masked mean congestion cross entropy; ``score`` is None when no
    segment was scored."""

    score: float | None
    per_record: dict[str, float]
    n_scored: int


@dataclass(frozen=True)
class EtaScore:
    """Mean absolute ETA error in seconds over labeled pairs."""

    score: float | None
    per_record: dict[str, float]
    n_scored: int


def _nan_padded(block: np.ndarray) -> np.ndarray:
    """``block`` with a row and a column of NaN after its last, which index -1 reads."""
    padded = np.full((block.shape[0] + 1, block.shape[1] + 1, *block.shape[2:]), np.nan)
    padded[:-1, :-1] = block
    return padded


def core_metric(
    predictions: PredictionTable | Mapping[str, Mapping[str, np.ndarray]],
    labels: LabelTable | Iterable[LabelBundle],
) -> CoreScore:
    """Score per-segment class probabilities against congestion labels.

    ``predictions`` is a ``PredictionTable``, its records and segments in any order, or the mapping that
    ``PredictionTable.from_mappings`` reads with the label table's segment ids. The first record in label table order
    with no row, or with NaN for a scored segment's labelled class, raises ValueError or ``PredictionError``. The table
    is scored whole, and summed as a loop would: a cumsum adds each row left to right, an unscored segment adding 0.0,
    then the records in order.
    """
    if not isinstance(labels, LabelTable):  # bundles, each a row of one table
        bundles = list(labels)
        if not bundles:
            return CoreScore(score=None, per_record={}, n_scored=0)
        if any(bundle.table is not bundles[0].table for bundle in bundles):
            raise ValueError("core_metric: the label bundles view more than one LabelTable")
        labels = bundles[0].table.select(bundle.record_id for bundle in bundles)
    if not isinstance(predictions, PredictionTable):
        predictions = PredictionTable.from_mappings(predictions, {}, labels.segment_ids)
    row_of = dict(zip(predictions.record_ids, range(len(predictions.record_ids))))
    rows = np.fromiter(map(row_of.get, labels.record_ids, repeat(-1)), np.intp, len(labels.record_ids))
    if tuple(predictions.segment_ids) == labels.segment_ids and (rows >= 0).all():  # as predict writes: one gather
        probs = predictions.cc[rows]
    else:  # a record or a segment the table lacks, at -1, reads the NaN pad
        column = dict(zip(predictions.segment_ids, range(len(predictions.segment_ids))))
        cols = np.fromiter(map(column.get, labels.segment_ids, repeat(-1)), np.intp, len(labels.segment_ids))
        probs = _nan_padded(predictions.cc)[rows[:, None], cols]
    scored = labels.cc > 0
    p = np.where(labels.cc <= 1, probs[..., 0], np.where(labels.cc == 2, probs[..., 1], probs[..., 2]))  # true class
    holes = scored & np.isnan(p)
    faulty = (rows < 0) | holes.any(axis=1)
    if faulty.any():
        row = int(np.argmax(faulty))
        record_id = labels.record_ids[row]
        if rows[row] < 0:
            raise ValueError(f"no predictions for record {record_id!r}")
        seg_id = labels.segment_ids[int(np.argmax(holes[row]))]
        raise PredictionError(f"record {record_id!r}: no prediction for segment {seg_id!r}", record_id)
    counts = np.count_nonzero(scored, axis=1).tolist()
    nll = np.where(scored, -np.log(np.clip(p, PROB_CLIP, 1.0)), 0.0)
    sums = np.cumsum(nll, axis=1)[:, -1].tolist() if nll.size else []  # cumsum adds left to right, unlike sum
    total, n, per_record = 0.0, sum(counts), {}
    for record_id, rec_sum, count in zip(labels.record_ids, sums, counts):
        if count:
            rec_total = 0.0 + rec_sum  # turns an all -0.0 sum into 0.0, as a loop from 0.0 would
            per_record[record_id] = rec_total / count
            total += rec_total
    return CoreScore(score=(total / n) if n > 0 else None, per_record=per_record, n_scored=n)


def etas_from_speeds(
    supersegments: Sequence[SuperSegment],
    segment_ids: Sequence[str],
    lengths_m: Sequence[float],
    speeds_kph: np.ndarray,
) -> np.ndarray:
    """(records, super-segments) ETAs in seconds, in one array pass over every record.

    ``speeds_kph`` is (records, segments) and ``lengths_m`` (segments,), both
    in ``segment_ids`` order. Each ETA sums
    length / (max(speed, SPEED_FLOOR_KPH) / 3.6) along the path as a loop
    from 0.0 would: each path's row starts with a 0.0 and is padded with 0.0
    to one width, and a cumsum adds left to right.
    An empty path, or a segment without a speed, raises ValueError.
    """
    column = {seg_id: j for j, seg_id in enumerate(segment_ids)}
    shape = (len(supersegments), 1 + max((len(ss.path) for ss in supersegments), default=0))
    at, on = np.zeros(shape, np.intp), np.zeros(shape, bool)
    for i, ss in enumerate(supersegments):
        if not ss.path:
            raise ValueError(f"supersegment {ss.ss_id!r} has an empty path")
        missing = next((seg_id for seg_id in ss.path if seg_id not in column), None)
        if missing is not None:
            raise ValueError(f"no predicted speed for segment {missing!r}")
        at[i, 1 : 1 + len(ss.path)], on[i, 1 : 1 + len(ss.path)] = [column[seg_id] for seg_id in ss.path], True
    speeds = np.maximum(np.asarray(speeds_kph, np.float64)[:, at], SPEED_FLOOR_KPH)  # max(NaN, floor) is NaN
    times = np.where(on, np.asarray(lengths_m, np.float64)[at] / (speeds / 3.6), 0.0)
    return np.cumsum(times, axis=-1)[..., -1]


def eta_metric(
    predicted: PredictionTable | Mapping[tuple[str, str], float],
    labeled: Mapping[tuple[str, str], float],
) -> EtaScore:
    """Mean absolute error in seconds over the labeled (record, ss) pairs.

    ``predicted`` is a ``PredictionTable``, or maps (record, ss) to seconds; the first labeled pair without a number,
    in ``labeled`` order, raises ``PredictionError``. The errors are summed in that order, as a loop would: a cumsum
    adds the total left to right, ``np.bincount`` each record's.
    """
    if not isinstance(predicted, PredictionTable):
        predicted = PredictionTable.from_mappings({}, predicted, ())
    keys = list(labeled)
    rids, ss_ids = zip(*keys) if keys else ((), ())
    at = tuple(np.fromiter(map(dict(zip(ids, range(len(ids)))).get, pairs, repeat(-1)), np.intp, len(keys))
               for ids, pairs in ((predicted.record_ids, rids), (predicted.supersegment_ids, ss_ids)))
    values = _nan_padded(predicted.etas)[at]  # -1, a record or a super-segment the table lacks, reads the pad
    if np.isnan(values).any():
        key = keys[int(np.argmax(np.isnan(values)))]
        raise PredictionError(f"no predicted eta for (record, supersegment) {key!r}", key[0])
    errors = np.abs(values - np.fromiter(labeled.values(), np.float64, len(keys)))
    record_of = {rid: k for k, rid in enumerate(dict.fromkeys(rids))}
    codes = np.fromiter(map(record_of.__getitem__, rids), np.intp, len(keys))
    per_record = dict(zip(record_of, (np.bincount(codes, weights=errors) / np.bincount(codes)).tolist()))
    score = float(np.cumsum(errors)[-1]) / len(keys) if keys else None
    return EtaScore(score=score, per_record=per_record, n_scored=len(keys))


def eta_labels(supersegments: Sequence[SuperSegment], record_ids=None) -> dict[tuple[str, str], float]:
    """Flatten supersegment ETA labels to a (record_id, ss_id) -> seconds map."""
    return {(record_id, ss.ss_id): eta for ss in supersegments for record_id, eta in ss.etas.items()
            if record_ids is None or record_id in record_ids}
