"""Scoring: congestion cross entropy, ETA error, and the ablation harness.

The core score is the masked mean cross entropy over labeled segments:
for every (record, segment) pair whose congestion label is green, yellow
or red, it adds -log of the probability the predictor put on the true
class (clipped to [1e-15, 1]); undefined and missing labels are skipped.
The extended score is the mean absolute ETA error in seconds. ETAs are
synthesized from predicted speeds by summing per-segment travel times
with a floor on the speed.

Both scorers score a ``PredictionTable``, the one in-memory form of a predictions file: (records, ids) blocks with NaN
for no prediction. Each also takes a mapping, which it turns into a table on entry: ``core_metric`` record -> segment
-> 3-vector, or record -> (segments, 3) array in the label table's segment order, with its labels a ``LabelTable`` or
a list of ``LabelBundle`` rows of one; ``eta_metric`` (record, ss) -> seconds.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .data import Dataset, LabelBundle, LabelTable, SuperSegment

__all__ = [
    "CoreScore",
    "EtaScore",
    "PredictionError",
    "PredictionTable",
    "core_metric",
    "etas_from_speeds",
    "eta_metric",
    "run_ablation",
    "ABLATION_VARIANTS",
    "PROB_CLIP",
    "SPEED_FLOOR_KPH",
]

PROB_CLIP = 1e-15
SPEED_FLOOR_KPH = 5.0

ABLATION_VARIANTS = ("full", "no_cluster", "no_static", "no_gnn")


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


class PredictionError(ValueError):
    """One record's predictions cannot be scored; ``record_id`` names the record."""

    def __init__(self, message: str, record_id: str):
        super().__init__(message)
        self.record_id = record_id


class PredictionTable(NamedTuple):
    """A predictions file in memory, laid out like ``LabelTable`` with NaN for no prediction: ``[k, j]`` of a block is
    record ``record_ids[k]``'s value for ``segment_ids[j]`` (or for ``supersegment_ids[j]``), in the order the ids are
    listed."""

    record_ids: Sequence[str]
    segment_ids: Sequence[str]
    supersegment_ids: Sequence[str]
    cc: np.ndarray  # (records, segments, 3) over (green, yellow, red)
    etas: np.ndarray  # (records, super-segments), seconds
    speed: np.ndarray | None = None  # (records, segments) km/h; None writes null
    vol: np.ndarray | None = None  # (records, segments, 3)


def _checked_cc(value, record_id: str, seg_id: str):
    """``value`` if it is three finite numbers: a numeric array, or a list or tuple of numbers (a bool or a string is
    no number). Anything else raises a PredictionError naming the record and the segment."""
    try:
        numbers = value.dtype.kind in "iuf" if isinstance(value, np.ndarray) else isinstance(value, (list, tuple)) and all(
            type(x) in (int, float) or isinstance(x, (np.integer, np.floating)) for x in value)
        if numbers and np.shape(value) == (3,) and np.isfinite(np.asarray(value, np.float64)).all():
            return value
    except (ValueError, TypeError, OverflowError):
        pass
    message = f"record {record_id!r}, segment {seg_id!r}: expected 3 finite probabilities, got {reprlib.repr(value)}"
    raise PredictionError(message, record_id)


def _table_of(cc: Mapping, etas: Mapping[tuple[str, str], float], segment_ids: Sequence[str]) -> PredictionTable:
    """The table of predictions held in mappings, NaN where they hold none.

    ``cc`` maps record_id to a segment_id -> 3-vector mapping, or to a (segments, 3) array of finite numbers in
    ``segment_ids`` order; ``etas`` maps (record_id, ss_id) to seconds. A mapping's vectors are read in one array pass
    when they are all lists of three floats or all float arrays of three, and finite; any other row goes vector by
    vector through ``_checked_cc``, which names the record and segment of the first it refuses.
    Ids are listed as first seen, ``segment_ids`` first.
    """
    seg_col = dict(zip(segment_ids, range(len(segment_ids))))
    for preds in cc.values():
        for seg_id in () if isinstance(preds, np.ndarray) else preds:
            seg_col.setdefault(seg_id, len(seg_col))
    ss_col = dict(zip(dict.fromkeys(ss_id for _, ss_id in etas), range(len(etas))))
    row = {rid: k for k, rid in enumerate(dict.fromkeys([*cc, *(rid for rid, _ in etas)]))}
    table = PredictionTable(list(row), list(seg_col), list(ss_col), np.full((len(row), len(seg_col), 3), np.nan),
                            np.full((len(row), len(ss_col)), np.nan))
    for record_id, preds in cc.items():
        if isinstance(preds, np.ndarray):  # the columns of segment_ids
            seg_ids, cols, vectors = segment_ids, slice(len(segment_ids)), preds.reshape(len(segment_ids), 3)
        else:  # one test of a row of lists of three floats, as JSON gives, or of float arrays of three
            seg_ids, vectors = list(preds), list(preds.values())
            cols = [seg_col[seg_id] for seg_id in seg_ids]
            if (all(type(v) is list and len(v) == 3 and type(v[0]) is type(v[1]) is type(v[2]) is float for v in vectors)
                    or all(type(v) is np.ndarray and v.shape == (3,) and v.dtype.char in "efd" for v in vectors)):
                vectors = np.array(vectors).reshape(len(seg_ids), 3)
        if not (isinstance(vectors, np.ndarray) and np.isfinite(vectors).all()):  # any other row is read by vector
            vectors = [_checked_cc(value, record_id, seg_id) for seg_id, value in zip(seg_ids, vectors)]
        table.cc[row[record_id], cols] = vectors
    at = [row[rid] for rid, _ in etas], [ss_col[ss_id] for _, ss_id in etas]
    table.etas[at] = np.fromiter(etas.values(), np.float64, len(etas))
    return table


def _nan_padded(block: np.ndarray) -> np.ndarray:
    """``block`` with a row and a column of NaN after its last, which index -1 reads."""
    padded = np.full((block.shape[0] + 1, block.shape[1] + 1, *block.shape[2:]), np.nan)
    padded[:-1, :-1] = block
    return padded


def core_metric(
    predictions: PredictionTable | Mapping[str, Mapping[str, np.ndarray] | np.ndarray],
    labels: LabelTable | Iterable[LabelBundle],
) -> CoreScore:
    """Score per-segment class probabilities against congestion labels.

    ``predictions`` is a ``PredictionTable``, its records and segments in any order, or the mapping that
    ``_table_of`` reads with the label table's segment ids. The first record in label table order with no
    row, or with NaN for a scored segment's labelled class, raises ValueError or ``PredictionError``. The table is scored whole, and
    summed as a loop would: a cumsum adds each row left to right, an unscored segment adding 0.0, then the records in
    order.
    """
    if not isinstance(labels, LabelTable):  # bundles, each a row of one table
        bundles = list(labels)
        if not bundles:
            return CoreScore(score=None, per_record={}, n_scored=0)
        if any(bundle.table is not bundles[0].table for bundle in bundles):
            raise ValueError("core_metric: the label bundles view more than one LabelTable")
        labels = bundles[0].table.select(bundle.record_id for bundle in bundles)
    if not isinstance(predictions, PredictionTable):
        predictions = _table_of(predictions, {}, labels.segment_ids)
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
        predicted = _table_of({}, predicted, ())
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


@dataclass(frozen=True)
class AblationResult:
    scores: dict[str, float]  # variant -> validation core score
    best_epochs: dict[str, int]
    data_order_hashes: dict[str, str]

    def as_csv(self) -> str:
        """One row per variant, in ``ABLATION_VARIANTS`` order, so that a
        result read back from its key-sorted JSON renders the same bytes."""
        lines = ["variant,val_core,best_epoch"]
        for variant in sorted(self.scores, key=ABLATION_VARIANTS.index):
            lines.append(f"{variant},{self.scores[variant]:.6f},{self.best_epochs[variant]}")
        return "\n".join(lines) + "\n"


def run_ablation(
    dataset: Dataset,
    variants: Sequence[str],
    cluster_model,
    priors,
    train_cfg,
    model_cfg,
    seed: int,
) -> AblationResult:
    """Train one model per variant with identical seed/data and compare.

    ``no_cluster`` zeroes the prior block, ``no_static`` zeroes the static
    attribute inputs, ``no_gnn`` drops the message-passing layers so the
    heads read the pre-aggregation features. Everything else (seed, data
    order, epochs) is held fixed.
    """
    from dataclasses import replace

    from .training import prepare_training, train_one  # local import; training also uses this module

    for variant in variants:
        if variant not in ABLATION_VARIANTS:
            raise ValueError(f"unknown ablation variant {variant!r}; options: {ABLATION_VARIANTS}")

    # the variants differ only in gates and depth, so they share one training set
    training_set = prepare_training(
        train_cfg, dataset, cluster_model, priors, model_cfg.prior_mode, model_cfg.cc_classes
    )
    configs = {"full": model_cfg, "no_cluster": replace(model_cfg, use_prior_block=False),
               "no_static": replace(model_cfg, use_static=False), "no_gnn": replace(model_cfg, gnn_layers=0)}
    runlogs = {variant: train_one(training_set, configs[variant], seed)[1] for variant in variants}
    return AblationResult(scores={v: log.epochs[log.best_epoch].val_core for v, log in runlogs.items()},
                          best_epochs={v: log.best_epoch for v, log in runlogs.items()},
                          data_order_hashes={v: log.data_order_hash for v, log in runlogs.items()})
