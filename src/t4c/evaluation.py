"""Scoring: congestion cross entropy, ETA error, and the ablation harness.

The core score is the masked mean cross entropy over labeled segments:
for every (record, segment) pair whose congestion label is green, yellow
or red, it adds -log of the probability the predictor put on the true
class (clipped to [1e-15, 1]); undefined and missing labels are skipped.
The extended score is the mean absolute ETA error in seconds. ETAs are
synthesized from predicted speeds by summing per-segment travel times
with a floor on the speed.
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
    "PredictionBlock",
    "PredictionError",
    "core_metric",
    "eta_from_speeds",
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


def _numbers(value) -> bool:
    """A numeric array, or a list or tuple of numbers; a bool or a string is no number."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    return isinstance(value, (list, tuple)) and all(
        type(x) in (int, float) or isinstance(x, (np.integer, np.floating)) for x in value)


class PredictionBlock(NamedTuple):
    """Predictions as one array: ``values[k, j]`` is record ``record_ids[k]``'s cc or ETA for ``ids[j]``."""

    record_ids: Sequence[str]
    ids: Sequence[str]
    values: np.ndarray


def _scored_probs(record_preds: Mapping, record_id: str, segment_ids: Sequence[str], scored: np.ndarray) -> np.ndarray:
    """(len(scored), 3) probabilities of one record's scored table columns, read from a mapping.

    Each must be three finite numbers: one array test per record, and a walk
    over the segments only to name the first fault.
    """
    try:
        values = [record_preds[segment_ids[j]] for j in scored]
        probs = np.array(values, dtype=np.float64)
    except (KeyError, ValueError, TypeError, OverflowError):
        probs = None
    if probs is not None and probs.shape == (len(scored), 3) and np.isfinite(probs).all() and all(map(_numbers, values)):
        return probs
    for j in scored:  # name the first fault in segment order
        seg_id = segment_ids[j]
        if seg_id not in record_preds:
            raise PredictionError(f"record {record_id!r}: no prediction for segment {seg_id!r}", record_id)
        value = record_preds[seg_id]
        try:
            vector = np.asarray(value, dtype=np.float64)
            fine = _numbers(value) and vector.shape == (3,) and np.isfinite(vector).all()
        except (ValueError, TypeError, OverflowError):
            fine = False
        if not fine:
            message = f"record {record_id!r}, segment {seg_id!r}: expected 3 finite probabilities, got {reprlib.repr(value)}"
            raise PredictionError(message, record_id)
    raise PredictionError(f"record {record_id!r}: the scored probabilities do not form a (segments, 3) array", record_id)


def core_metric(
    predictions: Mapping[str, Mapping[str, np.ndarray] | np.ndarray] | PredictionBlock,
    labels: LabelTable | Iterable[LabelBundle],
) -> CoreScore:
    """Score per-segment class probabilities against congestion labels.

    ``predictions`` maps record_id to a segment_id -> 3-vector mapping over
    (green, yellow, red), or to a (segments, 3) array in the table's segment
    order; or it is a ``PredictionBlock``, its segments in any order. Every
    labeled segment must be covered, by three finite numbers in a mapping; the
    first record in table order that is not raises ``PredictionError``. The
    table is scored whole, and summed as a loop would: a cumsum adds each row
    left to right, an unscored segment adding 0.0, then the records in order.
    """
    if not isinstance(labels, LabelTable):  # bundles, each a row of one table
        bundles = list(labels)
        if not bundles:
            return CoreScore(score=None, per_record={}, n_scored=0)
        if any(bundle.table is not bundles[0].table for bundle in bundles):
            raise ValueError("core_metric: the label bundles view more than one LabelTable")
        labels = bundles[0].table.select(bundle.record_id for bundle in bundles)
    if isinstance(predictions, PredictionBlock):  # arrays in table order; mappings if a segment is missing, to name it
        ids, rows = tuple(predictions.ids), predictions.values
        if ids != labels.segment_ids:
            column = dict(zip(ids, range(len(ids))))
            cols = [column.get(seg_id) for seg_id in labels.segment_ids]
            rows = [dict(zip(ids, row)) for row in rows.tolist()] if None in cols else rows[:, cols]
        predictions = dict(zip(predictions.record_ids, rows))
    scored = labels.cc > 0
    counts = np.count_nonzero(scored, axis=1).tolist()
    probs = np.ones((*scored.shape, 3))
    for row, record_id in enumerate(labels.record_ids):
        if record_id not in predictions:
            raise ValueError(f"no predictions for record {record_id!r}")
        record_preds = predictions[record_id]
        if counts[row] and isinstance(record_preds, np.ndarray):
            probs[row] = record_preds.reshape(probs.shape[1:])
        elif counts[row]:
            probs[row, scored[row]] = _scored_probs(record_preds, record_id, labels.segment_ids, np.flatnonzero(scored[row]))
    p = np.where(labels.cc <= 1, probs[..., 0], np.where(labels.cc == 2, probs[..., 1], probs[..., 2]))  # true class
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


def eta_from_speeds(
    supersegment: SuperSegment,
    speeds_kph: Mapping[str, float],
    lengths_m: Mapping[str, float],
) -> float:
    """One super-segment's ETA from per-segment mappings: the one-row case of ``etas_from_speeds``."""
    path = list(dict.fromkeys(seg_id for seg_id in supersegment.path if seg_id in speeds_kph))
    lengths, speeds = [float(lengths_m[seg_id]) for seg_id in path], [[float(speeds_kph[seg_id]) for seg_id in path]]
    return float(etas_from_speeds([supersegment], path, lengths, speeds)[0, 0])


def eta_metric(
    predicted: Mapping[tuple[str, str], float] | PredictionBlock,
    labeled: Mapping[tuple[str, str], float],
) -> EtaScore:
    """Mean absolute error in seconds over the labeled (record, ss) pairs.

    ``predicted`` maps (record, ss) to seconds, or is a ``PredictionBlock``; the first labeled pair without one, in
    ``labeled`` order, raises ``PredictionError``. The errors are summed in that order, as a loop would: a cumsum
    adds the total left to right, ``np.bincount`` each record's.
    """
    keys = list(labeled)
    rids, ss_ids = zip(*keys) if keys else ((), ())
    if isinstance(predicted, PredictionBlock):  # each pair's row and column, -1 where the block has none
        at = tuple(np.fromiter(map(dict(zip(ids, range(len(ids)))).get, pairs, repeat(-1)), np.intp, len(keys))
                   for ids, pairs in ((predicted.record_ids, rids), (predicted.ids, ss_ids)))
        found = (at[0] >= 0) & (at[1] >= 0)
    else:
        found = np.fromiter(map(predicted.__contains__, keys), bool, len(keys))
    if not found.all():
        key = keys[int(np.argmin(found))]
        raise PredictionError(f"no predicted eta for (record, supersegment) {key!r}", key[0])
    values = predicted.values[at] if isinstance(predicted, PredictionBlock) else np.fromiter(
        map(predicted.__getitem__, keys), np.float64, len(keys))
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
