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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import Dataset, LabelBundle, LabelTable, SuperSegment

__all__ = [
    "CoreScore",
    "EtaScore",
    "PredictionError",
    "core_metric",
    "eta_from_speeds",
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


def _scored_probs(record_preds, record_id: str, segment_ids: Sequence[str], scored: np.ndarray) -> np.ndarray:
    """(len(scored), 3) probabilities of one record's scored table columns.

    Read from a mapping, each must be three finite numbers: one array test
    per record, and a walk over the segments only to name the first fault.
    """
    if isinstance(record_preds, np.ndarray):  # (segments, 3), in table order
        return record_preds.reshape(len(segment_ids), 3)[scored]
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
    predictions: Mapping[str, Mapping[str, np.ndarray] | np.ndarray],
    labels: LabelTable | Iterable[LabelBundle],
) -> CoreScore:
    """Score per-segment class probabilities against congestion labels.

    ``predictions`` maps record_id to a segment_id -> 3-vector mapping over
    (green, yellow, red), or to a (segments, 3) array in the table's segment
    order. Every labeled segment must be covered, by three finite numbers in a
    mapping; a record that is not raises ``PredictionError``. Sums run left to
    right, over a record's segments in table order, then over the records.
    """
    if not isinstance(labels, LabelTable):  # bundles, each a row of one table
        bundles = list(labels)
        if not bundles:
            return CoreScore(score=None, per_record={}, n_scored=0)
        if any(bundle.table is not bundles[0].table for bundle in bundles):
            raise ValueError("core_metric: the label bundles view more than one LabelTable")
        labels = bundles[0].table.select(bundle.record_id for bundle in bundles)
    total = 0.0
    n = 0
    per_record: dict[str, float] = {}
    for row, record_id in enumerate(labels.record_ids):
        if record_id not in predictions:
            raise ValueError(f"no predictions for record {record_id!r}")
        cc = labels.cc[row]
        scored = np.flatnonzero(cc > 0)
        if scored.size == 0:
            continue
        probs = _scored_probs(predictions[record_id], record_id, labels.segment_ids, scored)
        p = np.clip(probs[np.arange(scored.size), cc[scored] - 1], PROB_CLIP, 1.0)
        # cumsum adds left to right, unlike sum; 0.0 + turns an all -0.0 sum into 0.0, as a loop from 0.0 would
        rec_total = 0.0 + float(np.cumsum(-np.log(p))[-1])
        per_record[record_id] = rec_total / scored.size
        total += rec_total
        n += scored.size
    return CoreScore(score=(total / n) if n > 0 else None, per_record=per_record, n_scored=n)


def eta_from_speeds(
    supersegment: SuperSegment,
    speeds_kph: Mapping[str, float],
    lengths_m: Mapping[str, float],
    speed_floor_kph: float = SPEED_FLOOR_KPH,
) -> float:
    """Sum of per-segment travel times: length / (max(speed, floor) / 3.6)."""
    if not supersegment.path:
        raise ValueError(f"supersegment {supersegment.ss_id!r} has an empty path")
    total = 0.0
    for seg_id in supersegment.path:
        if seg_id not in speeds_kph:
            raise ValueError(f"no predicted speed for segment {seg_id!r}")
        speed = max(float(speeds_kph[seg_id]), speed_floor_kph)
        total += float(lengths_m[seg_id]) / (speed / 3.6)
    return total


def eta_metric(
    predicted: Mapping[tuple[str, str], float],
    labeled: Mapping[tuple[str, str], float],
) -> EtaScore:
    """Mean absolute error in seconds over the labeled (record, ss) pairs."""
    total = 0.0
    n = 0
    per_record_sum: dict[str, float] = {}
    per_record_n: dict[str, int] = {}
    for key, truth in labeled.items():
        if key not in predicted:
            raise PredictionError(f"no predicted eta for (record, supersegment) {key!r}", key[0])
        err = abs(float(predicted[key]) - float(truth))
        total += err
        n += 1
        record_id = key[0]
        per_record_sum[record_id] = per_record_sum.get(record_id, 0.0) + err
        per_record_n[record_id] = per_record_n.get(record_id, 0) + 1
    per_record = {rid: per_record_sum[rid] / per_record_n[rid] for rid in per_record_sum}
    return EtaScore(score=(total / n) if n > 0 else None, per_record=per_record, n_scored=n)


def eta_labels(supersegments: Sequence[SuperSegment], record_ids=None) -> dict[tuple[str, str], float]:
    """Flatten supersegment ETA labels to a (record_id, ss_id) -> seconds map."""
    out: dict[tuple[str, str], float] = {}
    for ss in supersegments:
        for record_id, eta in ss.etas.items():
            if record_ids is None or record_id in record_ids:
                out[(record_id, ss.ss_id)] = eta
    return out


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
    scores: dict[str, float] = {}
    best_epochs: dict[str, int] = {}
    hashes: dict[str, str] = {}
    for variant in variants:
        if variant == "full":
            cfg = model_cfg
        elif variant == "no_cluster":
            cfg = replace(model_cfg, use_prior_block=False)
        elif variant == "no_static":
            cfg = replace(model_cfg, use_static=False)
        else:  # no_gnn
            cfg = replace(model_cfg, gnn_layers=0)
        _ckpt, runlog = train_one(training_set, cfg, seed)
        scores[variant] = runlog.epochs[runlog.best_epoch].val_core
        best_epochs[variant] = runlog.best_epoch
        hashes[variant] = runlog.data_order_hash
    return AblationResult(scores=scores, best_epochs=best_epochs, data_order_hashes=hashes)
