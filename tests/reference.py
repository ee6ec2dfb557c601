"""The eager references the tests compare the served and traced paths against. No stage runs them: training and
serving replay traced plans (``autodiff.Plan``) of ``model.static_branch``, ``model.record_branch`` and
``model.loss_terms``, and these functions call the same model functions op by op. pytest collects no test here; the
tests import it as they import ``conftest``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from t4c.autodiff import Tensor
from t4c.checkpoint import Checkpoint
from t4c.clustering import ClusterModel
from t4c.data import RoadGraph, VolumeRecord
from t4c.model import (LabelArrays, ModelConfig, Params, PredictionBundle, PredictionProbs, loss_terms,
                       predict_probabilities, record_branch, static_branch, static_inputs)
from t4c.seggraph import counter_slice_matrix
from t4c.training import _prior_row


@dataclass(frozen=True)
class LossReport:
    loss_cc: float
    loss_speed: float
    loss_vol: float
    loss: float
    n_cc: int
    n_speed: int
    n_vol: int


def forward(
    params: Params,
    config: ModelConfig,
    graph: RoadGraph,
    static_in: Sequence,
    counter_slice: np.ndarray,
) -> PredictionBundle:
    """Run the full network on one record: ``static_branch`` on ``static_in`` (``static_inputs``), then
    ``record_branch`` on the record's (N, 8) normalized ``counter_slice``.

    ``params`` is a ParamStore when training, which records the computation
    for ``backward``, or a name-to-array mapping (a checkpoint's params,
    ``ParamStore.state_arrays()``) when predicting, which records none.
    """
    return record_branch(params, config, graph, counter_slice, static_branch(params, config, static_in))


def compute_loss(
    pred: PredictionBundle,
    labels: LabelArrays,
    cc_weights: np.ndarray,
    vol_weights: np.ndarray,
    lambdas: tuple[float, float, float],
) -> tuple[Tensor, LossReport]:
    """Combined multi-task loss; returns the scalar tensor and a report.

    Tasks with no labeled segments contribute exactly zero to the value
    and the gradient; their counts in the report flag the condition.
    """
    (total, *parts), counts = loss_terms(pred, labels, cc_weights, vol_weights, lambdas)
    return total, LossReport(*(float(t.data) for t in parts), float(total.data), *counts)


def predict_record(
    ckpt: Checkpoint,
    graph: RoadGraph,
    priors: np.ndarray,
    record: VolumeRecord,
    cluster_model: ClusterModel | None = None,
) -> PredictionProbs:
    """Single-model probabilities for one record: the reference that ``ensemble_predict`` serves faster."""
    norm_stats = ckpt.norm_stats
    row = _prior_row(ckpt.config.prior_mode, cluster_model, record)
    static_in = static_inputs(ckpt.config, graph, priors, norm_stats, row)
    counter_slice = norm_stats.normalize_counters(counter_slice_matrix(graph, record))
    pred = forward(ckpt.params, ckpt.config, graph, static_in, counter_slice)
    return predict_probabilities(pred, norm_stats)
