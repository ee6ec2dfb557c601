"""Training loop, validation-based checkpoint selection, and ensembling.

Each optimizer step accumulates gradients over a small batch of records
(every record is one full-graph forward), averages them, and applies one
Adam update. After every epoch the validation congestion score is
computed and the best epoch's parameters are kept. One loop, ``fit_loop``,
does this for the main model and for the node-GNN baseline: it traces one
record's forward and loss into an autodiff plan once, and replays the plan
for every record with that record's inputs bound; validation replays the same
plan on each validation record and scores its congestion logits, so the best
epoch is picked by the network that training fits. Ensemble members
differ only by their seed, so a run builds its split, counter slices, targets
and class weights once (``prepare_training``) and trains every member from
them; each member builds its ``static_inputs`` once per cluster, from the
graph and the set's read-only copy of the priors.
Ensemble prediction (``prepare_ensemble`` once per stage, then
``ensemble_predict`` per record) stacks the members once: every parameter
(weights (members, F, H), biases (members, 1, H)), every norm stat, and
each cluster's static branches as one (members, segments, width) array.
It then traces ``record_branch`` on the stacks once into a forward-only
``ad.Plan`` (each batched product makes one call per member with that
member's shapes). Per record it makes ``predict_record``'s calls once on
the stack: ``normalize_counters``, a replay of that plan and
``predict_probabilities``, then the member mean, summed in member order.
Every value has the bits of the members' separate ``predict_record``
outputs averaged in that order. The ablation harness
(``run_ablation``) trains one model per variant from one training set.
"""

from __future__ import annotations

import hashlib
import random
import re
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .checkpoint import Checkpoint
from .clustering import ClusterModel, assign_cluster
from .data import (Dataset, LabelTable, PredictionTable, RoadGraph, VolumeRecord, daytime_filter, parse_json,
                   read_json, split_train_validation, write_json)
from .evaluation import core_metric
from .model import (
    LabelArrays,
    ModelConfig,
    PredictionBundle,
    PredictionProbs,
    config_hash,
    forward,
    init_params,
    inverse_frequency_weights,
    loss_terms,
    make_label_arrays,
    predict_probabilities,
    record_branch,
    static_branch,
    static_inputs,
)
from .seggraph import NormStats, counter_slice_matrix, fit_normalization

__all__ = [
    "TrainConfig",
    "EpochLog",
    "RunLog",
    "TrainingDivergedError",
    "FitResult",
    "fit_loop",
    "split_records",
    "TrainingSet",
    "prepare_training",
    "train_one",
    "train_ensemble",
    "Ensemble",
    "prepare_ensemble",
    "ensemble_predict",
    "predict_record",
    "save_runlog",
    "load_runlog",
    "run_ablation",
    "ABLATION_VARIANTS",
]

ABLATION_VARIANTS = ("full", "no_cluster", "no_static", "no_gnn")


class TrainingDivergedError(RuntimeError):
    """Raised when a loss turns non-finite; reports the last finite state."""


@dataclass(frozen=True)
class TrainConfig:
    """Training regimen knobs (defaults: 20 epochs, batch 2, 9 members)."""

    epochs: int = 20
    batch_size: int = 2
    learning_rate: float = 1e-3
    ensemble_size: int = 9
    base_seed: int = 0
    member_seeds: tuple[int, ...] | None = None
    daytime: tuple[int, int] = (24, 88)
    val_fraction: float = 0.2
    split_seed: int = 0

    def __post_init__(self):
        # JSON configs carry lists; tuples keep the config hashable
        if self.member_seeds is not None:
            object.__setattr__(self, "member_seeds", tuple(self.member_seeds))
        object.__setattr__(self, "daytime", tuple(self.daytime))
        if len(self.daytime) != 2:
            raise ValueError(f"daytime must be a (start, end) slot pair, got {self.daytime}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.learning_rate < np.inf:  # NaN compares false
            raise ValueError(f"learning_rate must be a finite number > 0, got {self.learning_rate}")
        if self.ensemble_size < 1:
            raise ValueError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        for name in ("base_seed", "split_seed"):  # random.Random(-s) draws as random.Random(s)
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if any(seed < 0 for seed in self.member_seeds or ()):
            raise ValueError(f"each member seed must be >= 0, got {self.member_seeds}")
        if self.member_seeds is not None and len(self.member_seeds) != self.ensemble_size:
            raise ValueError(f"{len(self.member_seeds)} member seeds for ensemble of {self.ensemble_size}")
        for k, seed in enumerate(self.member_seeds or ()):
            if seed in self.member_seeds[:k]:
                raise ValueError(f"member seed {seed} is repeated: each member needs a seed of its own")

    def seeds(self) -> tuple[int, ...]:
        if self.member_seeds is not None:
            return self.member_seeds
        return tuple(self.base_seed + k for k in range(self.ensemble_size))


@dataclass(frozen=True)
class EpochLog:
    train_loss: float
    train_loss_cc: float
    train_loss_speed: float
    train_loss_vol: float
    val_core: float


@dataclass(frozen=True)
class RunLog:
    """Per-epoch history plus the chosen checkpoint epoch.

    ``wall_time_s`` is informational only and excluded from the canonical
    serialization so that identical runs produce identical bytes.
    """

    epochs: tuple[EpochLog, ...]
    best_epoch: int
    seed: int
    data_order_hash: str
    wall_time_s: float | None = field(default=None, compare=False)


def save_runlog(path, runlog: RunLog) -> Path:
    path = Path(path)
    obj = asdict(runlog)
    del obj["wall_time_s"]  # informational only
    write_json(path, obj)
    return path


def load_runlog(path) -> RunLog:
    """Inverse of :func:`save_runlog`; a damaged file, or one ``read_json`` refuses as a ``RunLog``, raises
    ValueError naming it."""
    path = Path(path)
    try:
        obj = read_json(RunLog, parse_json(path.read_text(encoding="utf-8")))
        epochs = tuple(EpochLog(**e) for e in obj["epochs"])
        best, seed, order_hash = obj["best_epoch"], obj["seed"], obj["data_order_hash"]
        if not 0 <= best < len(epochs):
            raise ValueError(f"best_epoch {best!r} is not the index of one of {len(epochs)} epochs")
        if re.fullmatch(r"[0-9a-f]{64}", order_hash) is None:
            raise ValueError(f"data_order_hash {order_hash!r} is not a 64-digit hex sha256")
        return RunLog(epochs=epochs, best_epoch=best, seed=seed, data_order_hash=order_hash)
    except ValueError as exc:  # not UTF-8 or JSON, or refused
        raise ValueError(f"{path}: damaged run log ({exc})") from None


def _chunks(items: list, size: int):
    for i in range(0, len(items), size):
        yield items[i : i + size]


def _check_clusters(cluster_model: ClusterModel | None, config: ModelConfig) -> None:
    if cluster_model is not None and cluster_model.num_clusters != config.num_clusters:
        raise ValueError(f"the cluster model has K={cluster_model.num_clusters} but the model config "
                         f"num_clusters={config.num_clusters}")


def _prior_row(prior_mode: str, cluster_model: ClusterModel | None, record: VolumeRecord) -> int | None:
    """The prior row a record reads: its cluster in ``active_row`` mode, None (every row) in ``full`` mode."""
    if prior_mode == "full":
        return None
    if cluster_model is None:
        raise ValueError("prior_mode 'active_row' needs a cluster model")
    return assign_cluster(cluster_model, record)


def split_records(dataset: Dataset, train_cfg: TrainConfig) -> tuple[tuple[VolumeRecord, ...], ...]:
    """The daytime records, then their train and validation records (split by day)."""
    records = daytime_filter(dataset.records, *train_cfg.daytime)
    if not records:
        raise ValueError("no records left after the daytime filter")
    train_records, val_records = split_train_validation(
        records, 1.0 - train_cfg.val_fraction, train_cfg.split_seed
    )
    return records, train_records, val_records


@dataclass(frozen=True, eq=False)
class FitResult:
    """The best epoch's parameters and the per-epoch history of a fit."""

    params: dict[str, np.ndarray]
    best_epoch: int
    val_scores: tuple[float, ...]
    mean_losses: tuple[np.ndarray, ...]  # per epoch: each loss part averaged over the records
    data_order_hash: str


def fit_loop(
    store: ad.ParamStore,
    train_cfg: TrainConfig,
    seed: int,
    train_records: Sequence[VolumeRecord],
    val_records: Sequence[VolumeRecord],
    labels: LabelTable,
    record_inputs: Callable[[VolumeRecord], tuple[np.ndarray, ...]],
    record_loss: Callable[..., Sequence[ad.Tensor]],
) -> FitResult:
    """Fit ``store`` by Adam on seeded shuffles of batched records.

    ``record_loss`` maps a record's inputs (``record_inputs(record)``, as
    Tensors) to its scalar loss, any further loss parts to log, and last
    the record's (segments, 3) congestion logits, in the order of
    ``labels.segment_ids``; the loss is logged first. It is traced once, on
    the first training record, into an ``ad.Plan`` that every step replays
    on its records' inputs, ignoring the logits. Gradients are averaged
    over each batch. After every epoch the plan is replayed on each
    validation record, and the core score of the softmaxed logits picks
    the best epoch (earliest wins ties). A non-finite loss aborts at once
    with the seed and the last finite state in the error message.
    """
    val_ids = [r.record_id for r in val_records]
    val_labels, no_etas = labels.select(val_ids), np.empty((len(val_ids), 0))
    shuffler = random.Random(seed)
    order_hash = hashlib.sha256()
    val_scores: list[float] = []
    mean_losses: list[np.ndarray] = []
    best_epoch = -1
    best_score = float("inf")
    best_params: dict[str, np.ndarray] | None = None
    last_finite: tuple[int, float] | None = None
    plan = ad.Plan.trace(record_loss, record_inputs(train_records[0]))

    for epoch in range(train_cfg.epochs):
        order = list(train_records)
        shuffler.shuffle(order)
        order_hash.update(",".join(r.record_id for r in order).encode("utf-8"))

        sums = 0.0
        for batch in _chunks(order, train_cfg.batch_size):
            store.zero_grad()
            for record in batch:
                *parts, _logits = plan.forward(*record_inputs(record))
                value = float(parts[0])
                if not np.isfinite(value):
                    state = f"last finite state: {last_finite}" if last_finite else "no finite step yet"
                    raise TrainingDivergedError(
                        f"non-finite loss for seed {seed} at epoch {epoch}, record {record.record_id!r}; {state}"
                    )
                last_finite = (epoch, value)
                plan.backward()
                sums = sums + np.asarray(parts, dtype=np.float64)
            store.scale_grads(1.0 / len(batch))
            ad.adam_step(store, lr=train_cfg.learning_rate)

        cc = np.array([ad.softmax_np(plan.forward(*record_inputs(r))[-1]) for r in val_records])
        predictions = PredictionTable(val_ids, labels.segment_ids, (), cc, no_etas)
        score = core_metric(predictions, val_labels).score
        if score is None:
            raise ValueError("validation split has no scored congestion labels")
        val_scores.append(score)
        mean_losses.append(sums / len(order))
        if score < best_score:
            best_score = score
            best_epoch = epoch
            best_params = store.state_arrays()

    assert best_params is not None
    return FitResult(
        params=best_params,
        best_epoch=best_epoch,
        val_scores=tuple(val_scores),
        mean_losses=tuple(mean_losses),
        data_order_hash=order_hash.hexdigest(),
    )


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Everything a member's training reads that does not depend on its seed.

    ``prepare_training`` builds it once per run; every member of an
    ensemble, and every ablation variant, trains from the same set. Its
    arrays are read-only, so no member can change what the next one reads.
    """

    train_cfg: TrainConfig
    prior_mode: str
    train_records: tuple[VolumeRecord, ...]
    val_records: tuple[VolumeRecord, ...]
    labels: LabelTable
    graph: RoadGraph
    norm_stats: NormStats
    rows: Mapping[str, int | None]  # by record id, for every daytime record: its prior row (see ``_prior_row``)
    priors: np.ndarray  # (segments, K, 3), in the graph's segment order
    counter_slices: Mapping[str, np.ndarray]  # by record id, for every daytime record; normalized
    targets: Mapping[str, LabelArrays]  # by record id, for every daytime record
    cc_weights: np.ndarray
    vol_weights: np.ndarray


def _read_only(obj):
    """``obj``, an ndarray or a dataclass with ndarray fields, made read-only."""
    for value in [obj] if isinstance(obj, np.ndarray) else [getattr(obj, f.name) for f in fields(obj)]:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return obj


def prepare_training(
    train_cfg: TrainConfig,
    dataset: Dataset,
    cluster_model: ClusterModel | None,
    priors: np.ndarray,
    model_cfg: ModelConfig,
) -> TrainingSet:
    """The split, graph, norm stats, priors, counter slices, targets and class weights of a run.

    Only the prior mode of ``model_cfg`` (which prior row each record
    reads) enters the set; any config with that prior mode and the cluster
    model's ``num_clusters`` can train from it. The set holds a read-only
    copy of ``priors``; the caller's array stays as it was.
    """
    _check_clusters(cluster_model, model_cfg)
    records, train_records, val_records = split_records(dataset, train_cfg)
    labels = dataset.labels
    graph = dataset.graph
    train_labels = labels.select(r.record_id for r in train_records)
    norm_stats = _read_only(fit_normalization(graph, train_records, train_labels))
    rows = {r.record_id: _prior_row(model_cfg.prior_mode, cluster_model, r) for r in records}
    counter_slices = {
        r.record_id: _read_only(norm_stats.normalize_counters(counter_slice_matrix(graph, r))) for r in records
    }
    targets = {r.record_id: _read_only(make_label_arrays(labels, labels.rows.get(r.record_id), graph, norm_stats))
               for r in records}
    train_targets = [targets[r.record_id] for r in train_records]
    return _read_only(TrainingSet(
        train_cfg=train_cfg,
        prior_mode=model_cfg.prior_mode,
        train_records=train_records,
        val_records=val_records,
        labels=labels,
        graph=graph,
        norm_stats=norm_stats,
        rows=rows,
        priors=_read_only(np.array(priors, dtype=np.float64)),
        counter_slices=counter_slices,
        targets=targets,
        cc_weights=inverse_frequency_weights([t.cc for t in train_targets], 3),
        vol_weights=inverse_frequency_weights([t.vol for t in train_targets], 3),
    ))


def train_one(training_set: TrainingSet, model_cfg: ModelConfig, seed: int) -> tuple[Checkpoint, RunLog]:
    """Train one model from a prepared set; deterministic given (set, config, seed).

    Returns the parameters of the epoch with the lowest validation
    congestion score and the full run history (see ``fit_loop``). The
    config must have the set's prior mode.
    """
    t_start = time.perf_counter()
    ts = training_set
    if model_cfg.prior_mode != ts.prior_mode:
        raise ValueError(f"model config has prior_mode={model_cfg.prior_mode!r}; "
                         f"the training set was prepared for prior_mode={ts.prior_mode!r}")
    graph = ts.graph
    store = init_params(model_cfg, seed)
    # what the static branch reads, per prior row (per cluster)
    static_in = {row: static_inputs(model_cfg, graph, ts.priors, ts.norm_stats, row)
                 for row in dict.fromkeys(ts.rows.values())}

    def record_inputs(record: VolumeRecord) -> tuple[np.ndarray, ...]:
        rid = record.record_id
        t = ts.targets[rid]
        return (ts.counter_slices[rid], t.cc, t.speed, t.speed_mask, t.vol, *static_in[ts.rows[rid]])

    def record_loss(counter_slice, cc, speed, speed_mask, vol, *static):
        pred = record_branch(store, model_cfg, graph, counter_slice, static_branch(store, model_cfg, static))
        losses, _counts = loss_terms(
            pred, LabelArrays(cc, speed, speed_mask, vol), ts.cc_weights, ts.vol_weights, model_cfg.lambdas
        )
        return (*losses, pred.cc_logits)

    fit = fit_loop(store, ts.train_cfg, seed, ts.train_records, ts.val_records, ts.labels, record_inputs, record_loss)
    ckpt = Checkpoint(
        params=fit.params,
        norm_stats=ts.norm_stats,
        config=model_cfg,
        cc_weights=ts.cc_weights,
        vol_weights=ts.vol_weights,
        config_hash=config_hash(model_cfg),
    )
    runlog = RunLog(
        epochs=tuple(EpochLog(*mean.tolist(), val_core) for mean, val_core in zip(fit.mean_losses, fit.val_scores)),
        best_epoch=fit.best_epoch,
        seed=seed,
        data_order_hash=fit.data_order_hash,
        wall_time_s=time.perf_counter() - t_start,
    )
    return ckpt, runlog


def train_ensemble(
    train_cfg: TrainConfig,
    model_cfg: ModelConfig,
    dataset: Dataset,
    cluster_model: ClusterModel,
    priors: np.ndarray,
) -> list[tuple[Checkpoint, RunLog]]:
    """Train the ensemble members sequentially from one training set; they differ only by seed."""
    training_set = prepare_training(train_cfg, dataset, cluster_model, priors, model_cfg)
    return [train_one(training_set, model_cfg, seed) for seed in train_cfg.seeds()]


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


def run_ablation(dataset: Dataset, variants: Sequence[str], cluster_model, priors, train_cfg: TrainConfig,
                 model_cfg: ModelConfig, seed: int) -> AblationResult:
    """Train one model per variant with identical seed/data and compare.

    ``no_cluster`` zeroes the prior block, ``no_static`` zeroes the static
    attribute inputs, ``no_gnn`` drops the message-passing layers so the
    heads read the pre-aggregation features. Everything else (seed, data
    order, epochs) is held fixed.
    """
    for variant in variants:
        if variant not in ABLATION_VARIANTS:
            raise ValueError(f"unknown ablation variant {variant!r}; options: {ABLATION_VARIANTS}")

    # the variants differ only in gates and depth, so they share one training set
    training_set = prepare_training(train_cfg, dataset, cluster_model, priors, model_cfg)
    configs = {"full": model_cfg, "no_cluster": replace(model_cfg, use_prior_block=False),
               "no_static": replace(model_cfg, use_static=False), "no_gnn": replace(model_cfg, gnn_layers=0)}
    runlogs = {variant: train_one(training_set, configs[variant], seed)[1] for variant in variants}
    return AblationResult(scores={v: log.epochs[log.best_epoch].val_core for v, log in runlogs.items()},
                          best_epochs={v: log.best_epoch for v, log in runlogs.items()},
                          data_order_hashes={v: log.data_order_hash for v, log in runlogs.items()})


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


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Checkpoints of one config, ready to serve records one at a time.

    ``prepare_ensemble`` builds it once per stage, and nothing in it is
    written after that. Each array stacks the members, member k at index
    k. ``static[row]`` is one (M, N, width) array of the members' static
    branches for the records that read prior row ``row``: each cluster
    index in ``active_row`` prior mode, the one key None in ``full`` mode.
    ``params`` holds every parameter, weights (M, F, H) and biases
    (M, 1, H). ``norm_stats`` is one ``NormStats`` of the members' stacks:
    ``counter_mean`` (M, 1, 8), ``speed_mean`` (M, 1), and so on. An
    ensemble of one member holds that member's own arrays, with no member
    axis. ``plan`` is ``record_branch`` on ``params``, traced once into a
    forward-only ``ad.Plan`` whose inputs are the normalized counter slices
    and a row's static branches, and whose outputs are the cc logits, the
    speeds and the vol logits. Every array is read-only.
    """

    config: ModelConfig
    graph: RoadGraph
    cluster_model: ClusterModel | None
    static: Mapping[int | None, np.ndarray] = field(repr=False)
    params: Mapping[str, np.ndarray] = field(repr=False)
    norm_stats: NormStats = field(repr=False)
    plan: ad.Plan = field(repr=False)


def prepare_ensemble(
    checkpoints: Sequence[Checkpoint],
    graph: RoadGraph,
    priors: np.ndarray,
    cluster_model: ClusterModel | None = None,
) -> Ensemble:
    """Check that the members share one config and the cluster model has its ``num_clusters``, build every
    member's static branch for every prior row, stack the members' static branches, parameters and norm stats,
    and trace ``record_branch`` on the stacks."""
    if not checkpoints:
        raise ValueError("prepare_ensemble needs at least one checkpoint")
    first = checkpoints[0]
    for ckpt in checkpoints[1:]:
        if ckpt.config_hash != first.config_hash:
            raise ValueError(
                f"checkpoint config hash mismatch: {ckpt.config_hash} vs {first.config_hash}"
            )
    _check_clusters(cluster_model, first.config)
    prior_mode = first.config.prior_mode
    if prior_mode == "active_row" and cluster_model is None:
        raise ValueError("prior_mode 'active_row' needs a cluster model")

    def stack(member_values) -> np.ndarray:  # a value of under two axes gets a leading 1: biases (M, 1, H)
        values = [np.asarray(value) for value in member_values]
        if len(values) == 1:  # one member serves its own shapes, at a single model's cost
            return _read_only(values[0].view())
        return _read_only(np.stack([value[None] if value.ndim < 2 else value for value in values]))

    static = {
        row: stack(
            static_branch(ckpt.params, ckpt.config, static_inputs(ckpt.config, graph, priors, ckpt.norm_stats, row))
            for ckpt in checkpoints
        )
        for row in (range(cluster_model.num_clusters) if prior_mode == "active_row" else [None])
    }
    params = MappingProxyType({name: stack(ckpt.params[name] for ckpt in checkpoints) for name in first.params})

    def outputs(counter_slices, static_feat):
        pred = record_branch(params, first.config, graph, counter_slices, static_feat)
        return pred.cc_logits, pred.speed_pred, pred.vol_logits

    norm_stats = NormStats(*(stack(getattr(ckpt.norm_stats, f.name) for ckpt in checkpoints) for f in fields(NormStats)))
    static_feat = next(iter(static.values()))
    # the normalized counter slices' shape, (M, N, 8) or (N, 8); the plan keeps no traced value
    counter_slices = np.zeros((*static_feat.shape[:-1], norm_stats.counter_mean.shape[-1]))
    plan = ad.Plan.trace(outputs, (counter_slices, static_feat))
    return Ensemble(first.config, graph, cluster_model, MappingProxyType(static), params, norm_stats, plan)


def ensemble_predict(ensemble: Ensemble, record: VolumeRecord) -> PredictionProbs:
    """Mean of member probabilities and speeds, summed in member order.

    The calls of ``predict_record``, once on the member stack: per record,
    the raw counter slice is built once and normalized for every member in
    one op, and the plan of the model's trunk and heads is replayed once,
    with the static branches of the record's prior row. Every value has the
    bits of the members' ``predict_record`` outputs averaged in member order.
    """
    ens = ensemble
    row = _prior_row(ens.config.prior_mode, ens.cluster_model, record)
    counter_slices = ens.norm_stats.normalize_counters(counter_slice_matrix(ens.graph, record))
    probs = predict_probabilities(PredictionBundle(*ens.plan.forward(counter_slices, ens.static[row])), ens.norm_stats)
    if probs.cc.ndim == 2:  # one member
        return probs
    # add.reduce over the leading axis adds the members in order, as a running sum does
    return PredictionProbs(*(np.add.reduce(p, axis=0) / len(p) for p in (probs.cc, probs.speed_kph, probs.vol)))
