"""The segment forecasting network and its multi-task loss.

Pipeline per record: the 8-dim counter slice runs through a small MLP
(volume feature); categorical embeddings, normalized continuous
attributes and the prior block are concatenated and encoded (static
feature); both are concatenated, projected to the hidden width and passed
through L rounds of message passing over the road graph's segments
(each round mixes a segment's own state with the mean of its neighbors',
``RoadGraph.mean_operator``); three residual-block head stacks then emit
congestion logits, a speed value in normalized space, and volume-class
logits. A record's forward is ``static_branch`` on the ``static_inputs``
built from the road graph and the (segments, K, 3) priors (they read no
counter volume, so they are the same for every record of one cluster)
followed by ``record_branch`` on the record's normalized counter slice;
``tests/reference.py`` holds that composition as the tests' eager
reference, ``forward``.

Losses: class-weighted cross entropy for congestion and volume class
(rows without a label are masked out), mean squared error on normalized
speed, combined as lambda1 * L_c + lambda2 * L_s + lambda3 * L_v with the
config's ``lambdas`` (``loss_terms``). Training traces these
functions once on Tensors (``autodiff.Plan.trace``) and replays the plan.
Each block is one fused op: ``embed_concat`` (static inputs), ``linear``
(its ``skip=`` adds a residual block's identity), ``gnn_round`` and
``weighted_sum`` (the loss).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .data import LabelTable, RoadGraph
from .seggraph import NormStats

__all__ = [
    "ModelConfig",
    "PredictionBundle",
    "PredictionProbs",
    "LabelArrays",
    "EMBEDDINGS",
    "HEADS",
    "param_shapes",
    "init_params",
    "static_inputs",
    "static_branch",
    "record_branch",
    "make_label_arrays",
    "loss_terms",
    "predict_probabilities",
    "inverse_frequency_weights",
    "config_hash",
]

# the embedding table of each categorical attribute, (vocabulary, width);
# codes: importance 0..5, oneway 0/1, tunnel 0/1, lanes 1..4
EMBEDDINGS = {"importance": (6, 5), "oneway": (2, 2), "tunnel": (2, 2), "lanes": (4, 3)}
HEADS = ("cc", "speed", "vol")  # the output heads, in PredictionBundle order
WEIGHT_CLIP = (0.1, 10.0)  # the bounds of each inverse-frequency class weight


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and loss-weighting knobs.

    The four categorical attributes' embedding tables are fixed
    (``EMBEDDINGS``). The congestion head has the three scored classes
    (green/yellow/red); the undefined code is masked.
    ``use_prior_block`` / ``use_static`` zero the matching feature slices
    for ablations.
    """

    volume_hidden: tuple[int, ...] = (32, 32)
    static_hidden: tuple[int, ...] = (32,)
    gnn_layers: int = 3
    hidden: int = 64
    head_blocks: int = 2
    lambdas: tuple[float, float, float] = (0.03, 1.0, 1.0)
    prior_mode: str = "full"  # or "active_row"
    num_clusters: int = 10
    use_prior_block: bool = True
    use_static: bool = True

    def __post_init__(self):
        # JSON configs and checkpoint headers carry lists; tuples keep the config hashable
        for name in ("volume_hidden", "static_hidden", "lambdas"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.prior_mode not in ("full", "active_row"):
            raise ValueError(f"prior_mode must be 'full' or 'active_row', got {self.prior_mode!r}")
        if len(self.lambdas) != 3 or not all(0.0 < lam < np.inf for lam in self.lambdas):  # NaN compares false
            raise ValueError(f"lambdas must be three finite numbers > 0, got {self.lambdas}")
        for name in ("gnn_layers", "head_blocks"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("hidden", "num_clusters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("volume_hidden", "static_hidden"):
            if any(width < 1 for width in getattr(self, name)):
                raise ValueError(f"each {name} width must be >= 1, got {getattr(self, name)}")

    @property
    def prior_width(self) -> int:
        return 3 * self.num_clusters if self.prior_mode == "full" else 3

    @property
    def static_input_width(self) -> int:
        # embeddings + 5 continuous attributes + prior block
        return sum(width for _, width in EMBEDDINGS.values()) + 5 + self.prior_width


Params = ParamStore | Mapping[str, np.ndarray]


@dataclass(frozen=True, eq=False)
class PredictionBundle:
    """Raw head outputs for one record: tensors from a ParamStore, arrays from plain arrays."""

    cc_logits: Tensor | np.ndarray  # (N, 3)
    speed_pred: Tensor | np.ndarray  # (N,), normalized space
    vol_logits: Tensor | np.ndarray  # (N, 3)


@dataclass(frozen=True, eq=False)
class PredictionProbs:
    """Consumer-facing probabilities and de-normalized speeds."""

    cc: np.ndarray  # (N, 3) green/yellow/red
    speed_kph: np.ndarray  # (N,)
    vol: np.ndarray  # (N, 3) classes {1, 3, 5}


@dataclass(frozen=True, eq=False)
class LabelArrays:
    """Per-record training targets aligned to the dense segment index.

    Class arrays use -1 for masked rows. Speeds are stored in normalized
    space together with their presence mask.
    """

    cc: np.ndarray  # (N,) int
    speed: np.ndarray  # (N,) float, normalized
    speed_mask: np.ndarray  # (N,) bool
    vol: np.ndarray  # (N,) int


def config_hash(config: ModelConfig) -> str:
    """Stable digest used to refuse mismatched checkpoint/config pairs."""
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Each parameter's name and shape in ``init_params``'s draw order, with nothing drawn or allocated."""
    shapes = {f"emb_{name}": shape for name, shape in EMBEDDINGS.items()}

    def linear(name: str, fan_in: int, fan_out: int) -> int:
        shapes[f"{name}_w"], shapes[f"{name}_b"] = (fan_in, fan_out), (fan_out,)
        return fan_out

    vol_out = 8
    for i, hidden in enumerate(config.volume_hidden):
        vol_out = linear(f"vol{i}", vol_out, hidden)
    static_out = config.static_input_width
    for i, hidden in enumerate(config.static_hidden):
        static_out = linear(f"static{i}", static_out, hidden)

    width = linear("combine", vol_out + static_out, config.hidden)
    for layer in range(config.gnn_layers):
        shapes[f"gnn{layer}_self_w"] = shapes[f"gnn{layer}_nbr_w"] = (width, width)
        shapes[f"gnn{layer}_b"] = (width,)
    for task, out_dim in zip(HEADS, (3, 1, 3)):
        for block in range(config.head_blocks):
            linear(f"head_{task}_block{block}_a", width, width)
            linear(f"head_{task}_block{block}_b", width, width)
        linear(f"head_{task}_out", width, out_dim)
    return shapes


def init_params(config: ModelConfig, seed: int) -> ParamStore:
    """Create all parameters in ``param_shapes`` order from one seeded generator: embeddings
    Normal(0, 0.1), weights Glorot-uniform, biases zero."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(config).items():
        if name.startswith("emb_"):
            params[name] = ad.embedding_normal(rng, *shape)
        else:
            params[name] = ad.glorot_uniform(rng, *shape) if len(shape) == 2 else np.zeros(shape)
    return ParamStore(params)


def _mlp(params: Params, prefix: str, count: int, x):
    for i in range(count):
        x = ad.linear(x, params[f"{prefix}{i}_w"], params[f"{prefix}{i}_b"], relu=True)
    return x


def _head(params: Params, config: ModelConfig, task: str, x):
    """A head's residual blocks, then its output layer."""
    for block in range(config.head_blocks):
        name = f"head_{task}_block{block}"
        inner = ad.linear(x, params[f"{name}_a_w"], params[f"{name}_a_b"], relu=True)
        x = ad.linear(inner, params[f"{name}_b_w"], params[f"{name}_b_b"], skip=x)  # identity skip
    return ad.linear(x, params[f"head_{task}_out_w"], params[f"head_{task}_out_b"])


def static_inputs(config: ModelConfig, graph: RoadGraph, priors: np.ndarray, norm_stats: NormStats,
                  row: int | None = None) -> tuple[np.ndarray, ...]:
    """What the static branch's ops read, from the graph and the (segments, K, 3) priors in its segment order,
    where K is ``config.num_clusters``.

    The ``ad.embedding_cells`` of the four categorical columns (``EMBEDDINGS`` order; a code outside its
    vocabulary raises IndexError), then the z-normalized continuous attributes and the prior block, each
    times its ablation gate. In ``full`` prior mode the block flattens each segment's K x 3 priors
    row-major, so cluster i's distribution sits at offset 3*i; in ``active_row`` mode it is prior row ``row``.
    """
    n = len(graph.segments)
    if priors.shape != (n, config.num_clusters, 3):
        raise ValueError(f"priors of shape {priors.shape}, expected {(n, config.num_clusters, 3)}")
    if config.prior_mode == "active_row" and row is None:
        raise ValueError("prior_mode 'active_row' needs a prior row")
    block = priors.reshape(n, -1) if config.prior_mode == "full" else priors[:, row]
    static_gate = 1.0 if config.use_static else 0.0
    prior_gate = 1.0 if config.use_prior_block else 0.0
    continuous = (graph.continuous_matrix - norm_stats.cont_mean) / norm_stats.cont_std
    cells = ad.embedding_cells(list(EMBEDDINGS.values()), graph.categorical_matrix)
    return (cells, continuous * static_gate, np.asarray(block, dtype=np.float64) * prior_gate)


def static_branch(params: Params, config: ModelConfig, inputs: Sequence):
    """Each segment's static feature: embeddings, continuous attributes and prior block through the static MLP.

    ``inputs`` are the ``static_inputs``, put side by side by one ``ad.embed_concat``; with ``use_static`` off
    (the ablation gate) its tables are zeros in place of the embeddings. No counter volume is read, so the
    result is the same for every record with the same prior block: in ``full`` mode for every record, in
    ``active_row`` mode for every record of one cluster.
    """
    cells, continuous, prior_block = inputs
    if config.use_static:
        tables = [params[f"emb_{name}"] for name in EMBEDDINGS]
    else:
        tables = [np.zeros(shape) for shape in EMBEDDINGS.values()]
    static_in = ad.embed_concat(tables, cells, [continuous, prior_block])
    return _mlp(params, "static", len(config.static_hidden), static_in)


def record_branch(
    params: Params,
    config: ModelConfig,
    graph: RoadGraph,
    counter_slice,
    static_feat,
) -> PredictionBundle:
    """The rest of the network: the volume MLP on the record's (N, 8) counter slice,
    the combine layer with ``static_feat``, the message-passing rounds and the heads.

    On a member stack (every weight (M, F, H), every bias (M, 1, H), the inputs (M, N, width)) of arrays, or of
    Tensors that require no gradient (``prepare_ensemble`` traces it so), one call runs every member, into
    (M, N, C) logits and (M, N) speeds with the bits of the members' own calls."""
    n = len(graph.segments)
    if counter_slice.shape[-2] != n:
        raise ad.ShapeError(f"features for {counter_slice.shape[-2]} segments vs graph with {n}")
    volume_feat = _mlp(params, "vol", len(config.volume_hidden), counter_slice)
    h = ad.linear(ad.concat([volume_feat, static_feat], axis=-1), params["combine_w"], params["combine_b"])
    for layer in range(config.gnn_layers):
        weights = (params[f"gnn{layer}_self_w"], params[f"gnn{layer}_nbr_w"], params[f"gnn{layer}_b"])
        h = ad.gnn_round(h, graph.mean_operator, *weights)
    cc_logits = _head(params, config, "cc", h)
    speed = _head(params, config, "speed", h)
    vol_logits = _head(params, config, "vol", h)
    return PredictionBundle(cc_logits=cc_logits, speed_pred=ad.reshape(speed, speed.shape[:-1]), vol_logits=vol_logits)


def make_label_arrays(table: LabelTable, row: int | None, graph: RoadGraph, norm_stats: NormStats) -> LabelArrays:
    """Map one record's labels (row ``row`` of its label table, None for a record without labels) onto the dense
    segment index.

    Congestion codes 1/2/3 map to 0/1/2 and the undefined code 0 is masked.
    Volume classes {1, 3, 5} map to {0, 1, 2}. Speeds are z-normalized.
    """
    n = len(graph.segments)
    if row is None:  # no labels: every row masked
        masked = np.full(n, -1, dtype=np.int64)
        return LabelArrays(cc=masked, speed=np.zeros(n), speed_mask=np.zeros(n, dtype=bool), vol=masked.copy())
    if table.segment_ids != graph.segment_ids:
        raise ValueError("the label table and the graph list different segments")
    cc = table.cc[row].astype(np.int64)
    cc = np.where(cc > 0, cc - 1, -1)
    speed_kph = table.speed_kph[row]
    speed_mask = ~np.isnan(speed_kph)
    speed = np.where(speed_mask, (speed_kph - norm_stats.speed_mean) / norm_stats.speed_std, 0.0)
    vol = (table.vol_class[row].astype(np.int64) - 1) // 2  # 1, 3, 5 -> 0, 1, 2; -1 stays -1
    return LabelArrays(cc=cc, speed=speed, speed_mask=speed_mask, vol=vol)


def loss_terms(
    pred: PredictionBundle,
    labels: LabelArrays,
    cc_weights: np.ndarray,
    vol_weights: np.ndarray,
    lambdas: tuple[float, float, float],
) -> tuple[tuple[Tensor, Tensor, Tensor, Tensor], tuple[int, int, int]]:
    """The combined loss and the congestion, speed and volume losses, then each task's count of labeled rows.

    ``labels`` may hold Tensors: the inputs of a traced plan.
    """
    loss_cc, n_cc = ad.weighted_cross_entropy(pred.cc_logits, labels.cc, cc_weights)
    loss_speed, n_speed = ad.mse(pred.speed_pred, labels.speed, labels.speed_mask)
    loss_vol, n_vol = ad.weighted_cross_entropy(pred.vol_logits, labels.vol, vol_weights)
    total = ad.weighted_sum((loss_cc, loss_speed, loss_vol), lambdas)  # (L_c * l1 + L_s * l2) + L_v * l3
    return (total, loss_cc, loss_speed, loss_vol), (n_cc, n_speed, n_vol)


def predict_probabilities(pred: PredictionBundle, norm_stats: NormStats) -> PredictionProbs:
    """Softmax the logits and map speeds back to km/h.

    ``pred`` holds plain arrays: ``record_branch``'s output for one model,
    or for a member stack (logits (M, N, C), speeds (M, N)). ``norm_stats``
    gives ``speed_mean`` and ``speed_std``: a member's floats, or the (M, 1)
    stacks of an ``Ensemble``'s ``norm_stats``.
    """
    vol = ad.softmax_np(pred.vol_logits)
    speed = pred.speed_pred * norm_stats.speed_std + norm_stats.speed_mean
    return PredictionProbs(cc=ad.softmax_np(pred.cc_logits), speed_kph=speed, vol=vol)


def inverse_frequency_weights(class_vectors: Iterable[np.ndarray], num_classes: int) -> np.ndarray:
    """Class weights N / (C * N_k) over training class-index vectors, clipped to ``WEIGHT_CLIP``.

    Entries of -1 are masked rows. Unobserved classes get the upper clip bound.
    """
    counts = np.zeros(num_classes, dtype=np.float64)
    for values in class_vectors:
        counts += np.bincount(values[values >= 0], minlength=num_classes)
    total = counts.sum()
    if total == 0:
        return np.ones(num_classes, dtype=np.float64)
    with np.errstate(divide="ignore"):
        weights = np.where(counts > 0, total / (num_classes * counts), np.inf)
    return np.clip(weights, *WEIGHT_CLIP)
