"""Deterministic binary checkpoint container.

A ``data.pack_container`` container: magic ``T4CK``, format version 2, a
JSON header holding the model config, its hash, the norm stats and the
class weights, then every parameter as raw little-endian float64 in
``model.param_shapes`` order: one flat buffer, whose layout the config
alone gives. The same inputs always produce the same bytes, and values
round-trip bit-exactly. Loading checks the header against what
``save_checkpoint`` writes: every field present and of its JSON type,
positive norm-stat sigmas and the config hash. The payload must be as long
as the config's parameters, and every value finite.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields
from itertools import accumulate
from pathlib import Path

import numpy as np

from .data import pack_container, read_json, unpack_container
from .model import ModelConfig, config_hash, param_shapes
from .seggraph import NormStats

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint"]

MAGIC = b"T4CK"
VERSION = 2
NORM_STATS_LENGTHS = {"cont_mean": 5, "cont_std": 5, "counter_mean": 8, "counter_std": 8}


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """A trained parameter snapshot plus everything needed to use it."""

    params: dict[str, np.ndarray]
    norm_stats: NormStats
    config: ModelConfig
    cc_weights: np.ndarray
    vol_weights: np.ndarray
    config_hash: str

    def equals(self, other: "Checkpoint") -> bool:
        """The same config and hash, and the same bits in every parameter, norm stat and class weight."""
        if self.config != other.config or self.config_hash != other.config_hash or set(self.params) != set(other.params):
            return False
        pairs = [(self.params[k], other.params[k]) for k in self.params]
        pairs += [(getattr(self.norm_stats, f.name), getattr(other.norm_stats, f.name)) for f in fields(NormStats)]
        pairs += [(self.cc_weights, other.cc_weights), (self.vol_weights, other.vol_weights)]
        return all(_same_bits(a, b) for a, b in pairs)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _norm_stats_obj(stats: NormStats) -> dict:
    return {f.name: np.asarray(getattr(stats, f.name)).tolist() for f in fields(stats)}


@dataclass(frozen=True)
class _Header:  # the JSON header save_checkpoint writes
    norm_stats: NormStats
    config: ModelConfig
    config_hash: str
    cc_weights: np.ndarray
    vol_weights: np.ndarray


def save_checkpoint(path, ckpt: Checkpoint) -> Path:
    """Write ``ckpt`` to ``path``; params whose names or shapes are not ``param_shapes(config)`` raise ValueError."""
    path = Path(path)
    shapes = param_shapes(ckpt.config)
    if {name: np.shape(value) for name, value in ckpt.params.items()} != shapes:
        raise ValueError("the checkpoint's params are not the names and shapes its config makes")
    header = {
        "norm_stats": _norm_stats_obj(ckpt.norm_stats),
        "config": asdict(ckpt.config),
        "config_hash": ckpt.config_hash,
        "cc_weights": ckpt.cc_weights.tolist(),
        "vol_weights": ckpt.vol_weights.tolist(),
    }
    buffers = (np.ascontiguousarray(ckpt.params[name], dtype="<f8").tobytes() for name in shapes)
    path.write_bytes(pack_container(MAGIC, VERSION, header, buffers))
    return path


def _parse_header(header) -> dict:
    """The checkpoint's fields but its params, from a header as ``save_checkpoint`` writes it.

    ``read_json`` refuses a header that is not a ``_Header``; a field out of range or inconsistent raises ValueError.
    """
    read_json(_Header, header)
    config = ModelConfig(**header["config"])
    if header["config_hash"] != config_hash(config):
        raise ValueError(f"config_hash {header['config_hash']!r} is not the hash of its config")
    stats = header["norm_stats"]
    norm_stats = NormStats(**{key: np.asarray(v, dtype=np.float64) if key in NORM_STATS_LENGTHS else float(v)
                              for key, v in stats.items()})
    weights = {key: np.asarray(header[key], dtype=np.float64) for key in ("cc_weights", "vol_weights")}
    arrays = {**vars(norm_stats), **weights}
    for key, length in {**NORM_STATS_LENGTHS, "cc_weights": 3, "vol_weights": 3}.items():
        if arrays[key].shape != (length,):
            raise ValueError(f"{key} has shape {arrays[key].shape}, expected ({length},)")
    for key in ("cont_std", "counter_std", "speed_std"):
        if not np.all(arrays[key] > 0.0):
            raise ValueError(f"norm_stats.{key} must be > 0, got {stats[key]!r}")
    return dict(norm_stats=norm_stats, config=config, config_hash=header["config_hash"], **weights)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a cut, damaged or inconsistent file raises ValueError naming ``path``."""
    path = Path(path)
    try:
        header, payload = unpack_container(path.read_bytes(), MAGIC, VERSION, "checkpoint")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    try:
        fields = _parse_header(header)
    except ValueError as exc:
        raise ValueError(f"{path}: damaged checkpoint header: {exc}") from None
    shapes = param_shapes(fields["config"])  # nothing is allocated before the payload has the config's length
    ends = list(accumulate(math.prod(shape) for shape in shapes.values()))
    if len(payload) != 8 * ends[-1]:
        raise ValueError(f"{path}: damaged checkpoint: payload has {len(payload)} bytes, "
                         f"the config makes {8 * ends[-1]}")

    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    finite = np.isfinite(flat)
    if not finite.all():
        name = list(shapes)[bisect_right(ends, int(finite.argmin()))]
        raise ValueError(f"{path}: damaged checkpoint body: tensor {name!r} holds a non-finite value")
    params = {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), np.split(flat, ends[:-1]))}
    return Checkpoint(params=params, **fields)
