"""Deterministic binary checkpoint container.

A ``data.pack_container`` container: magic ``T4CK``, format version 1, a
JSON header, then the concatenated raw little-endian float64 buffers of
all tensors in header order. The same inputs always produce the same
bytes, and values round-trip bit-exactly. Loading checks the header
against what ``save_checkpoint`` writes: every field present and of its
JSON type, positive norm-stat sigmas, the config hash, tensor offsets as
the running sum, and tensor names and shapes as ``model.param_shapes``
gives them for the config. Every parameter value must be finite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .data import pack_container, read_json, unpack_container
from .model import ModelConfig, config_hash, param_shapes
from .seggraph import NormStats

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint"]

MAGIC = b"T4CK"
VERSION = 1
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
        if self.config != other.config or self.config_hash != other.config_hash:
            return False
        if set(self.params) != set(other.params):
            return False
        return all(np.array_equal(self.params[k], other.params[k]) for k in self.params)


def _norm_stats_obj(stats: NormStats) -> dict:
    return {f.name: np.asarray(getattr(stats, f.name)).tolist() for f in fields(stats)}


@dataclass(frozen=True)
class _TensorEntry:
    name: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class _Header:  # the JSON header save_checkpoint writes
    tensors: tuple[_TensorEntry, ...]
    norm_stats: NormStats
    config: ModelConfig
    config_hash: str
    cc_weights: np.ndarray
    vol_weights: np.ndarray


def save_checkpoint(path, ckpt: Checkpoint) -> Path:
    path = Path(path)
    names = sorted(ckpt.params)
    tensors = []
    offset = 0
    for name in names:
        arr = np.ascontiguousarray(ckpt.params[name], dtype=np.float64)
        tensors.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
    header = {
        "tensors": tensors,
        "norm_stats": _norm_stats_obj(ckpt.norm_stats),
        "config": asdict(ckpt.config),
        "config_hash": ckpt.config_hash,
        "cc_weights": ckpt.cc_weights.tolist(),
        "vol_weights": ckpt.vol_weights.tolist(),
    }
    buffers = (np.ascontiguousarray(ckpt.params[name], dtype="<f8").tobytes() for name in names)
    path.write_bytes(pack_container(MAGIC, VERSION, header, buffers))
    return path


def _parse_header(header) -> tuple[dict, dict[str, tuple[tuple[int, ...], int]]]:
    """The checkpoint's fields but its params, and each tensor's (shape, offset), from a header as
    ``save_checkpoint`` writes it.

    ``read_json`` refuses a header that is not a ``_Header``; a field out of range or inconsistent raises ValueError.
    """
    read_json(_Header, header)
    config = ModelConfig(**header["config"])
    if header["config_hash"] != config_hash(config):
        raise ValueError(f"config_hash {header['config_hash']!r} is not the hash of its config")
    stats = header["norm_stats"]
    norm_stats = NormStats(**{key: np.asarray(v, dtype=np.float64) if key in NORM_STATS_LENGTHS else float(v)
                              for key, v in stats.items()})
    arrays = {
        **vars(norm_stats),
        "cc_weights": np.asarray(header["cc_weights"], dtype=np.float64),
        "vol_weights": np.asarray(header["vol_weights"], dtype=np.float64),
    }
    for key, length in {**NORM_STATS_LENGTHS, "cc_weights": config.cc_classes, "vol_weights": 3}.items():
        if arrays[key].shape != (length,):
            raise ValueError(f"{key} has shape {arrays[key].shape}, expected ({length},)")
    for key in ("cont_std", "counter_std", "speed_std"):
        if not np.all(arrays[key] > 0.0):
            raise ValueError(f"norm_stats.{key} must be > 0, got {stats[key]!r}")

    expected = param_shapes(config)  # nothing drawn or allocated before the header and payload agree
    specs: dict[str, tuple[tuple[int, ...], int]] = {}
    offset = 0
    for spec in header["tensors"]:
        name, shape = spec["name"], spec["shape"]
        if name not in expected or name in specs:
            raise ValueError(f"tensor {name!r} is listed twice or is not a parameter of the config")
        if tuple(shape) != expected[name]:
            raise ValueError(f"tensor {name!r} has shape {shape!r}, the config makes {expected[name]}")
        if spec["offset"] != offset:
            raise ValueError(f"tensor {name!r} at offset {spec['offset']!r}, expected {offset}")
        specs[name] = (expected[name], offset)
        offset += 8 * math.prod(expected[name])
    missing = sorted(set(expected) - set(specs))
    if missing:
        raise ValueError(f"tensors missing for the config: {missing}")
    weights = {key: arrays[key] for key in ("cc_weights", "vol_weights")}
    return dict(norm_stats=norm_stats, config=config, config_hash=header["config_hash"], **weights), specs


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a cut, damaged or inconsistent file raises ValueError naming ``path``."""
    path = Path(path)
    try:
        header, payload = unpack_container(path.read_bytes(), MAGIC, VERSION, "checkpoint")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    try:
        fields, specs = _parse_header(header)
    except ValueError as exc:
        raise ValueError(f"{path}: damaged checkpoint header: {exc}") from None
    expected = sum(8 * math.prod(shape) for shape, _ in specs.values())
    if len(payload) != expected:
        raise ValueError(f"{path}: truncated checkpoint: payload has {len(payload)} bytes, its header lists {expected}")

    params: dict[str, np.ndarray] = {}
    for name, (shape, offset) in specs.items():
        arr = np.frombuffer(payload, dtype="<f8", count=math.prod(shape), offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: damaged checkpoint body: tensor {name!r} holds a non-finite value")
        params[name] = arr.astype(np.float64)

    return Checkpoint(params=params, **fields)
