"""Shared fixtures: a tiny hand-built city, finite-difference helpers and a scalar to backpropagate from."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, fields
from datetime import date
from itertools import accumulate

import numpy as np
import pytest

import t4c.data as data_module
from t4c import autodiff as ad
from t4c.data import (
    Dataset,
    LabelTable,
    NodeRec,
    RoadGraph,
    SegmentRec,
    SuperSegment,
    VolumeRecord,
)
from t4c.model import ModelConfig, param_shapes, static_inputs
from t4c.seggraph import counter_slice_matrix


def make_segment(seg_id, tail, head, **overrides):
    base = dict(
        segment_id=seg_id,
        tail_node=tail,
        head_node=head,
        importance=2,
        oneway=0,
        tunnel=0,
        lanes=2,
        parsed_maxspeed=50.0,
        flow_speed=40.0,
        length_meters=100.0,
        counter_distance=1.0,
        limit_speed=50.0,
    )
    base.update(overrides)
    return SegmentRec(**base)


def label_table(labels, segment_ids=None) -> LabelTable:
    """A label table from ``{record_id: {segment_id: label}}``, where a label is
    a congestion code or a ``(cc, speed_kph, vol_class)`` triple, None for no label.

    The columns are ``segment_ids``, by default every labelled segment in order of appearance.
    """
    if segment_ids is None:
        segment_ids = dict.fromkeys(seg_id for edges in labels.values() for seg_id in edges)
    segment_ids = tuple(segment_ids)
    column = {seg_id: j for j, seg_id in enumerate(segment_ids)}
    shape = (len(labels), len(segment_ids))
    cc, speed, vol = np.full(shape, -1, np.int8), np.full(shape, np.nan), np.full(shape, -1, np.int8)
    for row, edges in enumerate(labels.values()):
        for seg_id, label in edges.items():
            values = label if isinstance(label, tuple) else (label, None, None)
            for array, value in zip((cc, speed, vol), values):
                if value is not None:
                    array[row, column[seg_id]] = value
    return LabelTable(tuple(labels), segment_ids, cc, speed, vol)


@pytest.fixture
def toy_graph() -> RoadGraph:
    """Three nodes A, B, C; segments A->B, B->C, B->A; one counter at A."""
    nodes = (
        NodeRec("A", 48.1, 11.5, "c0"),
        NodeRec("B", 48.2, 11.6, None),
        NodeRec("C", 48.3, 11.7, None),
    )
    segments = (
        make_segment("e1", "A", "B", counter_distance=0.0),
        make_segment("e2", "B", "C", flow_speed=30.0, length_meters=200.0),
        make_segment("e3", "B", "A", counter_distance=0.0),
    )
    return RoadGraph(nodes=nodes, segments=segments, counters={"A": "c0"})


@pytest.fixture
def toy_dataset(toy_graph) -> Dataset:
    records = (
        VolumeRecord("r0", date(2022, 1, 3), 30, {"A": (1, 2, 3, 4)}),
        VolumeRecord("r1", date(2022, 1, 3), 40, {"A": (0, 0, 5, 0)}),
        VolumeRecord("r2", date(2022, 1, 4), 50, {}),
    )
    labels = label_table({
        "r0": {"e1": (1, 38.0, 1), "e2": (2, 20.0, 3), "e3": (3, 10.0, 5)},
        "r1": {"e1": (0, None, None), "e2": (1, 29.0, 1)},
        "r2": {"e2": (2, 15.0, 3)},
    })
    supersegments = (
        SuperSegment("ss0", ("e1", "e2"), {"r0": 30.0, "r1": 28.0, "r2": 35.0}),
    )
    return Dataset(toy_graph, records, labels, supersegments)


def record_inputs(config, graph, record, priors, norm_stats, row=None):
    """The two inputs ``model.forward`` takes for one record under ``config``: the ``static_inputs``
    (``row`` is the prior row in ``active_row`` mode) and the normalized counter slice."""
    static_in = static_inputs(config, graph, priors, norm_stats, row)
    return static_in, norm_stats.normalize_counters(counter_slice_matrix(graph, record))


def dot(out, g: np.ndarray):
    """The scalar ``sum(out * g)`` from the model's own ops: its backward hands ``out`` exactly ``g``."""
    size = np.size(g)
    return ad.reshape(ad.linear(ad.reshape(out, (1, size)), g.reshape(size, 1), np.zeros(1)), ())


def central_diff_tensor(f, tensor, h=1e-5) -> np.ndarray:
    """Central finite differences of the scalar ``f()`` w.r.t. ``tensor``."""
    flat = tensor.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = f()
        flat[i] = orig - h
        f_minus = f()
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad.reshape(tensor.data.shape)


def central_diff_store(f, store, h=1e-5) -> dict[str, np.ndarray]:
    return {name: central_diff_tensor(f, p, h) for name, p in store.items()}


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Relative error with an absolute floor of 1e-3 in the denominator."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    if analytic.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - numeric) / denom))


def rewrite_checkpoint_header(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with ``edit(header_dict)`` applied to its JSON header."""
    raw = src.read_bytes()
    end = 16 + int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:end])
    edit(header)
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    dst.write_bytes(raw[:8] + len(body).to_bytes(8, "little") + body + raw[end:])
    return dst


def write_body_value(src, dst, tensor: str, value: float):
    """Copy checkpoint ``src`` to ``dst`` with the first value of parameter ``tensor`` replaced by ``value``. The
    payload holds the parameters in the ``param_shapes`` order of the header's config."""
    raw = bytearray(src.read_bytes())
    end = 16 + int.from_bytes(raw[8:16], "little")
    shapes = param_shapes(ModelConfig(**json.loads(raw[16:end])["config"]))
    names = list(shapes)
    offset = end + 8 * sum(math.prod(shapes[name]) for name in names[: names.index(tensor)])
    raw[offset : offset + 8] = np.float64(value).tobytes()
    dst.write_bytes(bytes(raw))
    return dst


def write_version_1_checkpoint(ckpt, path):
    """Write ``ckpt`` to ``path`` as the version 1 writer did: the header also listed each tensor's name, shape and
    byte offset, in sorted name order, and its config held ``cc_classes``; the payload held the tensors in that order."""
    config = {**asdict(ckpt.config), "cc_classes": 3}
    names = sorted(ckpt.params)
    offsets = accumulate((8 * ckpt.params[name].size for name in names), initial=0)
    header = {
        "tensors": [{"name": name, "shape": list(ckpt.params[name].shape), "offset": offset}
                    for name, offset in zip(names, offsets)],
        "norm_stats": {f.name: np.asarray(getattr(ckpt.norm_stats, f.name)).tolist() for f in fields(ckpt.norm_stats)},
        "config": config,
        "config_hash": hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()[:16],
        "cc_weights": ckpt.cc_weights.tolist(),
        "vol_weights": ckpt.vol_weights.tolist(),
    }
    payload = [np.ascontiguousarray(ckpt.params[name], dtype="<f8").tobytes() for name in names]
    path.write_bytes(data_module.pack_container(b"T4CK", 1, header, payload))
    return path


def write_version_1_copy(jsonl, kind: tuple[bytes, int]) -> None:
    """Replace ``jsonl``'s copy with the one the version 1 writer made of the same container: its version field 1,
    then the SHA-256 of the JSONL's bytes followed by the container."""
    header, payload = data_module._read_copy(jsonl, kind, dict)
    body = data_module.pack_container(kind[0], 1, header, [bytes(payload)])
    jsonl.with_name(jsonl.name + ".bin").write_bytes(body + hashlib.sha256(jsonl.read_bytes() + body).digest())
