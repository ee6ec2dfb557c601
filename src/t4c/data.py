"""Road-graph data model, dataset directory IO and the synthetic city generator.

A dataset directory holds six text files (UTF-8, LF):

* ``meta.json``            -- ``{"format_version": 1, "city_name": ..., "num_day_slots": 96}``
* ``nodes.csv``            -- ``node_id,lat,lon,counter_id`` (counter_id empty when absent)
* ``edges.csv``            -- segment rows with static attributes
* ``volumes.jsonl``        -- one input record per line (omitted counters are zero)
* ``labels.jsonl``         -- per-record, per-segment congestion / speed / volume labels
* ``supersegments.json``   -- ordered segment paths plus observed ETA labels

Loading validates the schema strictly and reports file, line and field on
violations. All loaded structures are immutable; the labels are one ``LabelTable``.
The ``RoadGraph`` is also the one graph the model runs on: it holds the segment order, adjacency and mean
operator, each built once, on first use.

``labels.jsonl.bin`` is the labels' binary copy: a ``pack_container`` container (magic ``T4CL``, version 2) of the
record and segment ids, then cc (int8), speed_kph (<f8) and vol_class (int8), each (records, segments) row-major; then
the SHA-256 of the container alone; then the bytes of ``labels.jsonl`` verbatim. ``load_dataset`` reads the copy only
when the container's digest matches, the JSONL equals the copy's tail byte for byte (compared in chunks, the JSONL
never read whole), and the container holds what parsing the JSONL gives (``_labels_copy``); else it parses the JSONL: a
stale, damaged or version 1 copy is ignored, and deleting it is always safe.

A predictions file is laid out the same way: one sorted-key JSON line per record (``{"etas": {ss_id: seconds},
"record_id": ..., "segments": {seg_id: {"cc", "speed", "vol"}}}``) and ``<predictions>.bin`` (magic ``T4CP``, version
2) of the record, segment and super-segment ids, then cc (records, segments, 3) and the ETAs (records, super-segments)
as <f8, then the container's SHA-256 and the JSONL's bytes. ``write_predictions`` writes both from a
``PredictionTable`` with its ids sorted; ``read_predictions`` gives it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import re
import reprlib
import sys
from collections import deque
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from datetime import date, timedelta
from functools import cache, cached_property
from pathlib import Path
from types import MappingProxyType, UnionType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

__all__ = [
    "DatasetError",
    "SchemaError",
    "DanglingReferenceError",
    "NodeRec",
    "SegmentRec",
    "RoadGraph",
    "VolumeRecord",
    "SegmentLabel",
    "LabelBundle",
    "LabelTable",
    "SuperSegment",
    "Dataset",
    "SynthSpec",
    "CONTINUOUS_FIELDS",
    "mean_aggregation_matrix",
    "load_dataset",
    "write_dataset",
    "daytime_filter",
    "split_train_validation",
    "generate_synthetic_city",
    "labels_by_record",
    "PredictionError",
    "PredictionTable",
    "prediction_fault",
    "read_predictions",
    "write_predictions",
    "read_json",
    "parse_json",
    "csv_text",
    "write_json",
    "pack_container",
    "unpack_container",
]

FORMAT_VERSION = 1
NUM_DAY_SLOTS = 96
DAYTIME_SLOTS = (24, 88)  # 6:00-22:00 in 15-minute slots

CONTINUOUS_FIELDS = (
    "parsed_maxspeed",
    "flow_speed",
    "length_meters",
    "counter_distance",
    "limit_speed",
)
NODE_COLUMNS = ["node_id", "lat", "lon", "counter_id"]
EDGE_COLUMNS = ["segment_id", "tail_node", "head_node", "importance", "oneway", "tunnel", "lanes", *CONTINUOUS_FIELDS]

VALID_CC = (0, 1, 2, 3)
VALID_VOL_CLASS = (1, 3, 5)


class DatasetError(Exception):
    """Base class for dataset ingestion failures."""


class SchemaError(DatasetError):
    """A file violates the canonical schema; carries file, line and field."""

    def __init__(self, path, line: int | None, fieldname: str | None, message: str):
        self.path = str(path)
        self.line = line
        self.fieldname = fieldname
        where = self.path if line is None else f"{self.path}:{line}"
        what = message if fieldname is None else f"field {fieldname!r}: {message}"
        super().__init__(f"{where}: {what}")


class DanglingReferenceError(SchemaError):
    """An identifier refers to an entity that does not exist."""


@dataclass(frozen=True)
class NodeRec:
    node_id: str
    lat: float
    lon: float
    counter_id: str | None = None


@dataclass(frozen=True)
class SegmentRec:
    """One directed road segment with its static attributes.

    ``lanes`` is the bucketed lane count (1, 2, 3 or 4 meaning 4+);
    ``counter_distance`` is the hop count to the nearest counter node.
    """

    segment_id: str
    tail_node: str
    head_node: str
    importance: int
    oneway: int
    tunnel: int
    lanes: int
    parsed_maxspeed: float
    flow_speed: float
    length_meters: float
    counter_distance: float
    limit_speed: float


def mean_aggregation_matrix(neighbors: Sequence[Sequence[int]]) -> np.ndarray:
    """Dense (N, N) matrix whose row i averages the listed neighbors of i.

    Rows with no neighbors are all zero, so isolated nodes aggregate to
    the zero vector.
    """
    n = len(neighbors)
    mat = np.zeros((n, n), dtype=np.float64)
    for i, nbrs in enumerate(neighbors):
        if len(nbrs) == 0:
            continue
        cols = np.asarray(list(nbrs), dtype=np.int64)
        if cols.min() < 0 or cols.max() >= n:
            raise IndexError(f"neighbor index out of range at node {i}: {list(nbrs)}")
        mat[i, cols] = 1.0 / len(cols)
    return mat


@dataclass(frozen=True)
class RoadGraph:
    """The road network, and the graph the model runs on: its segments are the nodes, in ``segments`` order, and two
    segments are adjacent when they share an endpoint intersection (direction ignored)."""

    nodes: tuple[NodeRec, ...]
    segments: tuple[SegmentRec, ...]
    # (segment_id, attribute) pairs whose value was median-imputed at load time
    imputed: tuple[tuple[str, str], ...] = field(default=(), compare=False)

    @cached_property
    def counters(self) -> dict[str, str]:
        """Each counter node's id -> its ``counter_id``, in node order."""
        return {n.node_id: n.counter_id for n in self.nodes if n.counter_id}

    @cached_property
    def continuous_matrix(self) -> np.ndarray:
        """(N, 5) raw ``CONTINUOUS_FIELDS`` in segment order; built on first use, read-only."""
        out = np.array(
            [[getattr(s, name) for name in CONTINUOUS_FIELDS] for s in self.segments],
            dtype=np.float64,
        )
        out.setflags(write=False)
        return out

    @cached_property
    def categorical_matrix(self) -> np.ndarray:
        """(N, 4) embedding indices: importance, oneway, tunnel, lanes bucket - 1; built on first use, read-only."""
        out = np.array(
            [[s.importance, s.oneway, s.tunnel, s.lanes - 1] for s in self.segments],
            dtype=np.int64,
        )
        out.setflags(write=False)
        return out

    @cached_property
    def node_index(self) -> dict[str, int]:
        """Each node id's row in ``nodes``."""
        return {n.node_id: i for i, n in enumerate(self.nodes)}

    @cached_property
    def endpoint_rows(self) -> np.ndarray:
        """(N, 2) node rows of each segment's tail and head, in segment order; built on first use, read-only."""
        index = self.node_index
        out = np.array([[index[s.tail_node], index[s.head_node]] for s in self.segments], dtype=np.int64)
        out = out.reshape(-1, 2)  # (0, 2) for a graph without segments
        out.setflags(write=False)
        return out

    @cached_property
    def segment_ids(self) -> tuple[str, ...]:
        """Each segment's id, in segment order: the order of every (segments, ...) block."""
        return tuple(s.segment_id for s in self.segments)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each segment's sorted adjacent segment rows: those that share at least one endpoint node with it."""
        touching: dict[str, list[int]] = {}
        for i, seg in enumerate(self.segments):
            touching.setdefault(seg.tail_node, []).append(i)
            if seg.head_node != seg.tail_node:
                touching.setdefault(seg.head_node, []).append(i)
        neighbor_sets: list[set[int]] = [set() for _ in self.segments]
        for incident in touching.values():
            for i in incident:
                for j in incident:
                    if i != j:
                        neighbor_sets[i].add(j)
        return tuple(tuple(sorted(s)) for s in neighbor_sets)

    @cached_property
    def mean_operator(self) -> np.ndarray:
        """The (N, N) segment neighbor-mean matrix of ``neighbors``; built on first use, read-only."""
        out = mean_aggregation_matrix(self.neighbors)
        out.setflags(write=False)
        return out

    def node_volumes(self, record: VolumeRecord) -> np.ndarray:
        """(nodes, 4) the record's counter volumes by node row; zero where no counter, or no data in the record."""
        out = np.zeros((len(self.nodes), 4), dtype=np.float64)
        for node_id, vec in record.volumes.items():
            out[self.node_index[node_id]] = vec
        return out


@dataclass(frozen=True)
class VolumeRecord:
    """One model input: per-counter volumes over four 15-minute bins.

    Counters absent from ``volumes`` are semantically zero.
    """

    record_id: str
    day: date
    t_index: int
    volumes: dict[str, tuple[int, int, int, int]]


@dataclass(frozen=True)
class SegmentLabel:
    cc: int | None = None
    speed_kph: float | None = None
    vol_class: int | None = None


@dataclass(frozen=True, eq=False)
class LabelTable:
    """Every labelled record's labels as three (records, segments) columns.

    Row r holds the labels of ``record_ids[r]`` (in ``labels.jsonl`` order),
    column j those of ``segment_ids[j]`` (every segment, in graph order), as
    in the Apache Arrow columnar layout with a sentinel for a missing value:
    ``cc`` and ``vol_class`` are int8 with -1 for no label, ``speed_kph`` is
    float64 with NaN for no label. The arrays are read-only; a row reads as a ``LabelBundle``.
    """

    record_ids: tuple[str, ...]
    segment_ids: tuple[str, ...]
    cc: np.ndarray  # (R, S) int8
    speed_kph: np.ndarray  # (R, S) float64
    vol_class: np.ndarray  # (R, S) int8

    def __post_init__(self):
        if len(set(self.segment_ids)) != len(self.segment_ids):
            raise ValueError("label table with a repeated segment id")
        shape = (len(self.record_ids), len(self.segment_ids))
        for column, dtype in zip((self.cc, self.speed_kph, self.vol_class), (np.int8, np.float64, np.int8)):
            if (column.shape, column.dtype) != (shape, dtype):
                raise ValueError(f"label column of {column.dtype} {column.shape} for {shape[0]} by {shape[1]} labels")
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.record_ids)

    def __getitem__(self, row: int) -> LabelBundle:
        row = range(len(self))[row]  # an IndexError past the end also ends iteration
        return LabelBundle(self, row, self.record_ids[row])

    @cached_property
    def rows(self) -> dict[str, int]:  # record id -> row
        return {record_id: row for row, record_id in enumerate(self.record_ids)}

    def select(self, record_ids: Iterable[str]) -> LabelTable:
        """The rows of those records that have labels, in the order given."""
        rows = [self.rows[rid] for rid in record_ids if rid in self.rows]
        return LabelTable(
            tuple(self.record_ids[row] for row in rows), self.segment_ids,
            self.cc[rows], self.speed_kph[rows], self.vol_class[rows],
        )

    def labelled(self, row: int) -> Iterator[tuple[str, int | None, float | None, int | None]]:
        """(segment id, cc, speed_kph, vol_class) of each segment with a label in ``row``, in graph order."""
        columns = zip(self.segment_ids, self.cc[row].tolist(), self.speed_kph[row].tolist(), self.vol_class[row].tolist())
        for seg_id, cc, speed, vol in columns:
            if cc >= 0 or speed == speed or vol >= 0:  # NaN != NaN
                yield seg_id, (cc if cc >= 0 else None), (speed if speed == speed else None), (vol if vol >= 0 else None)


@dataclass(frozen=True, eq=False)
class LabelBundle:
    """One record's labels: a read-only view of one row of a ``LabelTable``."""

    table: LabelTable
    row: int
    record_id: str

    @cached_property
    def edges(self) -> Mapping[str, SegmentLabel]:
        """Segment id -> label, for the segments with a label, in graph order."""
        return MappingProxyType({seg_id: SegmentLabel(*values) for seg_id, *values in self.table.labelled(self.row)})


def _label_table(record_ids, segment_ids, rows: list[tuple[list, list, list]]) -> LabelTable:
    shape = (len(record_ids), len(segment_ids))
    columns = (np.array([row[k] for row in rows], dtype=t).reshape(shape) for k, t in enumerate((np.int8, float, np.int8)))
    return LabelTable(tuple(record_ids), tuple(segment_ids), *columns)


@dataclass(frozen=True)
class SuperSegment:
    ss_id: str
    path: tuple[str, ...]
    etas: dict[str, float]  # record_id -> seconds


class Dataset(NamedTuple):
    graph: RoadGraph
    records: tuple[VolumeRecord, ...]
    labels: LabelTable
    supersegments: tuple[SuperSegment, ...]


def labels_by_record(labels: Iterable[LabelBundle]) -> dict[str, LabelBundle]:
    return {bundle.record_id: bundle for bundle in labels}


# ---------------------------------------------------------------------------
# loading


def _require_file(dir_path: Path, name: str) -> Path:
    path = dir_path / name
    if not path.is_file():
        raise FileNotFoundError(f"missing dataset file: {path}")
    return path


def _parse_int(raw, path, line, fieldname) -> int:
    try:
        value = int(raw)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(path, line, fieldname, f"expected an integer, got {raw!r}") from None
    return value


def _parse_float(raw, path, line, fieldname) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(path, line, fieldname, f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise SchemaError(path, line, fieldname, f"expected a finite number, got {raw!r}")
    return value


_SCALARS = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false", dict: "an object"}
type_hints = cache(get_type_hints)  # a dataclass's field types, looked up once


def read_json(kind, value, where: str = ""):
    """``value`` unchanged if it is a parsed JSON value of type ``kind``; else a ValueError naming its JSON path.

    ``int`` takes an integer (not ``true``), ``float`` a finite number, ``str`` a string, ``bool`` true or false,
    ``dict`` any object, ``X | None`` also null, ``tuple[X, ...]`` a list and ``tuple[X, Y]`` a list of two,
    ``dict[str, X]`` an object, ``np.ndarray`` a list (or nested lists) of finite numbers, and a dataclass an
    object of its fields, each read by its type hint and required unless it has a default. ``where`` is the
    JSON path of ``value``, such as ``model.volume_hidden[0]``.
    """
    at, key = (f"{where}: ", f"{where}.") if where else ("", "")
    if kind in _SCALARS:  # a float also takes an int that a float holds; abs(NaN) is not <= anything
        if type(value) is kind or kind is float and type(value) is int:
            if kind is not float or abs(value) <= sys.float_info.max:
                return value
        raise ValueError(f"{at}expected {_SCALARS[kind]}, got {reprlib.repr(value)}")
    origin, args = get_origin(kind), get_args(kind)
    if origin in (Union, UnionType):  # X | None
        return value if value is None else read_json(next(a for a in args if a is not type(None)), value, where)
    if origin is dict or is_dataclass(kind):
        if type(value) is not dict:
            raise ValueError(f"{at}expected an object, got {reprlib.repr(value)}")
        if origin is dict:
            for name, item in value.items():
                read_json(args[1], item, key + name)
            return value
        hints = type_hints(kind)
        for f in fields(kind):
            if f.name in value:
                read_json(hints[f.name], value[f.name], key + f.name)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"missing key {key + f.name!r}")
        unknown = [name for name in value if name not in hints]
        if unknown:
            raise ValueError(f"unknown key {key + unknown[0]!r}")
        return value
    fixed = bool(args) and args[-1] is not ...  # a tuple of fixed length; np.ndarray has no args
    if type(value) is not list or fixed and len(value) != len(args):
        raise ValueError(f"{at}expected a list{f' of {len(args)}' if fixed else ''}, got {reprlib.repr(value)}")
    if args == (str, ...) and all(type(item) is str for item in value):  # ids: one pass, no call per item
        return value
    for i, item in enumerate(value):
        if args:
            read_json(args[i] if fixed else args[0], item, f"{where}[{i}]")
        else:  # an array's numbers, or its rows
            read_json(np.ndarray if type(item) is list else float, item, f"{where}[{i}]")
    return value


def parse_json(text: str):
    """``json.loads(text)``; a value nested too deeply to parse, or an integer longer than ``int()`` takes, raises
    ``json.JSONDecodeError`` (not RecursionError or a plain ValueError), so that each loader names its file and line."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # int() refused an integer literal of more digits than sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        found = re.search(r"(?<![\d.eE+])(?<![eE]-)\d{%d,}(?![\d.eE])" % (limit + 1), text)  # not a float's part
        position = found.start() if found else 0
        raise json.JSONDecodeError(f"an integer of more than {limit} digits", text, position) from None


# A binary container: a 4-byte magic, a little-endian uint32 format version, a little-endian uint64 header length,
# the JSON header (sorted keys, no spaces), then the payload.


def pack_container(magic: bytes, version: int, header, payload: Iterable[bytes]) -> bytes:
    """The container's bytes; the same arguments always give the same bytes."""
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"".join([magic, version.to_bytes(4, "little"), len(head).to_bytes(8, "little"), head, *payload])


def unpack_container(raw: bytes, magic: bytes, version: int, kind: str) -> tuple[object, memoryview]:
    """The parsed header and the payload of a ``pack_container`` container. One that is cut, has another magic or
    version, or whose header is not UTF-8 JSON, raises ValueError naming ``kind``."""
    if raw[:4] != magic:
        raise ValueError(f"not a {kind} file (bad magic)")
    if len(raw) < 16:
        raise ValueError(f"truncated {kind}: {len(raw)} bytes, the preamble alone is 16")
    found = int.from_bytes(raw[4:8], "little")
    if found != version:
        raise ValueError(f"unsupported {kind} version {found}")
    end = 16 + int.from_bytes(raw[8:16], "little")
    if len(raw) < end:
        raise ValueError(f"truncated {kind}: header has {len(raw) - 16} of {end - 16} bytes")
    try:
        header = parse_json(str(raw[16:end], "utf-8"))
    except ValueError as exc:  # not UTF-8 or JSON
        raise ValueError(f"damaged {kind} header: {exc}") from None
    return header, memoryview(raw)[end:]


@dataclass(frozen=True)
class _TableHeader:  # the ids of a binary copy's (records, segments) blocks
    record_ids: tuple[str, ...]
    segment_ids: tuple[str, ...]


_COPY_CHUNK = 1 << 16  # bytes a read compares at a time between a JSONL and its binary copy's tail


def _write_with_copy(path: Path, chunks: Iterable[bytes], kind: tuple[bytes, int], header, payload) -> None:
    """Write ``chunks`` to ``path`` and to ``<path>.bin``, there after the container and the container's SHA-256."""
    body = pack_container(*kind, header, payload)
    with open(path, "wb") as fh, open(path.with_name(path.name + ".bin"), "wb") as copy:
        copy.write(body)
        copy.write(hashlib.sha256(body).digest())
        for chunk in chunks:
            fh.write(chunk)
            copy.write(chunk)


def _same_tail(fh, copy) -> bool:
    """Whether the open files ``fh`` and ``copy`` hold the same bytes from their positions to their ends."""
    while True:
        chunk = fh.read(_COPY_CHUNK)
        if chunk != copy.read(_COPY_CHUNK):  # bytes ==: a memcmp, where memoryview == compares item by item
            return False
        if not chunk:
            return True


def _read_copy(path: Path, kind: tuple[bytes, int], header_type) -> tuple[dict | None, memoryview]:
    """``<path>.bin``'s header and payload if its container is whole and of ``header_type``, and the rest of the copy is
    the container's SHA-256 and then exactly the bytes of ``path``; else no header. Of the two files only the container
    is read whole."""
    try:  # unbuffered: each chunk is one read into its own bytes; a short read only makes the chunks differ
        with open(path, "rb", buffering=0) as fh, open(path.with_name(path.name + ".bin"), "rb", buffering=0) as copy:
            end = os.fstat(copy.fileno()).st_size - os.fstat(fh.fileno()).st_size - 32  # the container's length
            if end >= 16:  # a container's preamble alone is 16 bytes
                body = copy.read(end)
                if hashlib.sha256(body).digest() == copy.read(32) and _same_tail(fh, copy):
                    header, payload = unpack_container(body, *kind, "binary copy")
                    return read_json(header_type, header), payload
    except (OSError, ValueError):  # absent or damaged
        pass
    return None, memoryview(b"")


def _field(kind, raw, path, line, fieldname, valid: tuple = (), minimum: float | None = None):
    """``raw`` read as ``kind`` by ``read_json``, one of ``valid`` and at least ``minimum`` where given;
    anything else raises a SchemaError naming the file, line and field."""
    try:
        value = read_json(kind, raw)
    except ValueError as exc:
        raise SchemaError(path, line, fieldname, str(exc)) from None
    if valid and value not in valid:
        raise SchemaError(path, line, fieldname, f"must be one of {valid}, got {value}")
    if minimum is not None and value < minimum:
        raise SchemaError(path, line, fieldname, f"must be >= {minimum:g}, got {value}")
    return value


_SURROGATE = re.compile("[\ud800-\udfff]")  # the code points that UTF-8 cannot encode


def _new_id(raw, path, line, fieldname) -> str:
    """``raw`` read as an id the dataset introduces: a string that UTF-8 can encode, since the stages write their
    outputs as UTF-8; anything else raises a SchemaError naming the file, line and field."""
    value = _field(str, raw, path, line, fieldname)
    if _SURROGATE.search(value):
        raise SchemaError(path, line, fieldname, f"{value!r} holds a lone surrogate, which UTF-8 cannot encode")
    return value


def _read_text(path: Path, as_json: bool = False):
    """The file's text, or with ``as_json`` its parsed JSON; a byte that is not UTF-8, or text that is not JSON,
    raises a SchemaError naming the file and the line."""
    data = path.read_bytes()
    try:
        return parse_json(data.decode("utf-8")) if as_json else data.decode("utf-8")
    except UnicodeDecodeError as exc:  # the line and byte within it, as _jsonl_objects names them
        line, byte = data.count(b"\n", 0, exc.start) + 1, exc.start - data.rfind(b"\n", 0, exc.start) - 1
        raise SchemaError(path, line, None, f"invalid UTF-8 at byte {byte}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(path, exc.lineno, None, f"invalid JSON: {exc.msg}") from None


def _load_meta(path: Path) -> dict:
    meta = _read_text(path, as_json=True)
    _field(dict, meta, path, None, None)
    for key, expected in (("format_version", FORMAT_VERSION), ("num_day_slots", NUM_DAY_SLOTS)):
        _field(int, meta.get(key), path, None, key, valid=(expected,))
    return meta


def _load_nodes(path: Path) -> tuple[NodeRec, ...]:
    nodes: list[NodeRec] = []
    seen: set[str] = set()
    with io.StringIO(_read_text(path), newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != NODE_COLUMNS:
            raise SchemaError(path, 1, None, f"expected header {NODE_COLUMNS}, got {reader.fieldnames}")
        for row in reader:
            line = reader.line_num
            node_id = (row["node_id"] or "").strip()
            if not node_id:
                raise SchemaError(path, line, "node_id", "must not be empty")
            if node_id in seen:
                raise SchemaError(path, line, "node_id", f"duplicate node id {node_id!r}")
            seen.add(node_id)
            lat = _parse_float(row["lat"], path, line, "lat")
            lon = _parse_float(row["lon"], path, line, "lon")
            counter_id = (row["counter_id"] or "").strip() or None
            nodes.append(NodeRec(node_id, lat, lon, counter_id))
    return tuple(nodes)


def _load_edges(path: Path, node_ids: set[str]) -> tuple[tuple[SegmentRec, ...], tuple[tuple[str, str], ...]]:
    rows: list[dict] = []
    seen: set[str] = set()
    missing: dict[str, list[int]] = {name: [] for name in CONTINUOUS_FIELDS}
    with io.StringIO(_read_text(path), newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != EDGE_COLUMNS:
            raise SchemaError(path, 1, None, f"expected header {EDGE_COLUMNS}, got {reader.fieldnames}")
        for row in reader:
            line = reader.line_num
            seg_id = (row["segment_id"] or "").strip()
            if not seg_id:
                raise SchemaError(path, line, "segment_id", "must not be empty")
            if seg_id in seen:
                raise SchemaError(path, line, "segment_id", f"duplicate segment id {seg_id!r}")
            seen.add(seg_id)
            for endpoint in ("tail_node", "head_node"):
                ref = (row[endpoint] or "").strip()
                if ref not in node_ids:
                    raise DanglingReferenceError(path, line, endpoint, f"unknown node {ref!r}")
            importance = _parse_int(row["importance"], path, line, "importance")
            if not 0 <= importance <= 5:
                raise SchemaError(path, line, "importance", f"must be in 0..5, got {importance}")
            oneway = _parse_int(row["oneway"], path, line, "oneway")
            tunnel = _parse_int(row["tunnel"], path, line, "tunnel")
            for name, value in (("oneway", oneway), ("tunnel", tunnel)):
                if value not in (0, 1):
                    raise SchemaError(path, line, name, f"must be 0 or 1, got {value}")
            lanes_raw = _parse_int(row["lanes"], path, line, "lanes")
            if lanes_raw < 1:
                raise SchemaError(path, line, "lanes", f"must be >= 1, got {lanes_raw}")
            parsed = dict(
                segment_id=seg_id,
                tail_node=row["tail_node"].strip(),
                head_node=row["head_node"].strip(),
                importance=importance,
                oneway=oneway,
                tunnel=tunnel,
                lanes=min(lanes_raw, 4),
            )
            for name in CONTINUOUS_FIELDS:
                raw = (row[name] or "").strip()
                if raw == "":
                    missing[name].append(len(rows))
                    parsed[name] = None
                else:
                    parsed[name] = _parse_float(raw, path, line, name)
            parsed["_line"] = line
            rows.append(parsed)

    imputed: list[tuple[str, str]] = []
    for name, holes in missing.items():
        if not holes:
            continue
        present = [r[name] for r in rows if r[name] is not None]
        if not present:
            raise SchemaError(path, None, name, "missing in every row; cannot impute")
        median = float(np.median(present))
        for i in holes:
            rows[i][name] = median
            imputed.append((rows[i]["segment_id"], name))

    segments: list[SegmentRec] = []
    for r in rows:
        line = r.pop("_line")
        if r["length_meters"] <= 0:
            raise SchemaError(path, line, "length_meters", f"must be > 0, got {r['length_meters']}")
        for name in ("parsed_maxspeed", "flow_speed", "limit_speed", "counter_distance"):
            if r[name] < 0:
                raise SchemaError(path, line, name, f"must be >= 0, got {r[name]}")
        segments.append(SegmentRec(**r))
    return tuple(segments), tuple(imputed)


def _jsonl_objects(path: Path, data: bytes):
    """(line number, object) for every non-blank line of ``data``, the bytes of the JSON-lines file ``path``.

    Lines split at LF only, so a stray CR cannot shift the line numbers.
    """
    for line_no, raw in enumerate(data.split(b"\n"), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(path, line_no, None, f"invalid UTF-8 at byte {exc.start}") from None
        if not line.strip():
            continue
        try:
            obj = parse_json(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(path, line_no, None, f"invalid JSON: {exc.msg}") from None
        yield line_no, _field(dict, obj, path, line_no, None)


def _load_volumes(path: Path, counters: dict[str, str], node_ids: set[str]) -> tuple[VolumeRecord, ...]:
    records: list[VolumeRecord] = []
    seen: set[str] = set()
    for line_no, obj in _jsonl_objects(path, path.read_bytes()):
        for key in ("record_id", "day", "t_index", "volumes"):
            if key not in obj:
                raise SchemaError(path, line_no, key, "required key missing")
        record_id = _new_id(obj["record_id"], path, line_no, "record_id")
        if record_id in seen:
            raise SchemaError(path, line_no, "record_id", f"duplicate record id {record_id!r}")
        seen.add(record_id)
        try:
            day = date.fromisoformat(_field(str, obj["day"], path, line_no, "day"))
        except ValueError:
            raise SchemaError(path, line_no, "day", f"expected YYYY-MM-DD, got {obj['day']!r}") from None
        t_index = _field(int, obj["t_index"], path, line_no, "t_index")
        if not 0 <= t_index < NUM_DAY_SLOTS:
            raise SchemaError(path, line_no, "t_index", f"must be in 0..95, got {t_index}")
        volumes: dict[str, tuple[int, int, int, int]] = {}
        for node_id, vec in _field(dict, obj["volumes"], path, line_no, "volumes").items():
            if node_id not in node_ids:
                raise DanglingReferenceError(path, line_no, "volumes", f"unknown node {node_id!r}")
            if node_id not in counters:
                raise SchemaError(path, line_no, "volumes", f"node {node_id!r} has no counter")
            # a valid vector passes the inline test; any other goes to the reader that names its fault
            if not (type(vec) is list and len(vec) == 4 and all(type(v) is int and 0 <= v <= 1e308 for v in vec)):
                _field(dict[str, tuple[int, ...]], {node_id: vec}, path, line_no, "volumes")  # names the node
                message = f"volume vector for {node_id!r} must have exactly 4 bins (one hour) of counts in 0..1e308"
                raise SchemaError(path, line_no, "volumes", f"{message}, got {vec!r}")
            volumes[node_id] = tuple(vec)
        records.append(VolumeRecord(record_id, day, t_index, volumes))
    return tuple(records)


_LABELS_COPY = (b"T4CL", 2)  # magic, version


def _labels_copy(path: Path, record_ids: set[str], segment_ids: Sequence[str]) -> LabelTable | None:
    """The table of ``labels.jsonl``'s copy if it holds what the parse of the file gives, else None: the graph's
    segment ids in order, distinct records of ``volumes.jsonl``, 10 bytes a cell and only values the parse takes."""
    header, payload = _read_copy(path, _LABELS_COPY, _TableHeader)
    if header is None:
        return None
    ids, cells = header["record_ids"], len(header["record_ids"]) * len(segment_ids)
    if header["segment_ids"] != list(segment_ids) or len(set(ids)) != len(ids) or not record_ids.issuperset(ids) \
            or len(payload) != 10 * cells:  # cc int8, speed_kph float64, vol_class int8
        return None
    cc, vol = np.frombuffer(payload, np.int8, cells), np.frombuffer(payload, np.int8, cells, 9 * cells)
    speed = np.frombuffer(payload, "<f8", cells, cells)  # NaN (no label) checks as a valid 0, an infinity as -1
    if not (((cc >= -1) & (cc <= 3)).all() and np.isin(vol, (-1, *VALID_VOL_CLASS)).all()
            and (np.nan_to_num(speed, nan=0.0, posinf=-1, neginf=-1) >= 0).all()):
        return None
    return _label_table(ids, segment_ids, [(cc, speed, vol)])


def _load_labels(path: Path, record_ids: set[str], segment_ids: Sequence[str]) -> LabelTable:
    table = _labels_copy(path, record_ids, segment_ids)
    if table is not None:
        return table
    data = path.read_bytes()
    column = {seg_id: j for j, seg_id in enumerate(segment_ids)}
    width = len(segment_ids)
    rows: dict[str, tuple[list, list, list]] = {}
    for line_no, obj in _jsonl_objects(path, data):
        record_id = _field(str, obj.get("record_id"), path, line_no, "record_id")
        if record_id not in record_ids:
            raise DanglingReferenceError(path, line_no, "record_id", f"unknown record {record_id!r}")
        if record_id in rows:
            raise SchemaError(path, line_no, "record_id", f"duplicate label bundle for {record_id!r}")
        edges_obj = _field(dict, obj.get("edges"), path, line_no, "edges")
        cc_row, speed_row, vol_row = rows[record_id] = [-1] * width, [math.nan] * width, [-1] * width  # no labels yet
        at = (path, line_no)
        for seg_id, lab in edges_obj.items():
            j = column.get(seg_id)
            if j is None:
                raise DanglingReferenceError(path, line_no, "edges", f"unknown segment {seg_id!r}")
            if type(lab) is not dict:
                _field(dict[str, dict], {seg_id: lab}, path, line_no, "edges")  # names the segment
            # a valid value passes the inline test; any other goes to the reader that names its fault
            cc, speed, vol = lab.get("cc"), lab.get("speed_kph"), lab.get("vol_class")
            if cc is not None:
                cc_row[j] = cc if type(cc) is int and cc in VALID_CC else _field(int, cc, *at, "cc", VALID_CC)
            if speed is not None:
                ok = type(speed) is float and 0.0 <= speed < math.inf
                speed_row[j] = speed if ok else _field(float, speed, *at, "speed_kph", minimum=0.0)
            if vol is not None:
                ok = type(vol) is int and vol in VALID_VOL_CLASS
                vol_row[j] = vol if ok else _field(int, vol, *at, "vol_class", VALID_VOL_CLASS)
    return _label_table(rows, segment_ids, list(rows.values()))


def _load_supersegments(
    path: Path, record_ids: set[str], segments: Sequence[SegmentRec]
) -> tuple[SuperSegment, ...]:
    seg_by_id = {s.segment_id: s for s in segments}
    obj = _read_text(path, as_json=True)
    if "paths" not in _field(dict, obj, path, None, None) or "etas" not in obj:
        raise SchemaError(path, None, None, 'expected {"paths": ..., "etas": ...}')
    paths: dict[str, tuple[str, ...]] = {}
    for ss_id, raw_path in _field(dict[str, tuple[str, ...]], obj["paths"], path, None, "paths").items():
        _new_id(ss_id, path, None, "paths")
        if not raw_path:
            raise SchemaError(path, None, "paths", f"path for {ss_id!r} must be a non-empty list")
        for seg_id in raw_path:
            if seg_id not in seg_by_id:
                raise DanglingReferenceError(path, None, "paths", f"unknown segment {seg_id!r}")
        for a, b in zip(raw_path, raw_path[1:]):
            if seg_by_id[a].head_node != seg_by_id[b].tail_node:
                raise SchemaError(path, None, "paths", f"supersegment {ss_id!r}: {a!r} -> {b!r} is not chainable")
        paths[ss_id] = tuple(raw_path)
    etas: dict[str, dict[str, float]] = {ss_id: {} for ss_id in paths}
    for entry in _field(tuple[dict, ...], obj["etas"], path, None, "etas"):
        record_id = _field(str, entry.get("record_id"), path, None, "record_id")
        ss_id = _field(str, entry.get("ss_id"), path, None, "ss_id")
        if record_id not in record_ids:
            raise DanglingReferenceError(path, None, "etas", f"unknown record {record_id!r}")
        if ss_id not in paths:
            raise DanglingReferenceError(path, None, "etas", f"unknown supersegment {ss_id!r}")
        eta = float(_field(float, entry.get("eta_s"), path, None, "eta_s"))
        if eta <= 0:
            raise SchemaError(path, None, "eta_s", f"must be > 0, got {eta}")
        if record_id in etas[ss_id]:
            raise SchemaError(path, None, "etas", f"duplicate eta for ({record_id!r}, {ss_id!r})")
        etas[ss_id][record_id] = eta
    return tuple(SuperSegment(ss_id, paths[ss_id], etas[ss_id]) for ss_id in paths)


def load_dataset(dir_path) -> Dataset:
    """Load and validate a canonical dataset directory."""
    dir_path = Path(dir_path)
    meta_path = _require_file(dir_path, "meta.json")
    nodes_path = _require_file(dir_path, "nodes.csv")
    edges_path = _require_file(dir_path, "edges.csv")
    volumes_path = _require_file(dir_path, "volumes.jsonl")
    labels_path = _require_file(dir_path, "labels.jsonl")
    ss_path = _require_file(dir_path, "supersegments.json")

    _load_meta(meta_path)
    nodes = _load_nodes(nodes_path)
    node_ids = {n.node_id for n in nodes}
    segments, imputed = _load_edges(edges_path, node_ids)
    graph = RoadGraph(nodes=nodes, segments=segments, imputed=imputed)
    records = _load_volumes(volumes_path, graph.counters, node_ids)
    record_ids = {r.record_id for r in records}
    labels = _load_labels(labels_path, record_ids, graph.segment_ids)
    supersegments = _load_supersegments(ss_path, record_ids, segments)
    return Dataset(graph, records, labels, supersegments)


# ---------------------------------------------------------------------------
# writing


def _fmt(value) -> str:
    # repr of a float round-trips exactly; ints stay ints; None is an empty cell
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def _json_speed(speed: float) -> str:
    """``json.dumps`` of a ``speed_kph`` cell, with NaN (no label) as null."""
    if speed != speed:
        return "null"
    return repr(speed) if -math.inf < speed < math.inf else json.dumps(speed)


def _label_lines(labels: LabelTable) -> Iterator[str]:
    """The ``labels.jsonl`` line of each row, formatted from the columns.

    Each is the bytes of ``json.dumps({"record_id": ..., "edges": {...}},
    sort_keys=True, separators=(",", ":"))`` over ``labels.labelled(row)``.
    """
    order = sorted(range(len(labels.segment_ids)), key=labels.segment_ids.__getitem__)
    keys = [json.dumps(labels.segment_ids[j]) + ':{"cc":' for j in order]
    columns = (labels.cc[:, order].tolist(), labels.speed_kph[:, order].tolist(), labels.vol_class[:, order].tolist())
    for record_id, *row in zip(labels.record_ids, *columns):
        edges = ",".join(
            f'{key}{cc if cc >= 0 else "null"},"speed_kph":{_json_speed(speed)},"vol_class":{vol if vol >= 0 else "null"}}}'
            for key, cc, speed, vol in zip(keys, *row)
            if cc >= 0 or speed == speed or vol >= 0  # NaN != NaN
        )
        yield f'{{"edges":{{{edges}}},"record_id":{json.dumps(record_id)}}}\n'


def write_json(path, obj) -> None:
    """Write ``obj`` as key-sorted JSON indented by 2, with a final newline, in UTF-8: every JSON artifact's form."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def csv_text(rows) -> str:
    """``rows`` as CSV lines that end in "\\n". The csv module quotes a field only for the characters of that
    line end, so a row with a carriage return in a text field (read back as a line break) is quoted whole."""
    buf = io.StringIO()
    plain, quoted = (csv.writer(buf, lineterminator="\n", quoting=q) for q in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL))
    for row in rows:
        (quoted if any("\r" in v for v in row if isinstance(v, str)) else plain).writerow(row)
    return buf.getvalue()


def write_dataset(dataset: Dataset, dir_path, city_name: str = "city") -> Path:
    """Write a dataset to a canonical directory; bytes are deterministic. An id that UTF-8 cannot encode raises
    ValueError naming it, before any file is written."""
    graph, records, labels, supersegments = dataset
    ids = [*labels.record_ids, *labels.segment_ids]
    for n in graph.nodes:
        ids += n.node_id, n.counter_id or ""
    for s in graph.segments:
        ids += s.segment_id, s.tail_node, s.head_node
    for r in records:
        ids += r.record_id, *r.volumes
    for ss in supersegments:
        ids += ss.ss_id, *ss.path, *ss.etas
    bad = next(filter(_SURROGATE.search, ids), None)
    if bad is not None:
        raise ValueError(f"write_dataset: the id {bad!r} holds a lone surrogate, which UTF-8 cannot encode")
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)

    meta = {"format_version": FORMAT_VERSION, "city_name": city_name, "num_day_slots": NUM_DAY_SLOTS}
    write_json(dir_path / "meta.json", meta)

    for name, columns, rows in (("nodes.csv", NODE_COLUMNS, graph.nodes), ("edges.csv", EDGE_COLUMNS, graph.segments)):
        cells = [[_fmt(getattr(row, column)) for column in columns] for row in rows]
        (dir_path / name).write_text(csv_text([columns, *cells]), encoding="utf-8")

    with open(dir_path / "volumes.jsonl", "w", encoding="utf-8") as fh:
        for r in records:
            obj = {
                "record_id": r.record_id,
                "day": r.day.isoformat(),
                "t_index": r.t_index,
                "volumes": {k: list(r.volumes[k]) for k in sorted(r.volumes)},
            }
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")

    header = asdict(_TableHeader(labels.record_ids, labels.segment_ids))
    payload = [labels.cc.tobytes(), np.asarray(labels.speed_kph, "<f8").tobytes(), labels.vol_class.tobytes()]
    _write_with_copy(dir_path / "labels.jsonl", map(str.encode, _label_lines(labels)), _LABELS_COPY, header, payload)

    ss_obj = {
        "paths": {ss.ss_id: list(ss.path) for ss in supersegments},
        "etas": [
            {"record_id": rid, "ss_id": ss.ss_id, "eta_s": ss.etas[rid]}
            for ss in supersegments
            for rid in sorted(ss.etas)
        ],
    }
    write_json(dir_path / "supersegments.json", ss_obj)
    return dir_path


# ---------------------------------------------------------------------------
# predictions files


class PredictionError(ValueError):
    """One record's predictions cannot be scored; ``record_id`` names the record."""

    def __init__(self, message: str, record_id: str):
        super().__init__(message)
        self.record_id = record_id


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

    @classmethod
    def from_mappings(cls, cc: Mapping, etas: Mapping[tuple[str, str], float],
                      segment_ids: Sequence[str]) -> PredictionTable:
        """The table of predictions held in mappings, NaN where they hold none.

        ``cc`` maps record_id to a segment_id -> 3-vector mapping; ``etas`` maps (record_id, ss_id) to seconds. A row's
        vectors are read in one array pass when they are all lists of three floats or all float arrays of three, and
        finite; any other row goes vector by vector through ``_checked_cc``, which names the record and segment of the
        first it refuses. Ids are listed as first seen, ``segment_ids`` first.
        """
        seg_col = dict(zip(segment_ids, range(len(segment_ids))))
        for preds in cc.values():
            for seg_id in preds:
                seg_col.setdefault(seg_id, len(seg_col))
        ss_col = dict(zip(dict.fromkeys(ss_id for _, ss_id in etas), range(len(etas))))
        row = {rid: k for k, rid in enumerate(dict.fromkeys([*cc, *(rid for rid, _ in etas)]))}
        table = cls(list(row), list(seg_col), list(ss_col), np.full((len(row), len(seg_col), 3), np.nan),
                    np.full((len(row), len(ss_col)), np.nan))
        for record_id, preds in cc.items():
            vectors = list(preds.values())
            # one test of a row of lists of three floats, as JSON gives, or of float arrays of three
            if (all(type(v) is list and len(v) == 3 and type(v[0]) is type(v[1]) is type(v[2]) is float for v in vectors)
                    or all(type(v) is np.ndarray and v.shape == (3,) and v.dtype.char in "efd" for v in vectors)):
                vectors = np.array(vectors).reshape(len(vectors), 3)
            if not (isinstance(vectors, np.ndarray) and np.isfinite(vectors).all()):  # any other row is read by vector
                vectors = [_checked_cc(value, record_id, seg_id) for seg_id, value in preds.items()]
            table.cc[row[record_id], [seg_col[seg_id] for seg_id in preds]] = vectors
        at = [row[rid] for rid, _ in etas], [ss_col[ss_id] for _, ss_id in etas]
        table.etas[at] = np.fromiter(etas.values(), np.float64, len(etas))
        return table


_PREDICTIONS_COPY = (b"T4CP", 2)  # magic, version
_PRODUCE_PREDICTIONS = "produce it with `t4c predict` (or `t4c baseline <name>`)"


@dataclass(frozen=True)
class _PredictionsHeader(_TableHeader):
    supersegment_ids: tuple[str, ...]


@dataclass(frozen=True)
class _PredictionRow:  # a predictions line; ``PredictionTable.from_mappings`` reads each segment entry's "cc"
    record_id: str
    segments: dict[str, dict] = field(default_factory=dict)
    etas: dict[str, float] = field(default_factory=dict)


def _prediction_lines(table: PredictionTable) -> Iterator[str]:
    """Each record's line, formatted from the blocks, whose ids are sorted: the bytes of ``json.dumps`` with
    ``sort_keys=True`` and ``separators=(",", ":")`` over the row dict. One template per table holds every key, each id
    escaped once; a record fills it with its values, whose ``%s`` is ``float.__repr__``, as ``json.dumps`` writes a
    finite float."""
    speed, vol = ("%s" if table.speed is not None else "null"), ("[%s,%s,%s]" if table.vol is not None else "null")
    entry = f':{{"cc":[%s,%s,%s],"speed":{speed},"vol":{vol}}}'
    template = "".join([
        '{"etas":{', ",".join(json.dumps(ss_id).replace("%", "%%") + ":%s" for ss_id in table.supersegment_ids),
        '},"record_id":%s,"segments":{', ",".join(json.dumps(seg_id).replace("%", "%%") + entry
                                                  for seg_id in table.segment_ids), "}}\n",
    ])
    segments = np.concatenate([b if b.ndim == 3 else b[..., None] for b in (table.cc, table.speed, table.vol)
                               if b is not None], axis=2)
    values = np.concatenate([table.etas, segments.reshape(segments.shape[0], segments.shape[1] * segments.shape[2])], axis=1)
    rows = values.tolist()
    if not np.isfinite(values).all():  # NaN, Infinity and -Infinity, as json.dumps names them
        rows = [list(map(json.dumps, row)) for row in rows]
    cut = len(table.supersegment_ids)
    for record_id, row in zip(table.record_ids, rows):
        yield template % (*row[:cut], json.dumps(record_id), *row[cut:])


def write_predictions(path, table: PredictionTable) -> None:
    """Write the JSONL, one record a line, and its binary copy, both from the table with its segment and super-segment
    ids sorted, as the JSONL's keys are: either read route then gives one table."""
    seg = sorted(range(len(table.segment_ids)), key=table.segment_ids.__getitem__)
    ss = sorted(range(len(table.supersegment_ids)), key=table.supersegment_ids.__getitem__)
    table = table._replace(segment_ids=[table.segment_ids[j] for j in seg], cc=table.cc[:, seg],
                           supersegment_ids=[table.supersegment_ids[i] for i in ss], etas=table.etas[:, ss],
                           speed=None if table.speed is None else table.speed[:, seg],
                           vol=None if table.vol is None else table.vol[:, seg])
    header = asdict(_PredictionsHeader(table.record_ids, table.segment_ids, table.supersegment_ids))
    payload = [np.asarray(block, "<f8").tobytes() for block in (table.cc, table.etas)]
    _write_with_copy(Path(path), map(str.encode, _prediction_lines(table)), _PREDICTIONS_COPY, header, payload)


def _predictions_copy(path: Path) -> PredictionTable | None:
    """``read_predictions``' table for the JSONL ``path``, record k on line k + 1, from its binary copy; or None unless
    that copy is whole, ends in exactly the JSONL's bytes, names each record once and holds only finite numbers."""
    header, payload = _read_copy(path, _PREDICTIONS_COPY, _PredictionsHeader)
    if header is None:
        return None
    ids, seg_ids, ss_ids = header["record_ids"], header["segment_ids"], header["supersegment_ids"]
    if len(payload) != 8 * len(ids) * (3 * len(seg_ids) + len(ss_ids)) or len(set(ids)) != len(ids):
        return None
    values = np.frombuffer(payload, "<f8")
    if not np.isfinite(values).all():  # the JSONL's parse names the fault
        return None
    cc = values[: 3 * len(ids) * len(seg_ids)].reshape(len(ids), len(seg_ids), 3)
    return PredictionTable(ids, seg_ids, ss_ids, cc, values[cc.size :].reshape(len(ids), len(ss_ids)))


def read_predictions(path) -> PredictionTable:
    """The file's table, its records in file order: from the file's binary copy when it matches the file, else parsed.
    Lines split at LF only. A line that is not a ``_PredictionRow`` or that repeats a record is refused by line, then
    one whose ``cc`` on a segment is neither null nor three finite numbers; a value a line lacks is NaN. A refusal is a
    ValueError naming ``path:line`` and the stages that write the file."""
    path = Path(path)
    table = _predictions_copy(path)
    if table is not None:
        return table
    data = path.read_bytes()
    lines, cc, etas = {}, {}, {}  # record id -> its line, record -> segment -> cc and (record, ss) -> ETA
    try:
        for line_no, obj in _jsonl_objects(path, data):
            row = _field(_PredictionRow, obj, path, line_no, None)
            rid = row["record_id"]
            first = lines.setdefault(rid, line_no)
            if first != line_no:
                raise SchemaError(path, line_no, None, f"record {rid!r} is also on {path}:{first}")
            cc[rid] = {seg: e["cc"] for seg, e in row.get("segments", {}).items() if e.get("cc") is not None}
            etas.update(((rid, ss_id), eta) for ss_id, eta in row.get("etas", {}).items())
        return PredictionTable.from_mappings(cc, etas, ())
    except SchemaError as exc:
        raise ValueError(f"{exc}; {_PRODUCE_PREDICTIONS}") from None
    except PredictionError as exc:
        raise ValueError(f"{path}:{lines[exc.record_id]}: {exc}; {_PRODUCE_PREDICTIONS}") from None


def prediction_fault(path, table: PredictionTable, exc: PredictionError) -> ValueError:
    """The error for ``exc``, raised on the table ``read_predictions`` gave for ``path``: it names the line that holds
    the record (record k is on the file's (k + 1)-th line that is not blank) and the stages that write the file."""
    lines = [line_no for line_no, _ in _jsonl_objects(Path(path), Path(path).read_bytes())]
    return ValueError(f"{path}:{lines[list(table.record_ids).index(exc.record_id)]}: {exc}; {_PRODUCE_PREDICTIONS}")


# ---------------------------------------------------------------------------
# filtering and splitting


def daytime_filter(
    records: Sequence[VolumeRecord],
    start_slot: int = DAYTIME_SLOTS[0],
    end_slot: int = DAYTIME_SLOTS[1],
) -> tuple[VolumeRecord, ...]:
    """Keep records with start_slot <= t_index < end_slot, order preserved.

    The default window [24, 88) corresponds to 6:00-22:00.
    """
    if not (0 <= start_slot < end_slot <= NUM_DAY_SLOTS):
        raise ValueError(f"invalid slot bounds: ({start_slot}, {end_slot})")
    return tuple(r for r in records if start_slot <= r.t_index < end_slot)


def split_train_validation(
    records: Sequence[VolumeRecord], fraction: float, seed: int
) -> tuple[tuple[VolumeRecord, ...], tuple[VolumeRecord, ...]]:
    """Split whole days into train/validation by a seeded shuffle.

    All records of one day land on the same side, which avoids leakage
    between overlapping hours of a day. ``fraction`` is the train share.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if seed < 0:  # random.Random(-s) draws as random.Random(s)
        raise ValueError(f"seed must be >= 0, got {seed}")
    days = sorted({r.day for r in records})
    if len(days) < 2:
        raise ValueError(f"need at least 2 distinct days to split, got {len(days)}")
    shuffled = list(days)
    random.Random(seed).shuffle(shuffled)
    n_train = int(round(fraction * len(days)))
    n_train = min(max(n_train, 1), len(days) - 1)
    train_days = set(shuffled[:n_train])
    train = tuple(r for r in records if r.day in train_days)
    val = tuple(r for r in records if r.day not in train_days)
    return train, val


# ---------------------------------------------------------------------------
# synthetic city


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the deterministic synthetic city generator.

    ``signal`` in [0, 1] controls how strongly congestion depends on the
    observable volumes: at 0 the labels are pure noise, at 1 they are a
    deterministic function of global demand, local counter volume and the
    segment's static propensity.
    """

    num_nodes: int = 50
    counter_fraction: float = 0.1
    num_records: int = 200
    signal: float = 0.9
    records_per_day: int = 16
    num_supersegments: int = 8
    city_name: str = "synthville"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.num_nodes < 4:
            raise ValueError(f"num_nodes must be >= 4, got {self.num_nodes}")
        if not 0.0 < self.counter_fraction <= 1.0:
            raise ValueError(f"counter_fraction must be in (0, 1], got {self.counter_fraction}")
        if self.num_records < 1:
            raise ValueError(f"num_records must be >= 1, got {self.num_records}")
        if not 0.0 <= self.signal <= 1.0:
            raise ValueError(f"signal must be in [0, 1], got {self.signal}")
        if self.records_per_day < 1:
            raise ValueError(f"records_per_day must be >= 1, got {self.records_per_day}")
        if self.num_supersegments < 0:
            raise ValueError(f"num_supersegments must be >= 0, got {self.num_supersegments}")


# congestion score mixing weights (global demand, nearest-counter volume,
# static propensity) and the class thresholds
_W_GLOBAL = 0.45
_W_LOCAL = 0.35
_W_STATIC = 0.20
_THRESH_RED = 0.62
_THRESH_YELLOW = 0.45
_SPEED_FACTOR = {1: 1.0, 2: 0.65, 3: 0.35}

_LANE_CHOICES = (1, 2, 3, 4)
_LANE_WEIGHTS = (0.4, 0.3, 0.2, 0.1)
_LIMIT_CHOICES = (30.0, 50.0, 60.0, 80.0, 100.0)


def _node_adjacency(num_nodes: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _nearest_counter(adj: list[list[int]], counter_nodes: Sequence[int]) -> tuple[list[int], list[int]]:
    """Multi-source BFS: hop distance and nearest counter node per node."""
    n = len(adj)
    dist = [-1] * n
    source = [-1] * n
    queue = deque()
    for c in counter_nodes:
        dist[c] = 0
        source[c] = c
        queue.append(c)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                source[v] = source[u]
                queue.append(v)
    return dist, source


def generate_synthetic_city(spec: SynthSpec, seed: int, out_dir) -> Dataset:
    """Generate a learnable synthetic dataset and write it to ``out_dir``.

    Deterministic given (spec, seed): two runs produce byte-identical
    directories. The order of the random draws is part of that output, so
    every draw keeps its place and arguments. Congestion probability increases with the record's total
    volume and with the volume at the segment's nearest counter; speed
    labels are the segment flow speed scaled down under congestion; ETAs
    follow from the generated speeds plus noise.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    n = spec.num_nodes

    node_ids = [f"n{i:03d}" for i in range(n)]
    lat = np.round(rng.uniform(48.0, 48.2, size=n), 6)
    lon = np.round(rng.uniform(11.4, 11.7, size=n), 6)

    # spanning tree first so the city is connected, then extra chords
    pairs: list[tuple[int, int]] = []
    pair_set: set[frozenset] = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        pairs.append((j, i))
        pair_set.add(frozenset((j, i)))
    target_pairs = min(max(n - 1, int(math.ceil(n * 5 / 3))), n * (n - 1) // 2)  # at most every pair
    while len(pairs) < target_pairs:
        a = int(rng.integers(0, n))
        b = int(rng.integers(0, n))
        if a == b or frozenset((a, b)) in pair_set:
            continue
        pairs.append((a, b))
        pair_set.add(frozenset((a, b)))

    num_counters = int(math.ceil(spec.counter_fraction * n))
    counter_nodes = sorted(int(i) for i in rng.choice(n, size=num_counters, replace=False))
    counter_ids = {node: f"c{k:03d}" for k, node in enumerate(counter_nodes)}

    nodes = tuple(
        NodeRec(node_ids[i], float(lat[i]), float(lon[i]), counter_ids.get(i))
        for i in range(n)
    )

    adj = _node_adjacency(n, pairs)
    hop_dist, nearest = _nearest_counter(adj, counter_nodes)

    segments: list[SegmentRec] = []
    seg_dirs: list[tuple[int, int]] = []  # (tail, head) node indices per segment
    for a, b in pairs:
        one_way = rng.random() < 0.2
        directions = [(a, b)] if one_way else [(a, b), (b, a)]
        if one_way and rng.random() < 0.5:
            directions = [(b, a)]
        limit = float(rng.choice(_LIMIT_CHOICES))
        lanes = int(rng.choice(_LANE_CHOICES, p=_LANE_WEIGHTS))
        importance = int(rng.integers(0, 6))
        tunnel = int(rng.random() < 0.05)
        length = round(float(rng.uniform(60.0, 400.0)), 1)
        for tail, head in directions:
            flow = round(limit * float(rng.uniform(0.55, 0.95)), 1)
            segments.append(
                SegmentRec(
                    segment_id=f"s{len(segments):04d}",
                    tail_node=node_ids[tail],
                    head_node=node_ids[head],
                    importance=importance,
                    oneway=int(one_way),
                    tunnel=tunnel,
                    lanes=lanes,
                    parsed_maxspeed=limit,
                    flow_speed=flow,
                    length_meters=length,
                    counter_distance=float(min(hop_dist[tail], hop_dist[head])),
                    limit_speed=limit,
                )
            )
            seg_dirs.append((tail, head))

    graph = RoadGraph(nodes=nodes, segments=tuple(segments))

    random, normal, poisson = rng.random, rng.normal, rng.poisson  # the label loop draws six times per cell
    # the static term of each segment's congestion score; the propensity is partially readable from the attributes
    static_terms = [
        _W_STATIC * (0.5 * s.importance / 5.0 + 0.3 * (s.lanes - 1) / 3.0 + 0.2 * random())
        for s in segments
    ]
    # nearest counter node for each segment (tail side wins ties)
    seg_counter = [
        nearest[tail] if hop_dist[tail] <= hop_dist[head] else nearest[head]
        for tail, head in seg_dirs
    ]

    base_rate = {node: float(rng.uniform(5.0, 20.0)) for node in counter_nodes}
    start_day = date(2022, 1, 3)

    records: list[VolumeRecord] = []
    for ridx in range(spec.num_records):
        g = float(rng.uniform(0.2, 1.8))
        volumes: dict[str, tuple[int, int, int, int]] = {}
        for node in counter_nodes:
            if random() < 0.1:  # vacant counter this hour -> implicit zeros
                continue
            # per-counter multiplicative noise: one counter is only a noisy
            # witness of global demand, while the sum over all counters
            # (the clustering key) averages it out
            local = math.exp(0.7 * normal())
            lam = g * base_rate[node] * local / 4.0
            volumes[node_ids[node]] = tuple(poisson(lam, size=4).tolist())
        records.append(
            VolumeRecord(
                record_id=f"r{ridx:04d}",
                day=start_day + timedelta(days=ridx // spec.records_per_day),
                t_index=int(rng.integers(DAYTIME_SLOTS[0], DAYTIME_SLOTS[1])),
                volumes=volumes,
            )
        )

    volume_sums = np.array([sum(sum(v) for v in r.volumes.values()) for r in records], dtype=float)
    order = np.argsort(volume_sums, kind="stable")
    ranks = np.empty(len(records))
    ranks[order] = np.arange(len(records))
    q_global = ranks / max(len(records) - 1, 1)

    # score = signal * ((global + local term) + static term) + (1 - signal) * noise
    signal, noise_weight = spec.signal, 1.0 - spec.signal
    flows = [s.flow_speed for s in segments]
    label_rows = []
    true_speeds: list[list[float]] = []  # per record, in segment order
    for record, qg in zip(records, q_global.tolist()):
        demand_terms = {
            node: _W_GLOBAL * qg
            + _W_LOCAL * min(sum(record.volumes.get(node_ids[node], ())) / (2.0 * base_rate[node]), 1.0)
            for node in counter_nodes
        }
        cc_row, speed_row, vol_row, speeds = [], [], [], []
        label_rows.append((cc_row, speed_row, vol_row))
        true_speeds.append(speeds)
        for node, static, flow in zip(seg_counter, static_terms, flows):
            score = signal * (demand_terms[node] + static) + noise_weight * random()
            cls = 3 if score >= _THRESH_RED else (2 if score >= _THRESH_YELLOW else 1)
            speed = max(round(flow * _SPEED_FACTOR[cls] * (1.0 + 0.08 * normal()), 2), 2.0)
            speeds.append(speed)
            undefined, unlabelled, speed_kept = random(3).tolist()
            cc_row.append(-1 if unlabelled > 0.85 else (0 if undefined < 0.03 else cls))  # -1: no label, 0: undefined
            speed_row.append(speed if speed_kept < 0.7 else math.nan)
            latent_count = poisson(0.8 + 5.0 * score)
            vol_row.append(-1 if latent_count <= 0 else (1 if latent_count <= 2 else (3 if latent_count <= 4 else 5)))
    labels = _label_table([r.record_id for r in records], [s.segment_id for s in segments], label_rows)

    # supersegments: random chainable paths over the directed segments
    by_tail: dict[int, list[int]] = {}
    for sidx, (tail, _head) in enumerate(seg_dirs):
        by_tail.setdefault(tail, []).append(sidx)
    lengths = [s.length_meters for s in segments]
    supersegments: list[SuperSegment] = []
    attempts = 0
    while len(supersegments) < spec.num_supersegments and attempts < spec.num_supersegments * 20:
        attempts += 1
        start = int(rng.integers(0, len(segments)))
        path = [start]
        target_len = int(rng.integers(3, 7))
        while len(path) < target_len:
            head = seg_dirs[path[-1]][1]
            options = [s for s in by_tail.get(head, []) if s not in path]
            if not options:
                break
            path.append(int(rng.choice(np.array(options))))
        if len(path) < 2:
            continue
        ss_id = f"ss{len(supersegments):02d}"
        timed, raw_etas = [], []
        for record, speeds in zip(records, true_speeds):
            if random() < 0.1:
                continue
            total = sum(lengths[sidx] / (speeds[sidx] / 3.6) for sidx in path)
            timed.append(record.record_id)
            raw_etas.append(total * (1.0 + 0.05 * normal()))
        # numpy's rounding (scale, rint, unscale), not round(): the two differ in the last digit for some values
        etas = dict(zip(timed, np.maximum(np.round(raw_etas, 3), 0.001).tolist()))
        supersegments.append(SuperSegment(ss_id, tuple(segments[s].segment_id for s in path), etas))

    dataset = Dataset(graph, tuple(records), labels, tuple(supersegments))
    write_dataset(dataset, out_dir, city_name=spec.city_name)
    return dataset
