"""Dataset IO, validation errors, filtering, splitting, synthetic city."""

import contextlib
import hashlib
import json
import math
import re
import shutil
import signal
import tempfile
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import t4c.data as data_module
from t4c.data import (
    DanglingReferenceError,
    Dataset,
    DatasetError,
    LabelTable,
    NodeRec,
    PredictionTable,
    RoadGraph,
    SchemaError,
    SynthSpec,
    VolumeRecord,
    daytime_filter,
    generate_synthetic_city,
    load_dataset,
    read_predictions,
    split_train_validation,
    write_dataset,
    write_predictions,
)


from conftest import make_segment, same_dataset, same_labels, write_version_1_copy


def make_record(record_id, day, t_index, volumes=None):
    return VolumeRecord(record_id, day, t_index, volumes or {})


# -- round trip and loading ----------------------------------------------------


def test_write_then_load_round_trip(toy_dataset, tmp_path):
    write_dataset(toy_dataset, tmp_path / "city")
    loaded = load_dataset(tmp_path / "city")
    assert same_dataset(loaded, toy_dataset)


def reference_label_line(labels: LabelTable, row: int) -> str:
    """One ``labels.jsonl`` line as a dict through ``json.dumps``: what the writer must reproduce byte for byte."""
    edges = {seg_id: {"cc": cc, "speed_kph": speed, "vol_class": vol} for seg_id, cc, speed, vol in labels.labelled(row)}
    return json.dumps({"record_id": labels.record_ids[row], "edges": edges}, sort_keys=True, separators=(",", ":")) + "\n"


# ids that survive edges.csv (which strips each field) and volumes.jsonl, with quotes, backslashes and non-ASCII
LABEL_ID = st.text(
    st.one_of(st.sampled_from('"\\/\né漢\u2028'), st.characters(blacklist_characters="\x00")), min_size=1, max_size=4
).filter(lambda text: text == text.strip())
SPEED = st.one_of(
    st.just(math.nan),  # no label
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e300, math.inf]),
    st.floats(min_value=0.0, allow_infinity=False),
)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_label_lines_equal_the_json_dumps_reference_and_load_back(data):
    segment_ids = data.draw(st.lists(LABEL_ID, unique=True, max_size=6), "segment_ids")
    record_ids = data.draw(st.lists(LABEL_ID, unique=True, min_size=1, max_size=4), "record_ids")
    shape = (len(record_ids), len(segment_ids))
    cells = lambda values: st.lists(values, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])  # noqa: E731
    cc = np.array(data.draw(cells(st.sampled_from([-1, -1, 0, 1, 2, 3])), "cc"), np.int8).reshape(shape)
    speed = np.array(data.draw(cells(SPEED), "speed_kph"), float).reshape(shape)
    vol = np.array(data.draw(cells(st.sampled_from([-1, -1, 1, 3, 5])), "vol_class"), np.int8).reshape(shape)
    empty = data.draw(st.lists(st.booleans(), min_size=shape[0], max_size=shape[0]), "empty rows")
    cc[empty], speed[empty], vol[empty] = -1, math.nan, -1
    labels = LabelTable(tuple(record_ids), tuple(segment_ids), cc, speed, vol)
    graph = RoadGraph(
        nodes=(NodeRec("A", 48.1, 11.5, "c0"), NodeRec("B", 48.2, 11.6, None)),
        segments=tuple(make_segment(seg_id, "A", "B") for seg_id in segment_ids),
    )
    records = tuple(VolumeRecord(record_id, date(2022, 1, 3), 30, {}) for record_id in record_ids)
    with tempfile.TemporaryDirectory() as tmp:
        lone = next((text for text in [*record_ids, *segment_ids] if any("\ud800" <= c <= "\udfff" for c in text)), None)
        if lone is not None:  # a lone surrogate, which UTF-8 cannot encode: refused before any file is written
            with pytest.raises(ValueError, match=re.escape(repr(lone))):
                write_dataset(Dataset(graph, records, labels, ()), Path(tmp) / "city")
            assert not list(Path(tmp).rglob("*"))
            return
        out = write_dataset(Dataset(graph, records, labels, ()), Path(tmp) / "city")
        expected = "".join(reference_label_line(labels, row) for row in range(len(labels)))
        assert (out / "labels.jsonl").read_bytes() == expected.encode("utf-8")
        if not np.isinf(speed).any():  # the loader refuses an infinite speed
            assert same_labels(load_dataset(out).labels, labels)


@pytest.mark.parametrize("where", ["node", "counter", "segment", "record", "supersegment"])
def test_an_id_utf8_cannot_encode_is_refused_before_any_file_is_written(toy_dataset, tmp_path, where):
    """write_dataset raised a bare UnicodeEncodeError on a lone surrogate, after writing meta.json and nodes.csv and
    part of edges.csv."""
    graph, records, labels, supersegments = toy_dataset
    bad = "x\ud800"
    if where == "node":
        graph = replace(graph, nodes=(replace(graph.nodes[0], node_id=bad), *graph.nodes[1:]))
    elif where == "counter":
        records = (replace(records[0], volumes={bad: (1, 2, 3, 4)}), *records[1:])
    elif where == "segment":
        graph = replace(graph, segments=(*graph.segments[:-1], replace(graph.segments[-1], segment_id=bad)))
    elif where == "record":
        records = (*records[:-1], replace(records[-1], record_id=bad))
    else:
        supersegments = (replace(supersegments[0], ss_id=bad), *supersegments[1:])
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        write_dataset(Dataset(graph, records, labels, supersegments), tmp_path / "city")
    assert not (tmp_path / "city").exists()


def test_ids_with_a_carriage_return_load_back_from_the_csv_files():
    """The csv module does not quote a bare "\\r" under a "\\n" line end; unquoted, it read back as a line
    break (found by the property test above with the segment id "\\\\\\r0")."""
    labels = LabelTable(("r0",), ("\\\r0", "e1"), np.array([[1, 2]], np.int8), np.array([[30.0, math.nan]]),
                        np.full((1, 2), -1, np.int8))
    graph = RoadGraph(
        nodes=(NodeRec("A\rB", 48.1, 11.5, "c\r0"), NodeRec("B", 48.2, 11.6, None), NodeRec("C", 48.3, 11.7, None)),
        segments=(make_segment("\\\r0", "A\rB", "B"), make_segment("e1", "B", "C")),
    )
    dataset = Dataset(graph, (VolumeRecord("r0", date(2022, 1, 3), 30, {"A\rB": (1, 2, 3, 4)}),), labels, ())
    with tempfile.TemporaryDirectory() as tmp:
        out = write_dataset(dataset, Path(tmp) / "city")
        assert (out / "edges.csv").read_bytes().split(b"\n")[2].startswith(b"e1,B,C,")  # other rows as before
        assert same_dataset(load_dataset(out), dataset)


def test_label_table_refuses_a_repeated_segment_id():
    with pytest.raises(ValueError, match="repeated segment id"):
        LabelTable(("r0",), ("e1", "e1"), np.full((1, 2), -1, np.int8), np.full((1, 2), math.nan), np.full((1, 2), -1, np.int8))


@pytest.mark.parametrize("column, dtype", [(0, np.int64), (1, np.float32), (2, np.float64)])
def test_label_table_refuses_a_column_of_another_type(column, dtype):
    """A cc of 1.0 is written to labels.jsonl as 1.0, which the loader refuses; the binary copy would hold 1."""
    columns = [np.full((1, 2), -1, np.int8), np.full((1, 2), math.nan), np.full((1, 2), -1, np.int8)]
    columns[column] = columns[column].astype(dtype)
    with pytest.raises(ValueError, match=f"label column of {np.dtype(dtype)}"):
        LabelTable(("r0",), ("e1", "e2"), *columns)


def test_toy_directory_shapes(toy_dataset, tmp_path):
    write_dataset(toy_dataset, tmp_path / "city")
    graph, records, labels, supersegments = load_dataset(tmp_path / "city")
    assert len(graph.nodes) == 3
    assert len(graph.segments) == 3
    assert len(graph.counters) == 1
    assert len(records) == 3
    assert len(labels) == 3
    assert len(supersegments) == 1


def test_missing_file_reported(toy_dataset, tmp_path):
    write_dataset(toy_dataset, tmp_path / "city")
    (tmp_path / "city" / "labels.jsonl").unlink()
    with pytest.raises(FileNotFoundError) as err:
        load_dataset(tmp_path / "city")
    assert "labels.jsonl" in str(err.value)


def test_dangling_node_reference_names_the_node(toy_dataset, tmp_path):
    out = write_dataset(toy_dataset, tmp_path / "city")
    edges = (out / "edges.csv").read_text().replace("e2,B,C", "e2,B,Z")
    (out / "edges.csv").write_text(edges)
    with pytest.raises(DanglingReferenceError) as err:
        load_dataset(out)
    assert "'Z'" in str(err.value)
    assert "edges.csv" in str(err.value)


def test_three_bin_volume_vector_rejected(toy_dataset, tmp_path):
    out = write_dataset(toy_dataset, tmp_path / "city")
    lines = (out / "volumes.jsonl").read_text().splitlines()
    obj = json.loads(lines[0])
    obj["volumes"]["A"] = [1, 2, 3]
    lines[0] = json.dumps(obj)
    (out / "volumes.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as err:
        load_dataset(out)
    assert "4 bins" in str(err.value)
    assert "volumes.jsonl:1" in str(err.value)


def test_negative_volume_rejected(toy_dataset, tmp_path):
    out = write_dataset(toy_dataset, tmp_path / "city")
    lines = (out / "volumes.jsonl").read_text().splitlines()
    obj = json.loads(lines[0])
    obj["volumes"]["A"] = [1, 2, 3, -1]
    lines[0] = json.dumps(obj)
    (out / "volumes.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError):
        load_dataset(out)


@pytest.mark.parametrize("count", [1e400, 2.5, 3.0, True, "3"])
def test_volume_count_that_is_not_a_json_integer_names_file_and_line(toy_dataset, tmp_path, count):
    out = write_dataset(toy_dataset, tmp_path / "city")
    lines = (out / "volumes.jsonl").read_text().splitlines()
    obj = json.loads(lines[0])
    obj["volumes"]["A"] = [1, 2, 3, count]
    lines[0] = json.dumps(obj)
    (out / "volumes.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as err:
        load_dataset(out)
    assert (Path(err.value.path).name, err.value.line, err.value.fieldname) == ("volumes.jsonl", 1, "volumes")


def test_label_for_unknown_record_rejected(toy_dataset, tmp_path):
    out = write_dataset(toy_dataset, tmp_path / "city")
    extra = json.dumps({"record_id": "ghost", "edges": {"e1": {"cc": 1}}})
    with open(out / "labels.jsonl", "a") as fh:
        fh.write(extra + "\n")
    with pytest.raises(DanglingReferenceError) as err:
        load_dataset(out)
    assert "ghost" in str(err.value)


def test_vol_class_vocabulary_enforced(toy_dataset, tmp_path):
    out = write_dataset(toy_dataset, tmp_path / "city")
    lines = (out / "labels.jsonl").read_text().splitlines()
    obj = json.loads(lines[0])
    obj["edges"]["e1"]["vol_class"] = 4
    lines[0] = json.dumps(obj)
    (out / "labels.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as err:
        load_dataset(out)
    assert "vol_class" in str(err.value)


def test_unchainable_supersegment_rejected(toy_dataset, tmp_path):
    out = write_dataset(toy_dataset, tmp_path / "city")
    obj = json.loads((out / "supersegments.json").read_text())
    obj["paths"]["ss_bad"] = ["e2", "e2"]  # head(e2)=C, tail(e2)=B
    (out / "supersegments.json").write_text(json.dumps(obj))
    with pytest.raises(SchemaError) as err:
        load_dataset(out)
    assert "chainable" in str(err.value)


@pytest.mark.parametrize("name, field, value", [
    ("labels.jsonl", "cc", 2.7),
    ("labels.jsonl", "cc", 2.0),
    ("labels.jsonl", "cc", True),
    ("labels.jsonl", "cc", "2"),
    ("labels.jsonl", "vol_class", True),
    ("labels.jsonl", "vol_class", 3.0),
    ("labels.jsonl", "speed_kph", True),
    ("labels.jsonl", "speed_kph", "41.5"),
    ("labels.jsonl", "speed_kph", 10**400),
    ("volumes.jsonl", "t_index", 34.9),
    ("volumes.jsonl", "t_index", True),
    ("volumes.jsonl", "t_index", "34"),
    ("volumes.jsonl", "record_id", 0),
    ("volumes.jsonl", "record_id", None),
    ("labels.jsonl", "record_id", 0),
    ("labels.jsonl", "record_id", None),
])
def test_jsonl_value_of_the_wrong_json_type_names_file_line_and_field(toy_dataset, tmp_path, name, field, value):
    """JSON integer fields take only integers (not bool); number fields refuse bool and strings;
    identifiers take only strings."""
    out = write_dataset(toy_dataset, tmp_path / "city")
    lines = (out / name).read_text().splitlines()
    obj = json.loads(lines[0])
    target = obj["edges"][next(iter(obj["edges"]))] if field in ("cc", "speed_kph", "vol_class") else obj
    target[field] = value
    lines[0] = json.dumps(obj)
    (out / name).write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as err:
        load_dataset(out)
    assert (Path(err.value.path).name, err.value.line, err.value.fieldname) == (name, 1, field)


@pytest.mark.parametrize("value", [True, "120.0", None])
def test_eta_that_is_not_a_json_number_names_the_file_and_field(toy_dataset, tmp_path, value):
    out = write_dataset(toy_dataset, tmp_path / "city")
    obj = json.loads((out / "supersegments.json").read_text())
    obj["etas"][0]["eta_s"] = value
    (out / "supersegments.json").write_text(json.dumps(obj))
    with pytest.raises(SchemaError) as err:
        load_dataset(out)
    assert (Path(err.value.path).name, err.value.fieldname) == ("supersegments.json", "eta_s")


@pytest.mark.parametrize("field, value", [("record_id", 0), ("record_id", None), ("ss_id", 0), ("ss_id", None)])
def test_eta_identifier_that_is_not_a_json_string_names_the_file_and_field(toy_dataset, tmp_path, field, value):
    out = write_dataset(toy_dataset, tmp_path / "city")
    obj = json.loads((out / "supersegments.json").read_text())
    obj["etas"][0][field] = value
    (out / "supersegments.json").write_text(json.dumps(obj))
    with pytest.raises(SchemaError) as err:
        load_dataset(out)
    assert (Path(err.value.path).name, err.value.fieldname) == ("supersegments.json", field)


def test_csv_integer_and_number_fields_still_parse_from_text(toy_dataset, tmp_path):
    out = write_dataset(toy_dataset, tmp_path / "city")
    assert "importance" in (out / "edges.csv").read_text().splitlines()[0]
    seg = load_dataset(out).graph.segments[0]
    assert (type(seg.importance), type(seg.oneway), type(seg.tunnel), type(seg.lanes)) == (int,) * 4
    assert type(seg.length_meters) is float


@pytest.mark.parametrize("key, value", [
    ("paths", [["e1", "e2"]]),
    ("paths", "e1"),
    ("paths", {"ss0": [["e1"], ["e2"]]}),
    ("paths", {"ss0": ["e1", {"e2": 1}]}),
    ("etas", {"r0": 10.0}),
    ("etas", 10.0),
])
def test_supersegments_with_a_section_of_the_wrong_type_is_named(toy_dataset, tmp_path, key, value):
    out = write_dataset(toy_dataset, tmp_path / "city")
    obj = json.loads((out / "supersegments.json").read_text())
    obj[key] = value
    (out / "supersegments.json").write_text(json.dumps(obj))
    with pytest.raises(SchemaError) as err:
        load_dataset(out)
    assert (Path(err.value.path).name, err.value.fieldname) == ("supersegments.json", key)


@pytest.mark.parametrize("key, value", [
    ("format_version", 2), ("format_version", True), ("format_version", 1.0), ("num_day_slots", 96.0),
    ("num_day_slots", None),
])
def test_bad_format_version_rejected(toy_dataset, tmp_path, key, value):
    """Each is a JSON integer: true and 1.0 are not the version 1."""
    out = write_dataset(toy_dataset, tmp_path / "city")
    meta = json.loads((out / "meta.json").read_text())
    meta[key] = value
    (out / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(SchemaError) as err:
        load_dataset(out)
    assert (Path(err.value.path).name, err.value.fieldname) == ("meta.json", key)


def test_missing_continuous_attribute_imputed_with_median(toy_dataset, tmp_path):
    out = write_dataset(toy_dataset, tmp_path / "city")
    text = (out / "edges.csv").read_text()
    # blank out e1's flow_speed (40.0); remaining values are 30.0 and 40.0
    lines = text.splitlines()
    header = lines[0].split(",")
    col = header.index("flow_speed")
    first = lines[1].split(",")
    assert first[0] == "e1"
    first[col] = ""
    lines[1] = ",".join(first)
    (out / "edges.csv").write_text("\n".join(lines) + "\n")
    graph = load_dataset(out).graph
    assert graph.segments[0].flow_speed == 35.0  # median of {30, 40}
    assert ("e1", "flow_speed") in graph.imputed


# -- daytime filter -------------------------------------------------------------


def test_daytime_filter_keeps_half_open_window():
    d = date(2022, 1, 3)
    records = [make_record(f"r{t}", d, t) for t in (10, 24, 87, 88)]
    kept = daytime_filter(records, 24, 88)
    assert [r.t_index for r in kept] == [24, 87]


def test_daytime_filter_full_day_is_identity():
    d = date(2022, 1, 3)
    records = tuple(make_record(f"r{t}", d, t) for t in (0, 13, 95))
    assert daytime_filter(records, 0, 96) == records


def test_daytime_filter_empty_input():
    assert daytime_filter([], 24, 88) == ()


def test_daytime_filter_is_idempotent():
    d = date(2022, 1, 3)
    records = [make_record(f"r{t}", d, t) for t in range(0, 96, 7)]
    once = daytime_filter(records, 24, 88)
    assert daytime_filter(once, 24, 88) == once


def test_daytime_filter_invalid_bounds():
    for bounds in ((24, 24), (88, 24), (-1, 10), (0, 97)):
        with pytest.raises(ValueError):
            daytime_filter([], *bounds)


# -- split ----------------------------------------------------------------------


def _ten_day_records():
    out = []
    for day_offset in range(10):
        d = date(2022, 1, 3 + day_offset)
        for t in (30, 40):
            out.append(make_record(f"r{day_offset}_{t}", d, t))
    return out


def test_split_deterministic_eight_two():
    records = _ten_day_records()
    train1, val1 = split_train_validation(records, 0.8, seed=7)
    train2, val2 = split_train_validation(records, 0.8, seed=7)
    assert (train1, val1) == (train2, val2)
    assert len({r.day for r in train1}) == 8
    assert len({r.day for r in val1}) == 2


def test_split_days_do_not_straddle():
    records = _ten_day_records()
    train, val = split_train_validation(records, 0.5, seed=3)
    assert {r.day for r in train}.isdisjoint({r.day for r in val})
    assert len(train) + len(val) == len(records)


def test_split_two_days_half():
    records = [make_record("a", date(2022, 1, 3), 30), make_record("b", date(2022, 1, 4), 30)]
    train, val = split_train_validation(records, 0.5, seed=0)
    assert len(train) == 1 and len(val) == 1


def test_split_single_day_errors():
    records = [make_record("a", date(2022, 1, 3), 30)]
    with pytest.raises(ValueError):
        split_train_validation(records, 0.5, seed=0)


def test_split_rejects_degenerate_fraction():
    with pytest.raises(ValueError):
        split_train_validation(_ten_day_records(), 0.0, seed=0)


def test_split_rejects_a_negative_seed_by_name():
    """``random.Random(-1)`` shuffles as ``random.Random(1)``, so seed -1 gave the split of seed 1."""
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        split_train_validation(_ten_day_records(), 0.8, seed=-1)


# -- synthetic city ---------------------------------------------------------------


def _dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_synth_identical_runs_are_byte_identical(tmp_path):
    spec = SynthSpec(num_nodes=50, counter_fraction=0.1, num_records=200, signal=0.9)
    generate_synthetic_city(spec, seed=1, out_dir=tmp_path / "a")
    generate_synthetic_city(spec, seed=1, out_dir=tmp_path / "b")
    assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")


def test_synth_output_loads_and_validates(tmp_path):
    spec = SynthSpec(num_nodes=20, counter_fraction=0.3, num_records=25, signal=0.5)
    written = generate_synthetic_city(spec, seed=5, out_dir=tmp_path / "c")
    loaded = load_dataset(tmp_path / "c")
    assert same_dataset(loaded, written)
    graph = loaded.graph
    node_ids = {n.node_id for n in graph.nodes}
    for seg in graph.segments:
        assert seg.tail_node in node_ids and seg.head_node in node_ids
        assert seg.length_meters > 0
    for city in (written.graph, graph):  # the counter map is the nodes' counter ids, in node order
        assert list(city.counters.items()) == [(n.node_id, n.counter_id) for n in city.nodes if n.counter_id]
    assert len(graph.counters) == 6  # ceil(0.3 * 20)


def test_a_volume_vector_at_a_node_without_a_counter_is_refused(toy_dataset, tmp_path):
    out = write_dataset(toy_dataset, tmp_path / "city")
    lines = (out / "volumes.jsonl").read_text().splitlines()
    obj = json.loads(lines[1])
    obj["volumes"]["B"] = [1, 2, 3, 4]  # B is a node, but has no counter
    lines[1] = json.dumps(obj)
    (out / "volumes.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as err:
        load_dataset(out)
    assert str(err.value) == f"{out / 'volumes.jsonl'}:2: field 'volumes': node 'B' has no counter"


def test_synth_full_counter_fraction(tmp_path):
    spec = SynthSpec(num_nodes=10, counter_fraction=1.0, num_records=5)
    dataset = generate_synthetic_city(spec, seed=2, out_dir=tmp_path / "d")
    assert len(dataset.graph.counters) == len(dataset.graph.nodes)


@pytest.mark.parametrize("spec", [
    SynthSpec(num_nodes=4, counter_fraction=0.01, num_records=3),
    SynthSpec(num_nodes=12, counter_fraction=0.1, num_records=3),
    SynthSpec(num_nodes=50, counter_fraction=0.02, num_records=3),
], ids=["4_nodes_1_counter", "12_nodes_2_counters", "50_nodes_1_counter"])
def test_synth_reaches_a_counter_from_every_segment(spec, tmp_path):
    """A spec has a counter fraction above 0, so a city has a counter, and the generator joins every node by a
    spanning tree first, so the nearest-counter search reaches every node: each hop distance is in [0, num_nodes)."""
    graph = generate_synthetic_city(spec, seed=0, out_dir=tmp_path / "city").graph
    assert len(graph.counters) == math.ceil(spec.counter_fraction * spec.num_nodes)
    assert all(0 <= segment.counter_distance < spec.num_nodes for segment in graph.segments)


def test_synth_of_the_smallest_city_joins_every_node_pair(tmp_path):
    """Four nodes have six pairs: the chord target stops there instead of drawing forever."""
    spec = SynthSpec(num_nodes=4, counter_fraction=0.5, num_records=3)
    graph = generate_synthetic_city(spec, seed=0, out_dir=tmp_path / "tiny").graph
    assert {frozenset(pair) for pair in graph.endpoint_rows.tolist()} == {
        frozenset((a, b)) for a in range(4) for b in range(a + 1, 4)
    }


def test_synth_signal_zero_labels_independent_of_volumes(tmp_path):
    """Chi-square independence between volume-sum tertile and label counts."""
    from scipy.stats import chi2_contingency

    spec = SynthSpec(num_nodes=20, counter_fraction=0.3, num_records=120, signal=0.0)
    dataset = generate_synthetic_city(spec, seed=11, out_dir=tmp_path / "e")
    sums = {r.record_id: sum(sum(v) for v in r.volumes.values()) for r in dataset.records}
    cut = np.quantile(sorted(sums.values()), [1 / 3, 2 / 3])
    table = np.zeros((3, 3))
    for bundle in dataset.labels:
        tertile = int(np.searchsorted(cut, sums[bundle.record_id]))
        for lab in bundle.edges.values():
            if lab.cc in (1, 2, 3):
                table[tertile, lab.cc - 1] += 1
    _stat, p_value, _dof, _exp = chi2_contingency(table)
    assert p_value > 0.01


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(num_nodes=3).validate()
    with pytest.raises(ValueError):
        SynthSpec(counter_fraction=0.0).validate()
    with pytest.raises(ValueError):
        SynthSpec(num_records=0).validate()
    with pytest.raises(ValueError):
        SynthSpec(signal=1.5).validate()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_loaded_data_satisfies_type_invariants(tmp_path, seed):
    """Every structural invariant holds on generated-and-reloaded fixtures."""
    spec = SynthSpec(num_nodes=15, counter_fraction=0.4, num_records=20, signal=0.6, records_per_day=6)
    generate_synthetic_city(spec, seed=seed, out_dir=tmp_path / f"c{seed}")
    graph, records, labels, supersegments = load_dataset(tmp_path / f"c{seed}")

    node_ids = {n.node_id for n in graph.nodes}
    seg_ids = {s.segment_id for s in graph.segments}
    assert len(node_ids) == len(graph.nodes)
    assert len(seg_ids) == len(graph.segments)
    assert set(graph.counters) <= node_ids
    seg_by_id = {}
    for seg in graph.segments:
        assert seg.tail_node in node_ids and seg.head_node in node_ids
        assert seg.length_meters > 0
        assert min(seg.parsed_maxspeed, seg.flow_speed, seg.limit_speed, seg.counter_distance) >= 0
        assert 0 <= seg.importance <= 5 and seg.oneway in (0, 1) and seg.tunnel in (0, 1)
        assert 1 <= seg.lanes <= 4
        seg_by_id[seg.segment_id] = seg

    record_ids = set()
    for r in records:
        record_ids.add(r.record_id)
        assert 0 <= r.t_index < 96
        for node_id, bins in r.volumes.items():
            assert node_id in graph.counters
            assert len(bins) == 4 and min(bins) >= 0

    for bundle in labels:
        assert bundle.record_id in record_ids
        for seg_id, lab in bundle.edges.items():
            assert seg_id in seg_ids
            assert lab.cc is None or lab.cc in (0, 1, 2, 3)
            assert lab.vol_class is None or lab.vol_class in (1, 3, 5)
            assert lab.speed_kph is None or lab.speed_kph >= 0

    for ss in supersegments:
        for a, b in zip(ss.path, ss.path[1:]):
            assert seg_by_id[a].head_node == seg_by_id[b].tail_node
        for rid, eta in ss.etas.items():
            assert rid in record_ids and eta > 0


def test_synth_city_scale(tmp_path):
    spec = SynthSpec(num_nodes=50, counter_fraction=0.1, num_records=10)
    dataset = generate_synthetic_city(spec, seed=1, out_dir=tmp_path / "f")
    # roughly three directed segments per node
    assert 120 <= len(dataset.graph.segments) <= 180
    assert len(dataset.graph.counters) == 5
    assert all(24 <= r.t_index < 88 for r in dataset.records)


@pytest.fixture(scope="module")
def small_city_dir(tmp_path_factory):
    spec = SynthSpec(num_nodes=12, counter_fraction=0.4, num_records=16, signal=0.9, records_per_day=8)
    out = tmp_path_factory.mktemp("damaged") / "city"
    generate_synthetic_city(spec, seed=2, out_dir=out)
    return out


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(["volumes.jsonl", "labels.jsonl"]),
    line_pick=st.integers(min_value=0),
    offset_pick=st.integers(min_value=0),
    byte=st.integers(0, 255),
)
def test_overwritten_dataset_line_byte_loads_or_names_file_and_line(small_city_dir, name, line_pick, offset_pick, byte):
    with tempfile.TemporaryDirectory() as tmp:
        city = Path(tmp) / "city"
        shutil.copytree(small_city_dir, city)
        lines = (city / name).read_bytes().split(b"\n")[:-1]
        index = line_pick % len(lines)
        line = bytearray(lines[index])
        line[offset_pick % len(line)] = byte
        lines[index] = bytes(line)
        (city / name).write_bytes(b"\n".join(lines) + b"\n")
        try:
            load_dataset(city)
        except DatasetError as exc:
            assert Path(exc.path).parent == city, str(exc)
            assert isinstance(exc.line, int) and exc.line >= 1, str(exc)
            assert str(exc).startswith(f"{exc.path}:{exc.line}: ")
            if Path(exc.path).name == name:
                assert exc.line >= index + 1, str(exc)


class _Overran(Exception):
    pass


@contextlib.contextmanager
def _alarm_after(seconds: float):
    """Raise ``_Overran`` in this thread once ``seconds`` of wall time have passed (a hang fails instead of hanging)."""

    def overran(signum, frame):
        raise _Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=60, deadline=timedelta(seconds=2))
# the smallest graph, the fewest records, one counter and more super-segments than segments
# asked for: before the chord target was capped, a 4-node city never returned
@example(
    spec=SynthSpec(num_nodes=4, counter_fraction=5e-324, num_records=1, signal=0.0, records_per_day=1, num_supersegments=12),
    seed=0,
)
@given(
    spec=st.builds(
        SynthSpec,
        num_nodes=st.integers(4, 12),
        counter_fraction=st.floats(0.0, 1.0, exclude_min=True),
        num_records=st.integers(1, 12),
        signal=st.floats(0.0, 1.0),
        records_per_day=st.integers(min_value=1),
        num_supersegments=st.integers(0, 12),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_accepted_small_spec_generates_and_loads_in_bounded_time(spec, seed):
    """A spec that ``validate`` accepts generates a city that loads, each example within the deadline."""
    spec.validate()
    with tempfile.TemporaryDirectory() as tmp, _alarm_after(10.0):
        generated = generate_synthetic_city(spec, seed, Path(tmp) / "city")
        loaded = load_dataset(Path(tmp) / "city")
    assert [r.record_id for r in loaded.records] == [r.record_id for r in generated.records]
    assert len(loaded.records) == spec.num_records


# -- the labels' binary copy: it changes how fast a dataset loads, never what it loads or refuses ----------------


@pytest.fixture(scope="module")
def copy_cities(tmp_path_factory):
    """Two small synthetic cities, each with its ``labels.jsonl.bin``."""
    root = tmp_path_factory.mktemp("labels_copy")
    spec = SynthSpec(num_nodes=12, counter_fraction=0.25, num_records=24, records_per_day=8, num_supersegments=2)
    for seed in (1, 2):
        generate_synthetic_city(spec, seed, root / f"city{seed}")
    return root


def _load_outcome(city):
    """``load_dataset``'s labels, or the type and message of what it raised."""
    try:
        return load_dataset(city).labels
    except Exception as exc:  # the exact exception is the outcome
        return type(exc), str(exc)


def _same_outcome(a, b) -> bool:
    """Two outcomes alike: ``same_labels`` for a label table, else equal values."""
    return same_labels(a, b) if isinstance(a, LabelTable) else a == b


def _parse_outcome(city):
    """``_load_outcome`` with the copy moved aside, so that the labels are parsed."""
    copy = city / "labels.jsonl.bin"
    aside = copy.with_name("aside.bin")
    copy.rename(aside)
    try:
        return _load_outcome(city)
    finally:
        aside.rename(copy)


def _ids(dataset) -> tuple[set[str], list[str]]:
    """The record ids and the segment ids in graph order, with which ``load_dataset`` checks a labels copy."""
    return {r.record_id for r in dataset.records}, [s.segment_id for s in dataset.graph.segments]


def _copy_taken(city, dataset) -> bool:
    """Whether ``load_dataset`` takes the labels of ``city``, with the graph and records of ``dataset``, from the copy."""
    return data_module._labels_copy(city / "labels.jsonl", *_ids(dataset)) is not None


@pytest.mark.parametrize("seed", [1, 2])
def test_a_fresh_labels_copy_is_taken_and_holds_the_parsed_table(copy_cities, seed):
    city = copy_cities / f"city{seed}"
    labels = load_dataset(city).labels
    assert _copy_taken(city, load_dataset(city))
    assert same_labels(labels, _parse_outcome(city))
    assert [column.dtype for column in (labels.cc, labels.speed_kph, labels.vol_class)] == [np.int8, np.float64, np.int8]
    assert not any(column.flags.writeable for column in (labels.cc, labels.speed_kph, labels.vol_class))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_damaged_or_stale_labels_copy_loads_as_the_parse(copy_cities, data):
    city = copy_cities / "city1"
    city1 = load_dataset(city)
    jsonl, copy = city / "labels.jsonl", city / "labels.jsonl.bin"
    text, raw = jsonl.read_bytes(), copy.read_bytes()
    damage = data.draw(st.sampled_from(["flip", "cut", "other_city", "stale"]), label="damage")
    if damage == "flip":
        position, mask = data.draw(st.integers(0, len(raw) - 1), "position"), data.draw(st.integers(1, 255), "mask")
        copy.write_bytes(raw[:position] + bytes([raw[position] ^ mask]) + raw[position + 1:])
    elif damage == "cut":
        copy.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="length")])
    elif damage == "other_city":
        copy.write_bytes((copy_cities / "city2/labels.jsonl.bin").read_bytes())
    else:  # one byte of the JSONL edited after the copy was written
        position, value = data.draw(st.integers(0, len(text) - 1), "position"), data.draw(st.integers(0, 255), "byte")
        value = value if value != text[position] else (value + 1) % 256
        jsonl.write_bytes(text[:position] + bytes([value]) + text[position + 1:])
    try:
        assert not _copy_taken(city, city1)
        assert _same_outcome(_load_outcome(city), _parse_outcome(city))
    finally:
        jsonl.write_bytes(text)
        copy.write_bytes(raw)


def _edit_labels(labels: LabelTable, edit: str) -> LabelTable:
    """``labels`` with one fault (or one unusual value) that ``write_dataset`` writes to the JSONL and the copy alike."""
    record_ids, segment_ids = list(labels.record_ids), list(labels.segment_ids)
    cc, speed, vol = labels.cc.copy(), labels.speed_kph.copy(), labels.vol_class.copy()
    if edit == "segment_order":  # the parse puts each label in its graph column
        return LabelTable(labels.record_ids, labels.segment_ids[::-1], cc[:, ::-1], speed[:, ::-1], vol[:, ::-1])
    if edit in ("unknown_record", "repeated_record"):
        record_ids[1] = "zz_unknown" if edit == "unknown_record" else record_ids[0]
    else:
        column, value = {"cc": (cc, 7), "cc_below_the_sentinel": (cc, -5), "vol_class": (vol, 2),
                         "vol_below_the_sentinel": (vol, -3), "negative_speed": (speed, -1.0),
                         "infinite_speed": (speed, math.inf), "negative_infinite_speed": (speed, -math.inf)}[edit]
        column[1, 2] = value
    return LabelTable(tuple(record_ids), tuple(segment_ids), cc, speed, vol)


LABEL_EDITS = ["segment_order", "unknown_record", "repeated_record", "cc", "cc_below_the_sentinel", "vol_class",
               "vol_below_the_sentinel", "negative_speed", "infinite_speed", "negative_infinite_speed"]


@pytest.mark.parametrize("edit", LABEL_EDITS)
def test_a_copy_bound_to_its_jsonl_that_the_parse_would_not_give_is_not_taken(copy_cities, tmp_path, edit):
    """A table the loader refuses, or reads otherwise: the writer binds a copy of it to its JSONL, and the loader
    takes the parse's table or raises the parse's exception."""
    city1 = load_dataset(copy_cities / "city1")
    graph, records, labels, supersegments = city1
    city = write_dataset(Dataset(graph, records, _edit_labels(labels, edit), supersegments), tmp_path / "city")
    assert not _copy_taken(city, city1)
    outcome = _load_outcome(city)
    assert _same_outcome(outcome, _parse_outcome(city))
    assert isinstance(outcome, LabelTable) == (edit in ("segment_order", "cc_below_the_sentinel",
                                                        "vol_below_the_sentinel"))


@pytest.mark.parametrize("fault", ["header_type", "unknown_header_key", "short_payload", "long_payload"])
def test_a_copy_with_a_bad_header_or_payload_length_is_not_taken(copy_cities, tmp_path, fault):
    """Copies that no writer makes, bound to the JSONL by a digest all the same."""
    city = tmp_path / "city"
    shutil.copytree(copy_cities / "city1", city)
    jsonl = city / "labels.jsonl"
    header, payload = data_module._read_copy(jsonl, data_module._LABELS_COPY, dict)
    header, payload = dict(header), bytes(payload)
    if fault == "header_type":
        header["record_ids"] = [1, *header["record_ids"][1:]]
    elif fault == "unknown_header_key":
        header["supersegment_ids"] = []
    else:
        payload = payload[:-1] if fault == "short_payload" else payload + b"\0"
    data_module._write_with_copy(jsonl, [jsonl.read_bytes()], data_module._LABELS_COPY, header, [payload])
    assert data_module._read_copy(jsonl, data_module._LABELS_COPY, dict)[0] == header
    city1 = load_dataset(copy_cities / "city1")
    assert not _copy_taken(city, city1)
    parsed = _parse_outcome(city)
    assert same_labels(load_dataset(city).labels, parsed) and same_labels(parsed, city1.labels)


# -- the check that binds a copy to its JSONL: the copy ends in the JSONL's bytes, compared chunk by chunk -----------


@pytest.fixture(scope="module")
def copy_predictions(copy_cities):
    """A predictions file, with its binary copy, over the records, segments and super-segments of city1."""
    city1 = load_dataset(copy_cities / "city1")
    rng = np.random.default_rng(0)
    records, segments = len(city1.records), len(city1.graph.segments)
    table = PredictionTable([r.record_id for r in city1.records], [s.segment_id for s in city1.graph.segments],
                            [ss.ss_id for ss in city1.supersegments], rng.dirichlet(np.ones(3), (records, segments)),
                            rng.uniform(60.0, 600.0, (records, len(city1.supersegments))))
    pred = copy_cities / "predictions.jsonl"
    write_predictions(pred, table)
    return pred


def _read_outcome(pred):
    """``read_predictions``' table as (dtype, shape, bytes) of each block and the ids, or what it raised."""
    try:
        table = read_predictions(pred)
    except Exception as exc:  # the exact exception is the outcome
        return type(exc), str(exc)
    return [(v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for v in table]


def _jsonl_outcomes(kind, city, pred):
    """For the labels of ``city`` or the predictions ``pred``: the JSONL, whether its copy is taken, the load's outcome
    and the parse's."""
    if kind == "labels":
        city1 = load_dataset(city)
        return city / "labels.jsonl", lambda: _copy_taken(city, city1), lambda: _load_outcome(city), \
            lambda: _parse_outcome(city)

    def parse():
        aside = pred.with_name("aside.bin")
        pred.with_name(pred.name + ".bin").rename(aside)
        try:
            return _read_outcome(pred)
        finally:
            aside.rename(pred.with_name(pred.name + ".bin"))

    return pred, lambda: data_module._predictions_copy(pred) is not None, lambda: _read_outcome(pred), parse


CHUNK = 64  # a small _COPY_CHUNK, so that the files span many chunks


@pytest.mark.parametrize("kind", ["labels", "predictions"])
@pytest.mark.parametrize("edit", ["first_byte", "last_byte", "before_a_chunk_boundary", "after_a_chunk_boundary",
                                  "appended_byte", "cut_byte"])
def test_a_jsonl_edited_by_one_byte_loads_as_its_parse_and_not_from_its_copy(copy_cities, copy_predictions,
                                                                               monkeypatch, kind, edit):
    monkeypatch.setattr(data_module, "_COPY_CHUNK", CHUNK)
    jsonl, taken, load, parse = _jsonl_outcomes(kind, copy_cities / "city1", copy_predictions)
    text = jsonl.read_bytes()
    assert len(text) > 4 * CHUNK and taken()
    position = {"first_byte": 0, "last_byte": len(text) - 1, "before_a_chunk_boundary": 3 * CHUNK - 1,
                "after_a_chunk_boundary": 3 * CHUNK}.get(edit)
    if position is not None:  # the same length, one byte other
        edited = text[:position] + bytes([text[position] ^ 1]) + text[position + 1:]
    else:  # a line break more or less: the parse gives the same table, which the copy holds, but the bytes differ
        edited = text + b"\n" if edit == "appended_byte" else text[:-1]
    jsonl.write_bytes(edited)
    try:
        assert not taken()
        assert _same_outcome(load(), parse())
    finally:
        jsonl.write_bytes(text)
    assert taken()


VERSION_1_LABELS_COPY_SHA256 = "9855b8f46a3c0e12e142914e2bbb9c179ff5e86df78215423ee8970b11166222"  # `synth`'s city


def test_a_version_1_labels_copy_is_ignored(tmp_path):
    """The version 1 copy of ``synth``'s city, byte for byte as that writer made it, is not taken by this reader."""
    city = tmp_path / "city"
    generate_synthetic_city(SynthSpec(), 1, city)
    assert data_module._labels_copy(city / "labels.jsonl", *_ids(load_dataset(city))) is not None
    write_version_1_copy(city / "labels.jsonl", data_module._LABELS_COPY)
    assert hashlib.sha256((city / "labels.jsonl.bin").read_bytes()).hexdigest() == VERSION_1_LABELS_COPY_SHA256
    assert data_module._read_copy(city / "labels.jsonl", data_module._LABELS_COPY, dict)[0] is None
    assert data_module._labels_copy(city / "labels.jsonl", *_ids(load_dataset(city))) is None
    assert _same_outcome(_load_outcome(city), _parse_outcome(city))
