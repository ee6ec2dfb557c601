"""Generate a synthetic city and look around the dataset directory.

The generator is deterministic given its seed: rerunning writes byte-for-
byte identical files. Congestion labels depend on the record's total
volume and the nearest counter's reading, so there is real structure for
the model to learn.
"""

import tempfile
from pathlib import Path

import numpy as np

from t4c.data import SynthSpec, generate_synthetic_city, load_dataset, daytime_filter, split_train_validation

spec = SynthSpec(num_nodes=40, counter_fraction=0.15, num_records=80, signal=0.9, records_per_day=10)
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "city"
    dataset = generate_synthetic_city(spec, seed=7, out_dir=out)
    print("files:", sorted(p.name for p in out.iterdir()))
    # loading validates everything and reproduces the in-memory dataset: the same graph, records and
    # super-segments, and the same label columns (NaN where a speed label is missing)
    loaded = load_dataset(out)
assert loaded._replace(labels=None) == dataset._replace(labels=None)
assert all(np.array_equal(getattr(loaded.labels, name), getattr(dataset.labels, name), equal_nan=name == "speed_kph")
           for name in ("record_ids", "segment_ids", "cc", "speed_kph", "vol_class"))

graph, records, labels, supersegments = dataset
print(f"{len(graph.nodes)} nodes, {len(graph.segments)} segments, {len(graph.counters)} counters")
print(f"{len(records)} records over {len({r.day for r in records})} days, {len(supersegments)} supersegments")

seg = graph.segments[0]
print(f"\nsegment {seg.segment_id}: {seg.tail_node} -> {seg.head_node}, "
      f"{seg.length_meters} m, flow {seg.flow_speed} km/h, lanes {seg.lanes}")

rec = records[0]
print(f"\nrecord {rec.record_id} at slot {rec.t_index} ({rec.day}):")
for node_id, bins in list(rec.volumes.items())[:3]:
    print(f"  counter at {node_id}: {bins}")

# labels are one table: (records x segments) columns, -1 or NaN where a label is missing
print(f"\nlabel table: {len(labels.record_ids)} records x {len(labels.segment_ids)} segments, "
      f"{int((labels.cc >= 0).sum())} congestion labels")
bundle = labels[0]  # one row, read as segment -> label
labeled = [(s, l) for s, l in bundle.edges.items() if l.cc is not None][:3]
for seg_id, lab in labeled:
    print(f"  label {seg_id}: cc={lab.cc} speed={lab.speed_kph} vol_class={lab.vol_class}")

# the daytime window [24, 88) is 6:00 to 22:00; whole days split together
daytime = daytime_filter(records, 24, 88)
train, val = split_train_validation(daytime, fraction=0.8, seed=0)
print(f"\ndaytime records: {len(daytime)}; split {len(train)} train / {len(val)} validation")
print("train days:", sorted({r.day.isoformat() for r in train}))
print("val days:  ", sorted({r.day.isoformat() for r in val}))
