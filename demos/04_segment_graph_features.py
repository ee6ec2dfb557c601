"""The segments-as-nodes graph and the per-segment feature assembly.

The road graph is the graph the model runs on: its segments are the
nodes, in its segment order. Two road segments become neighbors when they
share an intersection, which lets message passing move information between
adjacent roads even where no counter exists. The model reads four blocks
per segment. ``model.static_inputs`` builds the three static ones once per
volume cluster: the categorical codes' embedding cells, the z-normalized
continuous attributes and the congestion prior block. The fourth, the
8-dim counter slice of the segment's own endpoints, is gathered per record
from the record's counter volumes by node.
"""

import tempfile
from pathlib import Path

import numpy as np

from t4c.clustering import build_prior_matrices, fit_clusters
from t4c.data import SynthSpec, generate_synthetic_city, daytime_filter
from t4c.model import ModelConfig, static_inputs
from t4c.seggraph import counter_slice_matrix, fit_normalization

with tempfile.TemporaryDirectory() as tmp:  # the demo reads the dataset the generator returns, not its files
    dataset = generate_synthetic_city(
        SynthSpec(num_nodes=30, counter_fraction=0.2, num_records=40, signal=0.9, records_per_day=10),
        seed=5,
        out_dir=Path(tmp) / "city",
    )
records = daytime_filter(dataset.records)

graph = dataset.graph
degrees = [len(n) for n in graph.neighbors]  # adjacency built once, on first use
print(f"{len(graph.segments)} segments; degree min/mean/max = "
      f"{min(degrees)}/{np.mean(degrees):.1f}/{max(degrees)}")

first = graph.segments[0]
nbr_ids = [graph.segment_ids[j] for j in graph.neighbors[0]]
print(f"{first.segment_id} ({first.tail_node}->{first.head_node}) touches: {nbr_ids}")

# normalization statistics come from the training records only
labels = dataset.labels.select(r.record_id for r in records)
stats = fit_normalization(dataset.graph, records, labels)
print(f"\nspeed labels: mean {stats.speed_mean:.1f} km/h, sigma {stats.speed_std:.1f}")

model = fit_clusters(records, num_clusters=5)
priors, _support = build_prior_matrices(model, labels, dataset.graph)  # (segments, 5, 3)

config = ModelConfig(num_clusters=5)
cells, continuous, prior_block = static_inputs(config, graph, priors, stats)  # the same for every record
raw = counter_slice_matrix(dataset.graph, records[0])  # this record's counters at each segment's endpoints
counter_slice = stats.normalize_counters(raw)
print("\nfeature blocks for one record:")
print("  categorical ", graph.categorical_matrix.shape, "(importance, oneway, tunnel, lanes) ->",
      cells.shape, f"embedding cells ({cells.shape[1]} wide)")
print("  continuous  ", continuous.shape, "z-scored; column means ~0:",
      continuous.mean(axis=0).round(2).tolist())
print("  counter     ", counter_slice.shape, "(tail 4 bins, head 4 bins)")
print("  prior block ", prior_block.shape, "(5 clusters x 3 states, flattened)")

# segments whose endpoints carry no counter see a zero (then normalized) slice
print(f"\nsegments with live counter data this hour: {raw.any(axis=1).sum()} "
      f"of {len(graph.segments)}")
