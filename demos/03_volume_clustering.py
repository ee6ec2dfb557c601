"""Volume clustering and the per-segment congestion priors.

Records are ranked by their total counter volume and cut into K equal-
frequency bins; one (segments, K, 3) block then records, for every segment
and bin, how often it was green (undefined merged in), yellow or red. Those
rows are the prior knowledge the network receives.
"""

import tempfile
from pathlib import Path

import numpy as np

from t4c.clustering import assign_cluster, build_prior_matrices, fit_clusters, volume_sum
from t4c.data import SynthSpec, generate_synthetic_city, daytime_filter

with tempfile.TemporaryDirectory() as tmp:  # the demo reads the dataset the generator returns, not its files
    dataset = generate_synthetic_city(
        SynthSpec(num_nodes=40, counter_fraction=0.15, num_records=100, signal=0.9, records_per_day=10),
        seed=3,
        out_dir=Path(tmp) / "city",
    )
records = daytime_filter(dataset.records)

sums = sorted(volume_sum(r) for r in records)
print(f"volume sums range {sums[0]:.0f}..{sums[-1]:.0f} over {len(records)} records")

model = fit_clusters(records, num_clusters=5)
sizes = np.bincount(list(model.assignment.values()), minlength=5)
print("cluster sizes:", sizes.tolist(), "(equal frequency: max-min <= 1)")
print("thresholds:", [round(t, 1) for t in model.thresholds])

# unseen records are assigned by threshold lookup
probe = records[17]
print(f"record {probe.record_id}: volumeSum {volume_sum(probe):.0f} -> cluster {assign_cluster(model, probe)}")

# the labels are one (records x segments) table; select() takes the rows of these records
# priors (segments, K, 3) and support (segments, K), both in graph segment order
priors, support = build_prior_matrices(model, dataset.labels.select(r.record_id for r in records), dataset.graph)

seg_id = dataset.graph.segments[0].segment_id
print(f"\nprior matrix for {seg_id} (rows = clusters, cols = green/yellow/red):")
for row in range(5):
    green, yellow, red = priors[0, row]
    print(f"  cluster {row} (n={int(support[0, row]):3d}): {green:.2f} {yellow:.2f} {red:.2f}")
print("every row sums to", priors[0].sum(axis=1).round(12).tolist())
print("\nnote how red probability grows with the cluster index: that is the")
print("volume-congestion dependence the priors hand to the network.")
