"""End-to-end: clusters, a small ensemble, predictions, and both metrics.

Trains two seeds for a few epochs on a synthetic city, averages their
probabilities, scores congestion cross entropy against the two counting
baselines, and synthesizes supersegment ETAs from the predicted speeds.
Runs in well under a minute.
"""

import tempfile
from pathlib import Path

import numpy as np

from t4c.baselines import fit_naive, fit_volume_cluster, naive_segment_probs
from t4c.clustering import assign_cluster, build_prior_matrices, fit_clusters
from t4c.data import PredictionTable, SynthSpec, generate_synthetic_city, daytime_filter, split_train_validation
from t4c.evaluation import core_metric, eta_labels, eta_metric, etas_from_speeds
from t4c.model import ModelConfig
from t4c.seggraph import build_line_graph
from t4c.training import TrainConfig, ensemble_predict, prepare_ensemble, train_ensemble

out = Path(tempfile.mkdtemp()) / "city"
dataset = generate_synthetic_city(
    SynthSpec(num_nodes=40, counter_fraction=0.15, num_records=120, signal=0.9, records_per_day=12),
    seed=11,
    out_dir=out,
)

train_cfg = TrainConfig(epochs=8, batch_size=2, learning_rate=5e-3, ensemble_size=2, base_seed=0)
model_cfg = ModelConfig(
    volume_hidden=(16,), static_hidden=(16,), gnn_layers=2, hidden=32,
    head_blocks=1, num_clusters=5, prior_mode="active_row",
)

records = daytime_filter(dataset.records, *train_cfg.daytime)
train_records, val_records = split_train_validation(records, 1 - train_cfg.val_fraction, train_cfg.split_seed)
train_labels = dataset.labels.select(r.record_id for r in train_records)
val_labels = dataset.labels.select(r.record_id for r in val_records)

cluster_model = fit_clusters(train_records, model_cfg.num_clusters)
priors = build_prior_matrices(cluster_model, train_labels, dataset.graph)

members = train_ensemble(train_cfg, model_cfg, dataset, cluster_model, priors)
for ckpt, runlog in members:
    print(f"member seed={runlog.seed}: best epoch {runlog.best_epoch}, "
          f"val core {runlog.epochs[runlog.best_epoch].val_core:.4f}")

# ensemble predictions on the validation records, as one table: (records, segments) blocks in the line graph's order
checkpoints = [ckpt for ckpt, _ in members]
seg_graph = build_line_graph(dataset.graph)
seg_ids = list(seg_graph.seg_ids)
lengths = [s.length_meters for s in dataset.graph.segments]  # the line graph's segment order
# once per stage: checks the members' configs and builds each member's static branch for every cluster
ensemble = prepare_ensemble(checkpoints, dataset.graph, seg_graph, priors, cluster_model)

cc, speed = np.empty((len(val_records), len(seg_ids), 3)), np.empty((len(val_records), len(seg_ids)))
for k, record in enumerate(val_records):
    probs = ensemble_predict(ensemble, record)
    cc[k], speed[k] = probs.cc, probs.speed_kph
etas = etas_from_speeds(dataset.supersegments, seg_ids, lengths, speed)  # every record's ETAs in one pass
predictions = PredictionTable([r.record_id for r in val_records], seg_ids, [ss.ss_id for ss in dataset.supersegments],
                              cc, etas, speed)

model_core = core_metric(predictions, val_labels).score

# counting baselines on the same split
naive = fit_naive(train_labels, dataset.supersegments)
naive_core = core_metric(
    {r.record_id: {s: naive_segment_probs(naive, s) for s in seg_ids} for r in val_records},
    val_labels,
).score
vc = fit_volume_cluster(cluster_model, train_labels, dataset.supersegments, dataset.graph)
vc_core = core_metric(
    {
        r.record_id: {s: vc.cc_probs[s][assign_cluster(cluster_model, r)] for s in seg_ids}
        for r in val_records
    },
    val_labels,
).score

print(f"\ncongestion cross entropy (lower is better):")
print(f"  naive count     {naive_core:.4f}")
print(f"  volume cluster  {vc_core:.4f}")
print(f"  ensemble model  {model_core:.4f}")

# extended task: mean absolute ETA error from the predicted speeds
labeled = eta_labels(dataset.supersegments, {r.record_id for r in val_records})
model_eta = eta_metric(predictions, labeled).score
naive_eta = eta_metric(
    {key: naive.eta_median[key[1]] for key in labeled}, labeled
).score
print(f"\nETA mean absolute error (seconds):")
print(f"  naive median    {naive_eta:.2f}")
print(f"  model speeds    {model_eta:.2f}")
