"""End-to-end: clusters, a small ensemble, predictions, and both metrics.

Trains two seeds for a few epochs on a synthetic city, averages their
probabilities, scores congestion cross entropy against the two counting
baselines, and synthesizes supersegment ETAs from the predicted speeds.
Runs in well under a minute.
"""

import tempfile
from pathlib import Path

import numpy as np

from t4c.baselines import fit_naive, fit_volume_cluster
from t4c.clustering import assign_cluster, build_prior_matrices, fit_clusters
from t4c.data import PredictionTable, SynthSpec, generate_synthetic_city, daytime_filter, split_train_validation
from t4c.evaluation import core_metric, eta_labels, eta_metric, etas_from_speeds
from t4c.model import ModelConfig
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
priors, _support = build_prior_matrices(cluster_model, train_labels, dataset.graph)  # (segments, K, 3)

members = train_ensemble(train_cfg, model_cfg, dataset, cluster_model, priors)
for ckpt, runlog in members:
    print(f"member seed={runlog.seed}: best epoch {runlog.best_epoch}, "
          f"val core {runlog.epochs[runlog.best_epoch].val_core:.4f}")

# ensemble predictions on the validation records, as one table: (records, segments) blocks in the graph's segment order
checkpoints = [ckpt for ckpt, _ in members]
seg_ids = dataset.graph.segment_ids
lengths = [s.length_meters for s in dataset.graph.segments]
# once per stage: checks the members' configs and builds each member's static branch for every cluster
ensemble = prepare_ensemble(checkpoints, dataset.graph, priors, cluster_model)

cc, speed = np.empty((len(val_records), len(seg_ids), 3)), np.empty((len(val_records), len(seg_ids)))
for k, record in enumerate(val_records):
    probs = ensemble_predict(ensemble, record)
    cc[k], speed[k] = probs.cc, probs.speed_kph
etas = etas_from_speeds(dataset.supersegments, seg_ids, lengths, speed)  # every record's ETAs in one pass
predictions = PredictionTable([r.record_id for r in val_records], seg_ids, [ss.ss_id for ss in dataset.supersegments],
                              cc, etas, speed)

model_core = core_metric(predictions, val_labels).score

# counting baselines on the same split, as tables: the naive block (segments, 3) serves every record, the
# volume-cluster block (segments, K, 3) each record's cluster
train_ids = [r.record_id for r in train_records]  # the ETA medians count every training record
naive = fit_naive(train_labels, dataset.supersegments, train_ids)
vc = fit_volume_cluster(cluster_model, train_labels, dataset.supersegments, train_ids, dataset.graph)
clusters = [assign_cluster(cluster_model, r) for r in val_records]
val_ids, no_etas = [r.record_id for r in val_records], np.empty((len(val_records), 0))
naive_cc = np.array([naive.cc_probs] * len(val_ids))
naive_core = core_metric(PredictionTable(val_ids, naive.segment_ids, [], naive_cc, no_etas), val_labels).score
vc_cc = vc.cc_probs[:, clusters].swapaxes(0, 1)
vc_core = core_metric(PredictionTable(val_ids, naive.segment_ids, [], vc_cc, no_etas), val_labels).score

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
