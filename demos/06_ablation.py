"""Ablation: what each model component contributes.

Trains four variants with identical seed and data order: the full model,
one with the prior block zeroed (no_cluster), one with the static
attribute inputs zeroed (no_static), and one without message passing
(no_gnn). The scores mirror the component-wise comparison on the
validation split; removing the clustering priors hurts the most on data
whose congestion tracks global volume.
"""

import tempfile
from pathlib import Path

from t4c.clustering import build_prior_matrices, fit_clusters
from t4c.data import SynthSpec, generate_synthetic_city, daytime_filter, split_train_validation
from t4c.model import ModelConfig
from t4c.training import TrainConfig, run_ablation

out = Path(tempfile.mkdtemp()) / "city"
dataset = generate_synthetic_city(
    SynthSpec(num_nodes=40, counter_fraction=0.1, num_records=120, signal=0.9, records_per_day=12),
    seed=21,
    out_dir=out,
)

train_cfg = TrainConfig(epochs=8, batch_size=2, learning_rate=5e-3, ensemble_size=1)
model_cfg = ModelConfig(
    volume_hidden=(16,), static_hidden=(16,), gnn_layers=2, hidden=32,
    head_blocks=1, num_clusters=5, prior_mode="active_row",
)

records = daytime_filter(dataset.records, *train_cfg.daytime)
train_records, _ = split_train_validation(records, 1 - train_cfg.val_fraction, train_cfg.split_seed)
cluster_model = fit_clusters(train_records, model_cfg.num_clusters)
priors, _support = build_prior_matrices(
    cluster_model, dataset.labels.select(r.record_id for r in train_records), dataset.graph
)

result = run_ablation(
    dataset,
    ["full", "no_cluster", "no_static", "no_gnn"],
    cluster_model,
    priors,
    train_cfg,
    model_cfg,
    seed=0,
)

print("validation core score per variant (lower is better):")
for variant, score in result.scores.items():
    print(f"  {variant:<11} {score:.5f}  (best epoch {result.best_epochs[variant]})")

hashes = set(result.data_order_hashes.values())
print(f"\nidentical data order across variants: {len(hashes) == 1}")
print(result.as_csv())
