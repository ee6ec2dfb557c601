"""Sparse loop-counter traffic forecasting on road-segment graphs.

From one hour of sparse counter volumes the toolkit predicts, per road
segment, a congestion class, a speed and a volume class 15 minutes ahead,
and sums segment travel times into super-segment ETAs. It ships its own
reverse-mode autodiff engine, the volume-cluster congestion priors, a
segments-as-nodes message-passing network with multi-task heads, seeded
ensembling, two statistical baselines plus a node-level GNN, the scoring
metrics, and a synthetic-city generator for end-to-end experiments.
"""

from .autodiff import ParamStore, ShapeError, Tensor, adam_step
from .clustering import (ClusterModel, PriorMatrix, assign_cluster, build_prior_matrices, fit_clusters,
                         load_cluster_model, save_cluster_model, volume_sum)
from .data import (Dataset, DatasetError, LabelBundle, PredictionTable, RoadGraph, SchemaError, SegmentLabel, SegmentRec,
                   SuperSegment, SynthSpec, VolumeRecord, daytime_filter, generate_synthetic_city, load_dataset,
                   read_predictions, split_train_validation, write_dataset, write_predictions)
from .evaluation import CoreScore, EtaScore, core_metric, eta_metric, etas_from_speeds
from .baselines import fit_naive, fit_volume_cluster, node_gnn_baseline
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .model import ModelConfig, compute_loss, forward, init_params, predict_probabilities
from .seggraph import FeatureBundle, NormStats, SegmentGraph, assemble_features, build_line_graph, fit_normalization
from .training import (Ensemble, RunLog, TrainConfig, TrainingSet, ensemble_predict, prepare_ensemble,
                       prepare_training, run_ablation, train_ensemble, train_one)

__version__ = "0.1.0"
