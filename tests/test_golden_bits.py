"""Exact figures of a short run on the acceptance city.

The digests below were recorded from a 1-member x 2-epoch run of the
acceptance configuration, from the CLI's ``predict`` after a 2-member x
1-epoch ``train`` of that configuration in each prior mode, and from the
CLI's ``synth``, ``fit-clusters``, ``baseline`` (the two counting
baselines, and the naive one with ``--global``) and ``eval-core`` (on the
two counting baselines' predictions) with their defaults, and from the generator on a
second spec that takes its other branches (every node a counter, weak
signal, short days, few supersegments). The generator's draw order is part
of its output, so these digests pin it too. Changes that claim to keep every bit (fused ops, reordered
bookkeeping, the columnar label table, the generator's loops) are held to them here. They assume
float64 numpy with the OpenBLAS build it was recorded with; a BLAS that
rounds its products differently fails this test for that reason alone.
"""

import hashlib
import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from t4c import autodiff as ad
from t4c.baselines import node_gnn_baseline
from t4c.checkpoint import save_checkpoint
from t4c.cli import main
from t4c.data import PredictionTable, SynthSpec, generate_synthetic_city, labels_by_record
from t4c.evaluation import PROB_CLIP, core_metric
from t4c.model import compute_loss, forward, init_params, static_inputs
from t4c.training import prepare_training, save_runlog, train_one

from test_acceptance import ORDERING_MODEL, ORDERING_TRAIN, ordering_city, ordering_fit  # noqa: F401

GOLDEN_TRAIN = replace(ORDERING_TRAIN, epochs=2)
CHECKPOINT_SHA256 = "f57e917e973e5a908626eb183be680617f2f2b28dc5c2abc0c2fe6c778a7f6a1"
RUNLOG_SHA256 = "134443604331ec396c2504fea8aa4e406e2537d77fbf08d6b4e25e1510677ea3"
NODE_GNN_SCORE_HEX = "0x1.a624f6b09c06bp-1"
SYNTH_SHA256 = {
    "edges.csv": "a9b1acd80302db486420d6f09e12a391f2acbac49953f33740c7e48a8a221683",
    "labels.jsonl": "2352764c30d3d9dfd78492f78dd2dbc6fa5b4c9f0ed35d5e57d9c232f0f63815",
    "labels.jsonl.bin": "bfaff4a580424f21f102bcb949a7f794c822985e14cced338e01136d03d11b6f",
    "meta.json": "786befc991670bf1bf086507299c651ce9bcb4ca31a34edb98af0c632cdcc40a",
    "nodes.csv": "1098e82487cc1978181147d27e2939f5ecaa18b5b1dd24d9be316b9acb498042",
    "supersegments.json": "2ac2ac877bec866bae70f2fc646517bd3872870494ac8584af705070c7701070",
    "volumes.jsonl": "e9e76852bbe1b7440083ff91f9ce55412433c5d85ef40b048111fb20ad0a90ef",
}
SECOND_SPEC = SynthSpec(
    num_nodes=15, counter_fraction=1.0, num_records=40, signal=0.3, records_per_day=5, num_supersegments=3
)
SECOND_SPEC_SHA256 = {  # seed 7
    "edges.csv": "a51aff54e048ac62947d708386217cd1dc606ba148723940c7773006feba4a81",
    "labels.jsonl": "f209d73fab6bafc2821139ac7f11337e138d928e454445e32a05a12e486bf24e",
    "labels.jsonl.bin": "6967686763473e0741f43c95e72bdba207d87bd70e5f460464fec9e4d4288153",
    "meta.json": "786befc991670bf1bf086507299c651ce9bcb4ca31a34edb98af0c632cdcc40a",
    "nodes.csv": "81fc518900d34f0f903d68a30c822bb0e6c48dc633ecfbf780176bec50e0cc50",
    "supersegments.json": "3e3f4318952102e5f2e28bdf2efdf05f80b9d9dde223657ba80be99266fe1033",
    "volumes.jsonl": "6c225d4a43425625aae5dce54f2919f8bd277ad4d053f802e5dc9551176781b9",
}
PREDICT_SHA256 = {  # prior mode -> sha256 of predictions.jsonl over every daytime record
    "full": "1664e689035459e248ff7884a867f27d6025d45e0b6829e470b706440fe1ecfc",
    "active_row": "34da48bba145d675c2e387a6eb592807f5a9004c4f2ba96ce7e0206a64297f5e",
}
CLUSTERS_SHA256 = "8d9f63f9ec59b6970cbbfdea2aeea071f71b962190e2ec722e3b9da737846e80"
EVAL_CORE = {  # baseline -> (score hex, sha256 of the report with its per-record scores)
    "naive": ("0x1.0bfb8659c101ep+0", "08cd3ecb5d7f00aa0ad86111144d5b2e32b5ea79f96d8ae9f6965cfe24791eb6"),
    "volume_cluster": ("0x1.06044322eaae5p+0", "82db36e801c0efd2542280585c4c1e26d26c8691e6be554f53d0f6cf32ef21f6"),
}
BASELINE_SHA256 = {  # the counting baselines' files, and the naive baseline's with --global in global/
    "baselines/baseline_naive.json": "6052c2ea7ddae8822ddd01690910e6bbaaca0c27e707d6ec9365225da2f688fb",
    "baselines/predictions_naive.jsonl": "c5c047f74df1245de4cc0d9cbca191db1ae5e4ebdb2dc9a123471eed86c8eda0",
    "baselines/baseline_volume_cluster.json": "bbd1250eb7f6a6178acfe5e813c661df5f3b70456723a6f06d1551e0e3f72e74",
    "baselines/predictions_volume_cluster.jsonl": "d747a6bcf62ec70bb388dc72b4c803ec267ad56488db7bd93de1d45daefe3e3c",
    "global/baseline_naive.json": "52b5b513048c4ebf5d717ff596c5dc9bd6f83800efc477c5cdd62bee970f9045",
    "global/predictions_naive.jsonl": "b7aa2cd64fe1a7d283b2839b4a0081875785a77113ce2b32491f6d4d884bdf54",
}


def _training_set(dataset, fit):
    cluster_model, priors, *_ = fit
    return prepare_training(GOLDEN_TRAIN, dataset, cluster_model, priors, ORDERING_MODEL)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_two_epoch_run_reproduces_the_recorded_bits(ordering_city, ordering_fit, tmp_path):
    dataset, _ = ordering_city
    ckpt, runlog = train_one(_training_set(dataset, ordering_fit), ORDERING_MODEL, seed=0)
    assert _sha256(save_checkpoint(tmp_path / "checkpoint.bin", ckpt)) == CHECKPOINT_SHA256
    assert _sha256(save_runlog(tmp_path / "runlog.json", runlog)) == RUNLOG_SHA256
    assert float.hex(node_gnn_baseline(dataset, GOLDEN_TRAIN, seed=0)) == NODE_GNN_SCORE_HEX


@pytest.mark.parametrize("prior_mode", sorted(PREDICT_SHA256))
def test_two_member_predictions_reproduce_the_recorded_bits(ordering_city, tmp_path, prior_mode):
    _, city = ordering_city
    config = {
        "data": str(city),
        "model": asdict(replace(ORDERING_MODEL, prior_mode=prior_mode)),
        "train": asdict(replace(ORDERING_TRAIN, epochs=1, ensemble_size=2)),
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    wd = ["--workdir", str(tmp_path)]
    common = ["--config", "config.json", "--cluster-model", "clusters.json"]
    assert main(wd + ["fit-clusters", "--config", "config.json", "--out", "clusters.json"]) == 0
    assert main(wd + ["train", *common, "--out", "run"]) == 0
    assert main(wd + ["predict", *common, "--run", "run", "--records", "all", "--out", "predictions.jsonl"]) == 0
    assert _sha256(tmp_path / "predictions.jsonl") == PREDICT_SHA256[prior_mode]


# The ops of one acceptance-config record, in the order its plan runs them forward: the static
# block and its layer, the volume layer, the combine layer on both, two GNN rounds, then each
# head (a residual block of two layers, the second adding its skip, and the output layer) with
# its loss, the last head first, and the loss weighting.
RECORD_OPS = (
    "embed_concat", "linear", "linear", "concat", "linear", "gnn_round", "gnn_round",
    "linear", "linear", "linear", "weighted_cross_entropy",
    "linear", "linear", "linear", "reshape", "mse",
    "linear", "linear", "linear", "weighted_cross_entropy",
    "weighted_sum",
)


def test_one_training_record_runs_the_fused_ops(ordering_city, ordering_fit, monkeypatch):
    """Forward plus loss of one record: one op per block (static input block, linear layer with
    or without its skip, GNN round, loss weighting), in the plan a run traces and in the plan of a
    one-shot backward; the backward reaches every parameter."""
    dataset, _ = ordering_city
    ts = _training_set(dataset, ordering_fit)
    plans = []
    trace = ad.Plan.trace
    monkeypatch.setattr(ad.Plan, "trace", lambda fn, inputs: plans.append(trace(fn, inputs)) or plans[-1])
    train_one(replace(ts, train_cfg=replace(GOLDEN_TRAIN, epochs=1)), ORDERING_MODEL, seed=0)
    assert [plan.ops for plan in plans] == [RECORD_OPS]

    record_id = ts.train_records[0].record_id
    store = init_params(ORDERING_MODEL, seed=0)
    static_in = static_inputs(ORDERING_MODEL, ts.graph, ts.priors, ts.norm_stats, ts.rows[record_id])
    pred = forward(store, ORDERING_MODEL, ts.graph, static_in, ts.counter_slices[record_id])
    loss, _ = compute_loss(pred, ts.targets[record_id], ts.cc_weights, ts.vol_weights, ORDERING_MODEL.lambdas)
    assert ad.Plan([loss]).ops == plans[0].ops
    loss.backward()
    assert all(p.grad.any() for _name, p in store.items())


def test_synth_fit_clusters_and_eval_core_reproduce_the_recorded_bits(tmp_path):
    wd = ["--workdir", str(tmp_path)]
    assert main(wd + ["synth", "--out", "city"]) == 0
    assert {path.name: _sha256(path) for path in (tmp_path / "city").iterdir()} == SYNTH_SHA256
    assert main(wd + ["fit-clusters", "--data", "city", "--out", "clusters.json"]) == 0
    assert _sha256(tmp_path / "clusters.json") == CLUSTERS_SHA256
    for name, (score_hex, report_sha256) in EVAL_CORE.items():
        assert main(wd + ["baseline", name, "--data", "city", "--out", "baselines"]) == 0
        pred = f"baselines/predictions_{name}.jsonl"
        assert main(wd + ["eval-core", "--data", "city", "--pred", pred, "--out", f"core_{name}.json"]) == 0
        report = tmp_path / f"core_{name}.json"
        assert (float.hex(json.loads(report.read_text())["metric"]), _sha256(report)) == (score_hex, report_sha256)
    assert main(wd + ["baseline", "naive", "--global", "--data", "city", "--out", "global"]) == 0
    assert {name: _sha256(tmp_path / name) for name in BASELINE_SHA256} == BASELINE_SHA256


def test_bundle_views_and_core_metric_over_bundles_read_the_label_table(ordering_city):
    """``labels_by_record``, ``bundle.edges`` and ``core_metric`` over a dict of
    per-segment vectors and a list of bundles are what the benchmark reads; they
    give the table's values, and the score a per-label loop adds up."""
    table = ordering_city[0].labels
    bundles = labels_by_record(table)
    assert list(bundles) == list(table.record_ids)
    for row, bundle in enumerate(bundles.values()):
        expected = {}
        for col, seg_id in enumerate(table.segment_ids):
            cc, speed, vol = int(table.cc[row, col]), float(table.speed_kph[row, col]), int(table.vol_class[row, col])
            if cc >= 0 or not np.isnan(speed) or vol >= 0:
                expected[seg_id] = (None if cc < 0 else cc, None if np.isnan(speed) else speed, None if vol < 0 else vol)
        assert {seg: (lab.cc, lab.speed_kph, lab.vol_class) for seg, lab in bundle.edges.items()} == expected

    rng = np.random.default_rng(0)
    probs = {rid: rng.dirichlet(np.ones(3), size=len(table.segment_ids)) for rid in table.record_ids}
    predictions = {rid: dict(zip(table.segment_ids, p)) for rid, p in probs.items()}
    score = core_metric(predictions, list(bundles.values()))
    block = PredictionTable(list(probs), table.segment_ids, (), np.array(list(probs.values())), np.empty((len(probs), 0)))
    assert score == core_metric(block, table)
    total, n, per_record = 0.0, 0, {}
    for rid, bundle in bundles.items():  # the per-label loop the table replaced: per record, then over records
        record_total, record_n = 0.0, 0
        for seg_id, lab in bundle.edges.items():
            if lab.cc in (1, 2, 3):
                record_total += -np.log(min(max(float(predictions[rid][seg_id][lab.cc - 1]), PROB_CLIP), 1.0))
                record_n += 1
        per_record[rid] = record_total / record_n
        total += record_total
        n += record_n
    assert (score.score, score.n_scored, score.per_record) == (total / n, n, per_record)


def test_synth_of_a_second_spec_reproduces_the_recorded_bits(tmp_path):
    generate_synthetic_city(SECOND_SPEC, 7, tmp_path / "city")
    assert {path.name: _sha256(path) for path in (tmp_path / "city").iterdir()} == SECOND_SPEC_SHA256
