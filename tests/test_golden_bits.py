"""Exact figures of a short run on the acceptance city.

The digests below were recorded from a 1-member x 2-epoch run of the
acceptance configuration. Engine changes that claim to keep every bit
(fused ops, reordered bookkeeping) are held to them here. They assume
float64 numpy with the OpenBLAS build it was recorded with; a BLAS that
rounds its products differently fails this test for that reason alone.
"""

import hashlib
from dataclasses import replace

from t4c import autodiff as ad
from t4c.baselines import node_gnn_baseline
from t4c.checkpoint import save_checkpoint
from t4c.model import compute_loss, forward, init_params
from t4c.training import prepare_training, save_runlog, train_one

from test_acceptance import ORDERING_MODEL, ORDERING_TRAIN, ordering_city, ordering_fit  # noqa: F401

GOLDEN_TRAIN = replace(ORDERING_TRAIN, epochs=2)
CHECKPOINT_SHA256 = "2114eec0961545e8e4e2d5f9a7e292b5fe61d49b614c46675d3fd9a2d5f4fb59"
RUNLOG_SHA256 = "134443604331ec396c2504fea8aa4e406e2537d77fbf08d6b4e25e1510677ea3"
NODE_GNN_SCORE_HEX = "0x1.a624f6b09c06bp-1"


def _training_set(dataset, fit):
    cluster_model, priors, *_ = fit
    return prepare_training(
        GOLDEN_TRAIN, dataset, cluster_model, priors, ORDERING_MODEL.prior_mode, ORDERING_MODEL.cc_classes
    )


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_two_epoch_run_reproduces_the_recorded_bits(ordering_city, ordering_fit, tmp_path):
    dataset, _ = ordering_city
    ckpt, runlog = train_one(_training_set(dataset, ordering_fit), ORDERING_MODEL, seed=0)
    assert _sha256(save_checkpoint(tmp_path / "checkpoint.bin", ckpt)) == CHECKPOINT_SHA256
    assert _sha256(save_runlog(tmp_path / "runlog.json", runlog)) == RUNLOG_SHA256
    assert float.hex(node_gnn_baseline(dataset, GOLDEN_TRAIN, seed=0)) == NODE_GNN_SCORE_HEX


def test_one_training_record_records_33_ops(ordering_city, ordering_fit, monkeypatch):
    """Forward plus loss of one record: one op per linear layer and per GNN round."""
    dataset, _ = ordering_city
    ts = _training_set(dataset, ordering_fit)
    record_id = ts.train_records[0].record_id
    store = init_params(ORDERING_MODEL, seed=0)
    recorded = []
    result = ad._result

    def counting_result(data, parents, backward):
        recorded.append(backward)
        return result(data, parents, backward)

    monkeypatch.setattr(ad, "_result", counting_result)
    pred = forward(store, ORDERING_MODEL, ts.seg_graph, ts.features[record_id])
    loss, _ = compute_loss(pred, ts.targets[record_id], ts.cc_weights, ts.vol_weights, ORDERING_MODEL.lambdas)
    assert len(recorded) == 33
    loss.backward()
    assert all(p.grad is not None for _name, p in store.items())
