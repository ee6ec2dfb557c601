"""Pipeline contracts: stage chaining, file formats, exit codes,
determinism of artifacts, and flag/config precedence."""

import argparse
import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import t4c.data as data_module
from t4c.cli import _SECTIONS, _config_from, build_parser, main
from t4c.clustering import fit_clusters
from t4c.data import PredictionTable, SynthSpec, _predictions_copy, load_dataset, read_predictions, write_predictions
from t4c.model import ModelConfig, config_hash
from t4c.training import TrainConfig, split_records

from conftest import rewrite_checkpoint_header, write_body_value, write_version_1_copy

CITY_ARGS = [
    "synth", "--out", "data/toy", "--nodes", "25", "--counter-frac", "0.2",
    "--records", "60", "--signal", "0.9", "--seed", "1", "--records-per-day", "10",
]
ONE_MODEL_ARGS = ["--epochs", "2", "--hidden", "16", "--gnn-layers", "2", "--k", "5"]  # ablate takes no --members
SMALL_TRAIN_ARGS = ["--members", "2", *ONE_MODEL_ARGS]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth + fit-clusters + train once; later tests read the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    wd = ["--workdir", str(root)]
    assert main(wd + CITY_ARGS) == 0
    assert main(wd + ["fit-clusters", "--data", "data/toy", "--k", "5", "--out", "cluster_model.json"]) == 0
    assert main(wd + [
        "train", "--data", "data/toy", "--cluster-model", "cluster_model.json",
        "--out", "runs/demo", *SMALL_TRAIN_ARGS,
    ]) == 0
    return root


def test_synth_then_fit_clusters_writes_model(pipeline):
    path = pipeline / "cluster_model.json"
    assert path.is_file()
    obj = json.loads(path.read_text())
    assert obj["K"] == 5
    assert len(obj["thresholds"]) == 4
    dataset = load_dataset(pipeline / "data/toy")
    assert set(obj["priors"]) == {s.segment_id for s in dataset.graph.segments}


def test_train_writes_one_directory_per_member(pipeline):
    members = sorted(p.name for p in (pipeline / "runs/demo").iterdir() if p.name.startswith("member_"))
    assert members == ["member_0", "member_1"]
    for member in members:
        assert (pipeline / "runs/demo" / member / "checkpoint.bin").is_file()
        assert (pipeline / "runs/demo" / member / "runlog.json").is_file()


def test_default_ensemble_size_is_nine():
    assert TrainConfig().ensemble_size == 9
    assert len(TrainConfig().seeds()) == 9


def test_predict_then_eval_core_and_eta(pipeline, capsys):
    wd = ["--workdir", str(pipeline)]
    assert main(wd + [
        "predict", "--data", "data/toy", "--cluster-model", "cluster_model.json",
        "--run", "runs/demo", "--out", "predictions.jsonl",
    ]) == 0
    capsys.readouterr()
    assert main(wd + [
        "eval-core", "--data", "data/toy", "--pred", "predictions.jsonl",
        "--out", "core.json", "--csv", "core.csv",
    ]) == 0
    out = capsys.readouterr().out.strip()
    float(out)  # prints the score
    report = json.loads((pipeline / "core.json").read_text())
    assert set(report) == {"metric", "per_record", "n_scored"}
    assert report["n_scored"] > 0
    assert (pipeline / "core.csv").read_text().startswith("record_id,core_score")

    assert main(wd + ["eval-eta", "--data", "data/toy", "--pred", "predictions.jsonl", "--out", "eta.json"]) == 0
    eta_report = json.loads((pipeline / "eta.json").read_text())
    assert eta_report["metric"] >= 0.0
    assert eta_report["n_scored"] > 0


def test_eval_core_on_uniform_predictions_prints_ln3(pipeline, capsys):
    dataset = load_dataset(pipeline / "data/toy")
    uniform = [
        {
            "record_id": r.record_id,
            "segments": {
                s.segment_id: {"cc": [1 / 3, 1 / 3, 1 / 3], "speed": None, "vol": None}
                for s in dataset.graph.segments
            },
            "etas": {},
        }
        for r in dataset.records[:5]
    ]
    pred_path = pipeline / "uniform.jsonl"
    with open(pred_path, "w") as fh:
        for row in uniform:
            fh.write(json.dumps(row) + "\n")
    assert main(["--workdir", str(pipeline), "eval-core", "--data", "data/toy", "--pred", "uniform.jsonl"]) == 0
    assert capsys.readouterr().out.strip() == "1.098612"


def test_rerun_is_byte_identical(pipeline, tmp_path):
    wd = ["--workdir", str(pipeline)]
    first = (pipeline / "cluster_model.json").read_bytes()
    assert main(wd + ["fit-clusters", "--data", "data/toy", "--k", "5", "--out", "cluster_model2.json"]) == 0
    assert (pipeline / "cluster_model2.json").read_bytes() == first

    ckpt_first = (pipeline / "runs/demo/member_0/checkpoint.bin").read_bytes()
    runlog_first = (pipeline / "runs/demo/member_0/runlog.json").read_bytes()
    assert main(wd + [
        "train", "--data", "data/toy", "--cluster-model", "cluster_model.json",
        "--out", "runs/demo2", *SMALL_TRAIN_ARGS,
    ]) == 0
    assert (pipeline / "runs/demo2/member_0/checkpoint.bin").read_bytes() == ckpt_first
    assert (pipeline / "runs/demo2/member_0/runlog.json").read_bytes() == runlog_first


def test_baseline_subcommands(pipeline, capsys):
    wd = ["--workdir", str(pipeline)]
    assert main(wd + ["baseline", "naive", "--data", "data/toy", "--out", "baselines"]) == 0
    assert (pipeline / "baselines/baseline_naive.json").is_file()
    rows = (pipeline / "baselines/predictions_naive.jsonl").read_text().splitlines()
    assert len(rows) == 10  # one validation day of 10 records
    capsys.readouterr()
    assert main(wd + ["eval-core", "--data", "data/toy", "--pred", "baselines/predictions_naive.jsonl"]) == 0
    float(capsys.readouterr().out.strip())

    assert main(wd + ["baseline", "volume_cluster", "--data", "data/toy", "--out", "baselines", "--k", "5"]) == 0
    assert (pipeline / "baselines/baseline_volume_cluster.json").is_file()

    # literal city-wide reading: every segment carries the pooled distribution
    assert main(wd + ["baseline", "naive", "--data", "data/toy", "--out", "baselines_global", "--global"]) == 0
    rows = [json.loads(l) for l in (pipeline / "baselines_global/predictions_naive.jsonl").read_text().splitlines()]
    first = rows[0]["segments"]
    distributions = {tuple(entry["cc"]) for entry in first.values()}
    assert len(distributions) == 1

    assert main(wd + ["baseline", "node_gnn", "--data", "data/toy", "--out", "baselines", "--epochs", "2"]) == 0
    gnn = json.loads((pipeline / "baselines/baseline_node_gnn.json").read_text())
    assert gnn["val_core"] > 0


K_FLAG = {"naive": [], "volume_cluster": ["--k", "3"]}  # only the volume-cluster baseline takes --k


@pytest.mark.parametrize("name, flag", [
    ("naive", ["--k", "3"]), ("naive", ["--epochs", "7"]), ("naive", ["--batch", "4"]), ("naive", ["--lr", "0.5"]),
    ("naive", ["--seed", "9"]),
    ("volume_cluster", ["--global"]), ("volume_cluster", ["--epochs", "7"]), ("volume_cluster", ["--lr", "0.5"]),
    ("volume_cluster", ["--seed", "9"]),
    ("node_gnn", ["--global"]), ("node_gnn", ["--k", "3"]),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_a_baseline_refuses_a_flag_it_does_not_read(pipeline, tmp_path, name, flag):
    """``baseline naive --epochs 7 --lr 0.5 --seed 9 --k 3`` exited 0 with the bytes of a run without those flags."""
    code, err = _run(["baseline", name, "--data", pipeline / "data/toy", "--out", tmp_path / "out", *flag])
    assert code == 1, err
    assert f"unrecognized arguments: {' '.join(flag)}" in err
    assert not (tmp_path / "out").exists()


def test_baseline_volume_cluster_counts_the_etas_of_the_records_the_naive_baseline_counts(tmp_path):
    """A super-segment whose ETAs only training records without a label line carry, none in cluster 0, once gave
    cluster 0 a NaN median, and then no median at all: both baselines now count every training record's ETAs, so
    cluster 0 takes the naive median."""
    wd = ["--workdir", str(tmp_path)]
    assert main(wd + ["synth", "--out", "city", "--nodes", "12", "--records", "32", "--records-per-day", "16"]) == 0
    dataset = load_dataset(tmp_path / "city")
    cluster_of = fit_clusters(split_records(dataset, TrainConfig())[1], 3).assignment
    kept = max(cluster_of)  # the one record with a label line
    labels = tmp_path / "city/labels.jsonl"
    labels.write_text("".join(line for line in labels.read_text().splitlines(keepends=True)
                              if json.loads(line)["record_id"] == kept))
    ss_path = tmp_path / "city/supersegments.json"
    obj = json.loads(ss_path.read_text())
    obj["etas"] = [e for e in obj["etas"] if e["record_id"] != kept and cluster_of.get(e["record_id"]) != 0]
    ss_path.write_text(json.dumps(obj))
    timed = {e["ss_id"] for e in obj["etas"] if e["record_id"] in cluster_of}  # by a training record
    assert timed

    def refuse(constant):
        raise AssertionError(f"{constant} in a baseline file")

    for name in ("naive", "volume_cluster"):
        assert main(wd + ["baseline", name, "--data", "city", "--out", "bl", *K_FLAG[name]]) == 0
        assert set(json.loads((tmp_path / f"bl/baseline_{name}.json").read_text(), parse_constant=refuse)["eta_median"]) \
            == timed
        for line in (tmp_path / f"bl/predictions_{name}.jsonl").read_text().splitlines():
            assert set(json.loads(line, parse_constant=refuse)["etas"]) == timed


def test_the_counting_baselines_count_the_etas_of_the_training_records_without_a_label_line(tmp_path, capsys):
    """One training record keeps its label line and loses its ss00 ETA. The other training records' ss00 ETAs come
    from supersegments.json, not from the labels, so both baselines predict ss00 and eval-eta scores their files."""
    wd = ["--workdir", str(tmp_path)]
    assert main(wd + ["synth", "--out", "city", "--nodes", "12", "--records", "32", "--records-per-day", "16"]) == 0
    train_ids = {r.record_id for r in split_records(load_dataset(tmp_path / "city"), TrainConfig())[1]}
    kept = min(train_ids)
    labels = tmp_path / "city/labels.jsonl"
    labels.write_text("".join(line for line in labels.read_text().splitlines(keepends=True)
                              if json.loads(line)["record_id"] == kept))
    ss_path = tmp_path / "city/supersegments.json"
    obj = json.loads(ss_path.read_text())
    obj["etas"] = [e for e in obj["etas"] if (e["record_id"], e["ss_id"]) != (kept, "ss00")]
    ss_path.write_text(json.dumps(obj))
    etas = sorted(e["eta_s"] for e in obj["etas"] if e["ss_id"] == "ss00" and e["record_id"] in train_ids)
    assert len(etas) >= 2

    for name in ("naive", "volume_cluster"):
        assert main(wd + ["baseline", name, "--data", "city", "--out", "bl", *K_FLAG[name]]) == 0
        capsys.readouterr()
        assert main(wd + ["eval-eta", "--data", "city", "--pred", f"bl/predictions_{name}.jsonl"]) == 0, \
            capsys.readouterr().err
    naive = json.loads((tmp_path / "bl/baseline_naive.json").read_text())
    assert naive["eta_median"]["ss00"] == etas[(len(etas) - 1) // 2]  # the lower median


def test_train_refuses_a_run_directory_with_more_members_and_deletes_nothing(pipeline, capsys):
    """``predict`` averages every member_k it finds, so older members past the new count would join the ensemble."""
    wd = ["--workdir", str(pipeline)]
    run = pipeline / "runs/shrunk"
    shutil.copytree(pipeline / "runs/demo", run)
    before = sorted(path.name for path in run.rglob("*"))
    capsys.readouterr()
    code = main(wd + ["train", "--data", "data/toy", "--cluster-model", "cluster_model.json", "--out", "runs/shrunk",
                      *SMALL_TRAIN_ARGS, "--members", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert str(run / "member_1") in err and "fresh --out" in err
    assert sorted(path.name for path in run.rglob("*")) == before
    assert (run / "member_0/checkpoint.bin").read_bytes() == (pipeline / "runs/demo/member_0/checkpoint.bin").read_bytes()


def test_ablate_single_variant(pipeline):
    wd = ["--workdir", str(pipeline)]
    assert main(wd + [
        "ablate", "--data", "data/toy", "--cluster-model", "cluster_model.json",
        "--variants", "full", "--out", "ablation", "--epochs", "1",
        "--hidden", "16", "--gnn-layers", "2", "--k", "5",
    ]) == 0
    obj = json.loads((pipeline / "ablation/ablation.json").read_text())
    assert list(obj["scores"]) == ["full"]
    csv_lines = (pipeline / "ablation/ablation.csv").read_text().splitlines()
    assert csv_lines[0] == "variant,val_core,best_epoch"
    assert len(csv_lines) == 2

    assert main(wd + ["report", "--runs", "runs/demo", "--ablation", "ablation/ablation.json", "--out", "report"]) == 0
    assert (pipeline / "report/ablation.csv").read_bytes() == (pipeline / "ablation/ablation.csv").read_bytes()


def test_report_renders_csv_and_svg(pipeline):
    wd = ["--workdir", str(pipeline)]
    assert main(wd + ["report", "--runs", "runs/demo", "--out", "report"]) == 0
    csv_text = (pipeline / "report/report.csv").read_text()
    expected = "member,seed,best_epoch,best_val_core,final_train_loss\n"
    for member in ("member_0", "member_1"):  # each row keeps the bytes of name,seed,best_epoch,{best:.6f},{loss:.6f}
        log = json.loads((pipeline / f"runs/demo/{member}/runlog.json").read_text())
        best, last = log["epochs"][log["best_epoch"]]["val_core"], log["epochs"][-1]["train_loss"]
        expected += f"{member},{log['seed']},{log['best_epoch']},{best:.6f},{last:.6f}\n"
    assert csv_text == expected
    svg = (pipeline / "report/val_curves.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_predict_and_report_refuse_a_member_directory_that_is_not_a_member(pipeline, capsys):
    """A run's members are exactly member_0 up to member_{n-1}, as train writes them. Any other member_* directory (an
    older run's copy, a name that CSV or SVG would have to quote, a number written another way, a gap) is refused,
    where predict once averaged it in and report listed it."""
    wd = ["--workdir", str(pipeline)]
    run = pipeline / "runs/stray"
    shutil.copytree(pipeline / "runs/demo", run)
    stages = (["predict", "--data", "data/toy", "--cluster-model", "cluster_model.json", "--run", "runs/stray",
               "--out", "stray.jsonl"], ["report", "--runs", "runs/stray", "--out", "report_stray"])
    for stray in ("member_0_old", "member_1,a&<b>", "member_01", "member_-1", "member_2"):
        if stray == "member_2":  # member_0 and member_2: member_1 is missing
            (run / "member_1").rename(run / stray)
        else:
            shutil.copytree(run / "member_0", run / stray)
        for stage in stages:
            capsys.readouterr()
            assert main(wd + stage) == 1, (stray, stage[0])
            err = capsys.readouterr().err
            assert str(run / stray) in err and "`t4c train`" in err, err
        if stray != "member_2":
            shutil.rmtree(run / stray)
    assert not (pipeline / "stray.jsonl").exists() and not (pipeline / "report_stray").exists()


def test_missing_prerequisite_names_producer(tmp_path, capsys):
    wd = ["--workdir", str(tmp_path)]
    assert main(wd + CITY_ARGS) == 0
    code = main(wd + [
        "train", "--data", "data/toy", "--cluster-model", "cluster_model.json",
        "--out", "runs/x", "--epochs", "1",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "fit-clusters" in err


def test_supersegments_paths_written_as_a_list_exit_1_naming_the_file(pipeline, tmp_path, capsys):
    wd = ["--workdir", str(tmp_path)]
    shutil.copytree(pipeline / "data/toy", tmp_path / "data/toy")
    ss_path = tmp_path / "data/toy/supersegments.json"
    obj = json.loads(ss_path.read_text())
    obj["paths"] = list(obj["paths"].values())
    ss_path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(wd + ["baseline", "naive", "--data", "data/toy", "--out", "bl"]) == 1
    err = capsys.readouterr().err
    assert "supersegments.json" in err and "paths" in err


def test_predict_refuses_cluster_model_of_other_k(pipeline, capsys):
    wd = ["--workdir", str(pipeline)]
    assert main(wd + [
        "train", "--data", "data/toy", "--cluster-model", "cluster_model.json", "--out", "runs/active",
        "--members", "1", "--epochs", "1", "--hidden", "8", "--gnn-layers", "1", "--k", "5",
        "--prior-mode", "active_row",
    ]) == 0
    assert main(wd + ["fit-clusters", "--data", "data/toy", "--k", "3", "--out", "cluster_k3.json"]) == 0
    capsys.readouterr()
    code = main(wd + [
        "predict", "--data", "data/toy", "--cluster-model", "cluster_k3.json",
        "--run", "runs/active", "--out", "active.jsonl",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "K=3" in err and "num_clusters=5" in err and "fit-clusters" in err
    assert not (pipeline / "active.jsonl").exists()


def test_invalid_synth_spec_exits_one(tmp_path, capsys):
    code = main(["--workdir", str(tmp_path), "synth", "--out", "d", "--signal", "2.0"])
    assert code == 1
    assert "signal" in capsys.readouterr().err


def test_unknown_flag_exits_one(tmp_path, capsys):
    assert main(["--workdir", str(tmp_path), "synth", "--out", "d", "--bogus"]) == 1


def test_eval_core_without_predictions_exits_one(pipeline, capsys):
    code = main(["--workdir", str(pipeline), "eval-core", "--data", "data/toy", "--pred", "nope.jsonl"])
    assert code == 1
    assert "predict" in capsys.readouterr().err


def test_help_lists_flags_with_defaults(capsys):
    assert main(["train", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--epochs", "--batch", "--lr", "--members", "--seed", "--gnn-layers",
                 "--hidden", "--prior-mode", "--val-fraction", "--split-seed"):
        assert flag in out
    assert "default" in out
    assert main(["synth", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())  # help text wraps lines
    for value in asdict(SynthSpec()).values():  # each default is SynthSpec's, shown once
        assert out.count(f"(default: {value})") == 1
    assert "None" not in out


def _field_flags(parser=None, words=()):
    """(the words of a (sub)subcommand, its parser, the flag's action) for every flag whose dest is a config
    field's path."""
    commands = next(a for a in (parser or build_parser())._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in commands.choices.items():
        for action in sub._actions:
            if isinstance(action, argparse._SubParsersAction):  # baseline <name>
                yield from _field_flags(sub, (*words, name))
            elif "." in action.dest:
                yield (*words, name), sub, action


def _required_argv(sub) -> list[str]:
    argv = []
    for action in sub._actions:
        if not action.option_strings:  # a positional
            argv.append(action.choices[0])
        elif action.required:
            argv += [action.option_strings[0], "x"]
    return argv


def test_every_field_flag_sets_the_field_its_dest_names():
    flags = list(_field_flags())
    assert {name for name, _, _ in flags} == {("synth",), ("fit-clusters",), ("train",), ("predict",), ("ablate",),
                                              ("baseline", "naive"), ("baseline", "volume_cluster"),
                                              ("baseline", "node_gnn")}
    for name, sub, action in flags:
        section, field, *index = action.dest.split(".")
        assert field in {f.name for f in fields(_SECTIONS[section])}, action.dest
        default = getattr(_SECTIONS[section](), field)
        if index:
            assert isinstance(default, tuple) and 0 <= int(index[0]) < len(default), action.dest
            default = default[int(index[0])]
        if action.choices:
            value = next(c for c in action.choices if c != default)
        else:  # a valid value other than the default, of the field's type
            value = default + 1 if type(default) is int else default / 2 if type(default) is float else default + "x"
        args = build_parser().parse_args([*name, *_required_argv(sub), action.option_strings[0], str(value)])
        config = _config_from(args, {}, section)
        got = getattr(config, field)[int(index[0])] if index else getattr(config, field)
        assert got == value and type(got) is type(value), (name, action.dest)
        assert config == replace(_SECTIONS[section](), **{field: getattr(config, field)})  # no other field moved


def test_config_file_unknown_key_rejected(pipeline, capsys):
    cfg_path = pipeline / "bad_config.json"
    cfg_path.write_text(json.dumps({"data": "data/toy", "nonsense": 1}))
    code = main(["--workdir", str(pipeline), "fit-clusters", "--config", "bad_config.json"])
    assert code == 1
    assert "nonsense" in capsys.readouterr().err

    cfg_path.write_text(json.dumps({"train": {"bogus_knob": 3}}))
    code = main(["--workdir", str(pipeline), "fit-clusters", "--config", "bad_config.json", "--data", "data/toy"])
    assert code == 1
    assert "bogus_knob" in capsys.readouterr().err


def test_flags_override_config_values(pipeline):
    cfg_path = pipeline / "config.json"
    cfg_path.write_text(json.dumps({
        "data": "data/toy",
        "model": {"hidden": 16, "gnn_layers": 2, "num_clusters": 5},
        "train": {"epochs": 1, "ensemble_size": 1},
    }))
    wd = ["--workdir", str(pipeline)]
    assert main(wd + [
        "train", "--config", "config.json", "--cluster-model", "cluster_model.json",
        "--out", "runs/cfg", "--members", "2",
    ]) == 0
    members = [p.name for p in (pipeline / "runs/cfg").iterdir() if p.name.startswith("member_")]
    assert sorted(members) == ["member_0", "member_1"]  # flag beat ensemble_size=1
    cfg = json.loads((pipeline / "runs/cfg/train_config.json").read_text())
    assert cfg["train"]["epochs"] == 1  # config value survived where no flag given
    assert cfg["model"]["hidden"] == 16


def test_num_clusters_config_key_drives_every_stage(pipeline, capsys):
    (pipeline / "k5.json").write_text(json.dumps({
        "data": "data/toy",
        "model": {"hidden": 16, "num_clusters": 5},
        "train": {"epochs": 1, "ensemble_size": 1},
    }))
    wd = ["--workdir", str(pipeline)]
    assert main(wd + ["fit-clusters", "--config", "k5.json", "--out", "clusters_k5.json"]) == 0
    assert json.loads((pipeline / "clusters_k5.json").read_text())["K"] == 5
    assert main(wd + ["train", "--config", "k5.json", "--cluster-model", "clusters_k5.json", "--out", "runs/k5"]) == 0
    assert main(wd + ["baseline", "volume_cluster", "--config", "k5.json", "--out", "bl_k5"]) == 0
    assert json.loads((pipeline / "bl_k5/baseline_volume_cluster.json").read_text())["K"] == 5
    # --k beats the config, as on train
    assert main(wd + ["fit-clusters", "--config", "k5.json", "--k", "3", "--out", "clusters_k3.json"]) == 0
    assert json.loads((pipeline / "clusters_k3.json").read_text())["K"] == 3


@pytest.mark.parametrize("damage", [
    lambda text: text[: len(text) // 2],
    lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "best_epoch"}),
    lambda text: json.dumps([json.loads(text)]),
    lambda text: json.dumps({**json.loads(text), "seed": "0"}),
    lambda text: json.dumps({**json.loads(text), "data_order_hash": "not a digest"}),
    lambda text: text.replace('"val_core": ', '"val_core": NaN, "_": ', 1),
], ids=["truncated", "no_best_epoch", "json_list", "seed_string", "hash_not_hex", "val_core_nan"])
def test_report_on_damaged_runlog_exits_one_naming_the_file(pipeline, capsys, damage, request):
    run = pipeline / "runs" / f"damaged_{request.node.callspec.id}"
    shutil.copytree(pipeline / "runs/demo", run)
    runlog = run / "member_1/runlog.json"
    runlog.write_text(damage(runlog.read_text()))
    capsys.readouterr()
    assert main(["--workdir", str(pipeline), "report", "--runs", str(run), "--out", "report_damaged_runlog"]) == 1
    err = capsys.readouterr().err
    assert str(runlog) in err and "t4c train" in err


MALFORMED_ROWS = {
    "list": "[1, 2]",
    "no_record_id": '{"segments": {}}',
    "numeric_record_id": '{"record_id": 7, "segments": {}}',
    "segments_list": '{"record_id": "r0000", "segments": [1, 2]}',
    "etas_number": '{"record_id": "r0000", "etas": 3.5}',
    "segment_entry_list": '{"record_id": "r0000", "segments": {"s0000": [0.2, 0.3, 0.5]}}',
    "eta_list": '{"record_id": "r0000", "etas": {"ss00": [1]}}',
    "eta_string": '{"record_id": "r0000", "etas": {"ss00": "fast"}}',
    "eta_bool": '{"record_id": "r0000", "etas": {"ss00": true}}',
    "eta_huge_int": '{"record_id": "r0000", "etas": {"ss00": 1' + "0" * 400 + '}}',
    "eta_nan": '{"record_id": "r0000", "etas": {"ss00": NaN}}',
    "eta_infinity": '{"record_id": "r0000", "etas": {"ss00": Infinity}}',
    "not_utf8": b'{"record_id": "r0000\xff"}',
    "invalid_json": "{not json",
}
# congestion probabilities that eval-core reads and refuses: every segment of the row carries one
BAD_CC = {
    "cc_nan": [float("nan"), 0.5, 0.5], "cc_infinity": [0.5, float("inf"), 0.5], "cc_string": "abc",
    # numpy reads these as numbers; JSON does not
    "cc_strings": ["0.2", "0.3", "0.5"], "cc_bools": [True, False, False], "cc_bool_mixed": [True, 0.5, 0.5],
    "cc_huge_int": [10**400, 0, 0],
}


@pytest.mark.parametrize("stage, line", [
    *(pytest.param(stage, line, id=f"{name}-{stage}")
      for name, line in MALFORMED_ROWS.items() for stage in ("eval-core", "eval-eta")),
    *(pytest.param("eval-core", {"cc": cc}, id=f"{name}-eval-core") for name, cc in BAD_CC.items()),
])
def test_eval_on_a_malformed_prediction_row_exits_one_naming_path_and_line(pipeline, capsys, stage, line):
    pred = pipeline / "malformed.jsonl"
    segments = [s.segment_id for s in load_dataset(pipeline / "data/toy").graph.segments]
    uniform = {seg: {"cc": [0.2, 0.3, 0.5]} for seg in segments}
    if isinstance(line, dict):  # r0000's row, with the entry on every segment
        line = json.dumps({"record_id": "r0000", "segments": dict.fromkeys(segments, line)})
    good = [json.dumps({"record_id": rid, "segments": uniform, "etas": {"ss00": 61.5}}).encode()
            for rid in ("r0001", "r0002")]
    pred.write_bytes(b"\n".join([good[0], line if isinstance(line, bytes) else line.encode("utf-8"), good[1]]) + b"\n")
    capsys.readouterr()
    assert main(["--workdir", str(pipeline), stage, "--data", "data/toy", "--pred", "malformed.jsonl"]) == 1
    err = capsys.readouterr().err
    assert f"{pred}:2: " in err and "t4c predict" in err


def test_eval_core_scores_the_rows_the_malformed_row_test_builds(pipeline, capsys):
    """The rows around the malformed line score, so a refused cc row is refused for its probabilities."""
    pred = pipeline / "wellformed.jsonl"
    segments = [s.segment_id for s in load_dataset(pipeline / "data/toy").graph.segments]
    uniform = {seg: {"cc": [0.2, 0.3, 0.5]} for seg in segments}
    rows = [{"record_id": rid, "segments": uniform} for rid in ("r0001", "r0000", "r0002")]
    pred.write_text("".join(json.dumps(row) + "\n" for row in rows))
    capsys.readouterr()
    assert main(["--workdir", str(pipeline), "eval-core", "--data", "data/toy", "--pred", "wellformed.jsonl"]) == 0
    assert float(capsys.readouterr().out) > 0.0


@pytest.mark.parametrize("stage", ["eval-core", "eval-eta"])
def test_eval_refuses_a_record_on_two_lines_naming_both(pipeline, capsys, stage):
    """The repeat used to be scored twice: a file with its first line written twice scored more segments."""
    assert main(["--workdir", str(pipeline), "baseline", "naive", "--data", "data/toy", "--out", "twice_bl"]) == 0
    lines = (pipeline / "twice_bl/predictions_naive.jsonl").read_text().splitlines()
    pred = pipeline / "twice.jsonl"
    pred.write_text("\n".join([lines[0], *lines]) + "\n")
    capsys.readouterr()
    assert main(["--workdir", str(pipeline), stage, "--data", "data/toy", "--pred", "twice.jsonl"]) == 1
    err = capsys.readouterr().err
    assert f"{pred}:2: " in err and f"{pred}:1" in err and "t4c predict" in err


def test_a_carriage_return_inside_a_line_is_json_whitespace(pipeline, capsys):
    """Lines split at LF only: a bare CR in a line is whitespace to JSON, and a later line keeps its number."""
    assert main(["--workdir", str(pipeline), "baseline", "naive", "--data", "data/toy", "--out", "cr_bl"]) == 0
    lines = (pipeline / "cr_bl/predictions_naive.jsonl").read_bytes().split(b"\n")
    pred = pipeline / "cr.jsonl"
    scores = []
    for tail in ([], [b"{not json"]):
        pred.write_bytes(b"\n".join([lines[0].replace(b",", b",\r", 1), *lines[1:-1], *tail]) + b"\n")
        capsys.readouterr()
        scores.append((main(["--workdir", str(pipeline), "eval-eta", "--data", "data/toy", "--pred", "cr.jsonl"]),
                       capsys.readouterr()))
    assert main(["--workdir", str(pipeline), "eval-eta", "--data", "data/toy",
                 "--pred", "cr_bl/predictions_naive.jsonl"]) == 0
    assert scores[0] == (0, capsys.readouterr())
    code, (_, err) = scores[1]
    assert code == 1 and f"{pred}:{len(lines)}: invalid JSON" in err


def test_eval_eta_on_a_row_without_an_eta_names_its_line(pipeline, capsys):
    assert main(["--workdir", str(pipeline), "baseline", "naive", "--data", "data/toy", "--out", "no_eta_bl"]) == 0
    rows = [json.loads(line) for line in (pipeline / "no_eta_bl/predictions_naive.jsonl").read_text().splitlines()]
    labelled = {rid for ss in load_dataset(pipeline / "data/toy").supersegments for rid in ss.etas}
    line = next(n for n, row in enumerate(rows, start=1) if row["record_id"] in labelled)
    rows[line - 1]["etas"] = {}
    pred = pipeline / "no_eta.jsonl"
    pred.write_text("".join(json.dumps(row) + "\n" for row in rows))
    capsys.readouterr()
    assert main(["--workdir", str(pipeline), "eval-eta", "--data", "data/toy", "--pred", "no_eta.jsonl"]) == 1
    err = capsys.readouterr().err
    assert f"{pred}:{line}: " in err and "t4c predict" in err


_ABLATION = '{"scores": {"full": %s}, "best_epochs": {"full": %s}, "data_order_hashes": {"full": "ab"}}'


@pytest.mark.parametrize("content", [
    '{"scores": {"full": 0.5}}', "not json", _ABLATION % ("NaN", "0"), _ABLATION % ("0.5", '"0"'),
    _ABLATION.replace('"full"', '"bogus"') % ("0.5", "0"), _ABLATION.replace('"full": "ab"', '"no_gnn": "ab"') % ("0.5", "0"),
], ids=["missing_keys", "not_json", "score_nan", "epoch_string", "unknown_variant", "variants_unlike"])
def test_report_on_damaged_ablation_file_exits_one(pipeline, capsys, content):
    (pipeline / "damaged_ablation.json").write_text(content)
    capsys.readouterr()
    code = main(["--workdir", str(pipeline), "report", "--runs", "runs/demo",
                 "--ablation", "damaged_ablation.json", "--out", "report_damaged"])
    assert code == 1
    err = capsys.readouterr().err
    assert "damaged_ablation.json" in err and "t4c ablate" in err


@pytest.mark.parametrize("stage", ["train", "predict"])
@pytest.mark.parametrize("content", [
    '{"K": 5, "thresholds": [1.0,\n  "priors"', "[5, 1.0]", "\udcff",
    '{"K": "five", "thresholds": [], "priors": {}}', '{"K": 5, "thresholds": 3, "priors": {}}',
    '{"K": 5, "thresholds": [1, 2, 3, 4], "priors": []}',
], ids=["truncated", "not_an_object", "not_utf8", "k_string", "thresholds_number", "priors_list"])
def test_damaged_cluster_model_exits_one_naming_the_file(pipeline, capsys, stage, content):
    damaged = pipeline / "damaged_clusters.json"
    damaged.write_bytes(content.encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    argv = ["--run", "runs/demo"] if stage == "predict" else ["--k", "5"]
    code = main(["--workdir", str(pipeline), stage, "--data", "data/toy", "--cluster-model", "damaged_clusters.json",
                 "--out", f"damaged_{stage}", *argv])
    assert code == 1
    err = capsys.readouterr().err
    assert str(damaged) in err and "t4c fit-clusters" in err
    assert not (pipeline / f"damaged_{stage}").exists()


@pytest.mark.parametrize("stage", ["train", "predict"])
@pytest.mark.parametrize("edit", ["appended", "decreasing", "k_float", "prior_dropped"])
def test_cluster_model_with_bad_k_or_thresholds_exits_one_naming_the_file(pipeline, capsys, stage, edit):
    """One threshold too many would pick a prior row the model does not have; a dropped prior is named by segment."""
    obj = json.loads((pipeline / "cluster_model.json").read_text())
    named = ""
    if edit == "appended":
        obj["thresholds"].append(obj["thresholds"][-1] + 1.0)
    elif edit == "decreasing":
        obj["thresholds"].reverse()
    elif edit == "prior_dropped":  # the file loads, but lacks a segment of the dataset
        named = repr(min(obj["priors"]))
        del obj["priors"][min(obj["priors"])]
    else:
        obj["K"] = 5.0
    damaged = pipeline / f"clusters_{edit}.json"
    damaged.write_text(json.dumps(obj))
    capsys.readouterr()
    argv = ["--run", "runs/demo"] if stage == "predict" else ["--k", "5"]
    code = main(["--workdir", str(pipeline), stage, "--data", "data/toy", "--cluster-model", damaged.name,
                 "--out", f"bad_clusters_{stage}", *argv])
    assert code == 1
    err = capsys.readouterr().err
    assert str(damaged) in err and "t4c fit-clusters" in err and named in err
    assert not (pipeline / f"bad_clusters_{stage}").exists()


@pytest.mark.parametrize("stage", ["train", "predict"])
@pytest.mark.parametrize("entry", [float("nan"), "0.2", True, -0.1], ids=["nan", "string", "true", "negative"])
def test_cluster_model_with_a_bad_prior_entry_exits_one_naming_the_file(pipeline, capsys, stage, entry):
    """A NaN prior used to reach predictions.jsonl; a string or a bool loaded as a number."""
    obj = json.loads((pipeline / "cluster_model.json").read_text())
    obj["priors"][min(obj["priors"])][1][2] = entry
    damaged = pipeline / f"clusters_prior_{stage}.json"
    damaged.write_text(json.dumps(obj))
    capsys.readouterr()
    argv = ["--run", "runs/demo"] if stage == "predict" else ["--k", "5"]
    code = main(["--workdir", str(pipeline), stage, "--data", "data/toy", "--cluster-model", damaged.name,
                 "--out", f"bad_prior_{stage}", *argv])
    assert code == 1
    err = capsys.readouterr().err
    assert str(damaged) in err and "t4c fit-clusters" in err
    assert not (pipeline / f"bad_prior_{stage}").exists()


def test_predict_on_truncated_checkpoint_exits_one(pipeline, capsys):
    shutil.copytree(pipeline / "runs/demo", pipeline / "runs/cut")
    checkpoint = pipeline / "runs/cut/member_1/checkpoint.bin"
    checkpoint.write_bytes(checkpoint.read_bytes()[:-100])
    capsys.readouterr()
    code = main(["--workdir", str(pipeline), "predict", "--data", "data/toy", "--cluster-model", "cluster_model.json",
                 "--run", "runs/cut", "--out", "cut.jsonl"])
    assert code == 1
    err = capsys.readouterr().err
    assert str(checkpoint) in err and "t4c train" in err
    assert not (pipeline / "cut.jsonl").exists()


@pytest.mark.parametrize("edit, detail", [
    (lambda header: header.pop("norm_stats"), "norm_stats"),
    (lambda header: header["norm_stats"].update(speed_std=float("nan")), "norm_stats.speed_std"),
    (lambda header: header["norm_stats"].update(counter_std=[0.0] * 8), "norm_stats.counter_std"),
], ids=["no_norm_stats", "speed_std_nan", "counter_std_zero"])
def test_predict_on_checkpoint_header_with_damaged_norm_stats_exits_one(pipeline, capsys, edit, detail, request):
    """A NaN or zero sigma used to reach predictions.jsonl as NaN or Infinity."""
    run = pipeline / "runs" / f"stats_{request.node.callspec.id}"
    shutil.copytree(pipeline / "runs/demo", run)
    checkpoint = run / "member_0/checkpoint.bin"
    rewrite_checkpoint_header(checkpoint, checkpoint, edit)
    capsys.readouterr()
    code = main(["--workdir", str(pipeline), "predict", "--data", "data/toy", "--cluster-model", "cluster_model.json",
                 "--run", str(run), "--out", "damaged_stats.jsonl"])
    assert code == 1
    err = capsys.readouterr().err
    assert str(checkpoint) in err and detail in err and "t4c train" in err
    assert not (pipeline / "damaged_stats.jsonl").exists()


def test_predict_on_a_checkpoint_header_naming_a_model_too_large_to_allocate_exits_one(pipeline, capsys):
    """The header's config used to be instantiated to learn its shapes: a MemoryError, exit 2."""
    run = pipeline / "runs/huge"
    shutil.copytree(pipeline / "runs/demo", run)
    checkpoint = run / "member_0/checkpoint.bin"

    def edit(header):
        header["config"]["hidden"] = 2**40
        header["config_hash"] = config_hash(ModelConfig(**header["config"]))

    rewrite_checkpoint_header(checkpoint, checkpoint, edit)
    capsys.readouterr()
    code = main(["--workdir", str(pipeline), "predict", "--data", "data/toy", "--cluster-model", "cluster_model.json",
                 "--run", str(run), "--out", "huge.jsonl"])
    assert code == 1
    err = capsys.readouterr().err
    assert str(checkpoint) in err and "the config makes (1099511627776,)" in err and "t4c train" in err
    assert not (pipeline / "huge.jsonl").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_predict_on_a_non_finite_checkpoint_parameter_exits_one(pipeline, capsys, value, request):
    """One NaN parameter used to make predict exit 0 and write NaN into every speed and ETA."""
    run = pipeline / "runs" / f"body_{request.node.callspec.id}"
    shutil.copytree(pipeline / "runs/demo", run)
    checkpoint = run / "member_1/checkpoint.bin"
    write_body_value(checkpoint, checkpoint, "head_speed_out_w", value)
    capsys.readouterr()
    code = main(["--workdir", str(pipeline), "predict", "--data", "data/toy", "--cluster-model", "cluster_model.json",
                 "--run", str(run), "--out", "damaged_body.jsonl"])
    assert code == 1
    err = capsys.readouterr().err
    assert str(checkpoint) in err and "head_speed_out_w" in err and "t4c train" in err
    assert not (pipeline / "damaged_body.jsonl").exists()


def _every_field_config():
    """A config that sets every dataclass field, none at its default."""
    return {
        "data": "data/toy",
        "model": asdict(ModelConfig(
            importance_dim=4, oneway_dim=1, tunnel_dim=1, lanes_dim=2, volume_hidden=(8,),
            static_hidden=(8, 4), gnn_layers=1, hidden=8, head_blocks=1, lambdas=(0.05, 1.0, 2.0),
            prior_mode="active_row", num_clusters=5, cc_classes=4, use_prior_block=False, use_static=False,
        )),
        "train": asdict(TrainConfig(
            epochs=1, batch_size=3, learning_rate=2e-3, ensemble_size=1, base_seed=4, member_seeds=(7,),
            daytime=(20, 90), val_fraction=0.3, split_seed=2,
        )),
    }


_TRAIN, _MODEL = TrainConfig(), ModelConfig()
_FIT = ["fit-clusters", "--data", "data/toy", "--out", "schema_clusters.json"]  # leaves the pipeline's model alone


@pytest.mark.parametrize("config, argv, code, expected", [
    # every ModelConfig/TrainConfig field is a config key, and train applies it
    (_every_field_config(), ["train", "--cluster-model", "cluster_model.json", "--out", "runs/fields"], 0, []),
    ({"workdir": "."}, ["fit-clusters", "--data", "data/toy"], 1, ["'workdir'"]),
    ({"out": {"predictions": "p.jsonl"}}, ["fit-clusters", "--data", "data/toy"], 1, ["out.predictions"]),
    ({"cluster": {"k": 5}}, ["fit-clusters", "--data", "data/toy"], 1, ["unknown key 'cluster'"]),
    (None, ["fit-clusters", "--data", "data/toy", "--epochs", "1"], 1, ["--epochs"]),
    (None, ["predict", "--run", "runs/demo", "--out", "p.jsonl", "--seed", "1"], 1, ["--seed"]),
    # a key of the wrong JSON type, named by its path, and a value the dataclass refuses, named by the file
    ({"train": {"epochs": "5"}}, _FIT, 1, ["schema.json: train.epochs: expected an integer"]),
    ({"model": {"hidden": True}}, _FIT, 1, ["schema.json: model.hidden"]),
    ({"model": {"num_clusters": 3.0}}, _FIT, 1, ["schema.json: model.num_clusters"]),
    ({"train": {"member_seeds": [1.5]}}, _FIT, 1, ["train.member_seeds[0]"]),
    ({"out": {"run_dir": 7}}, _FIT, 1, ["schema.json: out.run_dir: expected a string"]),
    ({"train": {"member_seeds": [1, 2]}}, _FIT, 1, ["schema.json: 2 member seeds"]),
    ({"train": {"ensemble_size": 3, "member_seeds": [4, 0, 4]}}, _FIT, 1, ["schema.json: member seed 4 is repeated"]),
    (None, ["train", "--help"], 0, [
        f"(default: {value})" for value in (
            _TRAIN.epochs, _TRAIN.batch_size, _TRAIN.learning_rate, _TRAIN.ensemble_size,
            _TRAIN.base_seed, *_TRAIN.daytime, _TRAIN.val_fraction, _TRAIN.split_seed,
            _MODEL.gnn_layers, _MODEL.hidden, _MODEL.prior_mode, _MODEL.cc_classes, _MODEL.num_clusters,
        )
    ]),
], ids=["every_field", "workdir", "out.predictions", "cluster", "fit_clusters_epochs", "predict_seed", "epochs_string",
        "hidden_true", "num_clusters_float", "member_seed_float", "run_dir_number", "member_seeds_unlike_members",
        "member_seeds_repeated", "train_help"])
def test_config_schema_is_the_dataclass_fields(pipeline, capsys, config, argv, code, expected):
    if config is not None:
        (pipeline / "schema.json").write_text(json.dumps(config))
        argv = [*argv, "--config", "schema.json"]
    capsys.readouterr()
    assert main(["--workdir", str(pipeline), *argv]) == code
    captured = capsys.readouterr()
    output = " ".join((captured.out + captured.err).split())  # help text wraps lines
    for text in expected:
        assert text in output
    if config is not None and code == 0:
        written = json.loads((pipeline / "runs/fields/train_config.json").read_text())
        assert written == json.loads(json.dumps({"model": config["model"], "train": config["train"]}))



_BAD_VALUES = [  # (section, field, value, its flag or None)
    ("model", "hidden", 0, "--hidden"),
    ("model", "hidden", -2, "--hidden"),
    ("model", "num_clusters", 0, "--k"),
    ("model", "volume_hidden", [32, 0], None),
    ("model", "static_hidden", [-1], None),
    ("model", "head_blocks", -1, None),
    ("model", "importance_dim", -1, None),
    ("model", "lanes_dim", -3, None),
    ("train", "learning_rate", -1.0, "--lr"),
    ("train", "learning_rate", math.nan, "--lr"),
    ("train", "learning_rate", math.inf, "--lr"),
]


@pytest.mark.parametrize("section, field, value, flag, route", [
    (*case, route) for case in _BAD_VALUES for route in ("flag", "config") if route == "config" or case[3]
])
def test_a_config_value_out_of_range_exits_1_naming_the_field_and_trains_nothing(
    pipeline, tmp_path, section, field, value, flag, route
):
    """A zero width divided by zero (exit 2), a negative one failed in numpy naming no flag (exit 1), a negative
    head block count trained as 0 blocks (exit 0), a negative learning rate trained by gradient ascent (exit 0),
    and a NaN or infinite one diverged (exit 2)."""
    argv = ["train", "--data", pipeline / "data/toy", "--cluster-model", pipeline / "cluster_model.json",
            "--out", tmp_path / "run"]
    if route == "flag":  # beside a config file that sets none of the section's fields, which is not named
        config, argv = {"data": "data/toy"}, [*argv, flag, value]
    else:  # JSON has no NaN or Infinity; Python writes them, and the reader refuses them by path
        config = {section: {field: value}}
    (tmp_path / "bad.json").write_text(json.dumps(config))
    code, err = _run([*argv, "--config", tmp_path / "bad.json"])
    assert code == 1, err
    assert field in err and ("bad.json" in err) == (route == "config"), err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("stage", [
    ["ablate", "--cluster-model", "{dir}/cluster_model.json", "--variants", "full", *ONE_MODEL_ARGS],
    ["baseline", "node_gnn", "--epochs", "1"],
], ids=lambda stage: stage[0])
def test_only_train_takes_members(pipeline, tmp_path, stage):
    """``ablate`` and ``baseline`` parsed --members and never read it: ``ablate --members 9`` trained one model
    per variant."""
    argv = [arg.format(dir=pipeline) for arg in stage]
    code, err = _run([*argv, "--data", pipeline / "data/toy", "--out", tmp_path / "out", "--members", "9"])
    assert code == 1, err
    assert "unrecognized arguments: --members 9" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("variants", ["", " , ", "full,full", "no_gnn,full,no_gnn"])
def test_ablate_refuses_an_empty_or_repeated_variant_list(pipeline, tmp_path, variants):
    code, err = _run(["ablate", "--data", pipeline / "data/toy", "--cluster-model", pipeline / "cluster_model.json",
                      "--variants", variants, "--out", tmp_path / "ablation", *ONE_MODEL_ARGS])
    assert code == 1, err
    assert "--variants" in err and repr(variants) in err
    assert not (tmp_path / "ablation").exists()


def test_ablate_refuses_an_unknown_variant_before_loading_anything(pipeline, tmp_path, monkeypatch):
    """``run_ablation`` refused the name, after the dataset and the cluster model had loaded."""
    import t4c.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("loaded an input")

    monkeypatch.setattr(cli, "load_dataset", refuse)
    monkeypatch.setattr(cli, "load_cluster_model", refuse)
    code, err = _run(["ablate", "--data", pipeline / "data/toy", "--cluster-model", pipeline / "cluster_model.json",
                      "--variants", "full,bogus", "--out", tmp_path / "ablation", *ONE_MODEL_ARGS])
    assert code == 1, err
    assert "--variants: expected one or more distinct variants of full,no_cluster,no_static,no_gnn, got 'full,bogus'" in err
    assert not (tmp_path / "ablation").exists()


# case -> (the argv, with {dir} a directory, {file} a file and {pred} a predictions file; the path it names)
BAD_PATHS = {
    "eval-core --pred": (["eval-core", "--data", "{data}", "--pred", "{dir}"], "{dir}"),
    "eval-eta --pred": (["eval-eta", "--data", "{data}", "--pred", "{dir}"], "{dir}"),
    "train --cluster-model": (["train", "--data", "{data}", "--cluster-model", "{dir}", "--out", "{tmp}/run",
                               *SMALL_TRAIN_ARGS], "{dir}"),
    "fit-clusters --out": (["fit-clusters", "--data", "{data}", "--k", "5", "--out", "{dir}"], "{dir}"),
    "eval-core --out": (["eval-core", "--data", "{data}", "--pred", "{pred}", "--out", "{dir}"], "{dir}"),
    "baseline naive --out": (["baseline", "naive", "--data", "{data}", "--out", "{file}"], "{file}"),
    "report --runs": (["report", "--runs", "{file}", "--out", "{tmp}/report"], "{file}"),
}


@pytest.mark.parametrize("case", list(BAD_PATHS))
def test_a_path_a_stage_cannot_use_exits_1_naming_it(pipeline, tmp_path, case):
    """Each exited 2 with "runtime failure: IsADirectoryError" (or FileExistsError, NotADirectoryError)."""
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "a_file").write_text("")
    paths = {"data": pipeline / "data/toy", "dir": tmp_path / "a_directory", "file": tmp_path / "a_file", "tmp": tmp_path,
             "pred": tmp_path / "bl/predictions_naive.jsonl"}
    if case == "eval-core --out":
        assert _run(["baseline", "naive", "--data", paths["data"], "--out", tmp_path / "bl"])[0] == 0
    argv, named = BAD_PATHS[case]
    code, err = _run([arg.format(**paths) for arg in argv])
    assert code == 1, err
    assert named.format(**paths) in err and "runtime failure" not in err, err


def _count_calls(monkeypatch, attr, *modules) -> list:
    """Count the calls of ``attr`` made through the named attributes of ``modules``."""
    calls = []
    real = getattr(modules[0], attr)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in modules:
        assert getattr(module, attr) is real
        monkeypatch.setattr(module, attr, counted)
    return calls


def test_train_and_predict_call_the_functions_the_benchmark_times(pipeline, monkeypatch):
    """The benchmark cuts steps and records out of the stages at the returns of
    ``autodiff.adam_step`` and ``cli.ensemble_predict``, replacing just those
    module attributes; it counts ``training.train_one`` per member, replacing
    it in every module that imports it."""
    import math

    import t4c.autodiff as ad
    import t4c.cli as cli
    import t4c.training as training

    wd = ["--workdir", str(pipeline)]
    dataset = load_dataset(pipeline / "data/toy")
    _, train_records, val_records = training.split_records(dataset, TrainConfig())
    members = _count_calls(monkeypatch, "train_one", training, cli)
    steps = _count_calls(monkeypatch, "adam_step", ad)
    assert main(wd + [
        "train", "--data", "data/toy", "--cluster-model", "cluster_model.json", "--out", "runs/hooks",
        "--members", "2", "--epochs", "1", "--hidden", "16", "--gnn-layers", "2", "--k", "5",
    ]) == 0
    assert len(members) == 2
    assert len(steps) == 2 * math.ceil(len(train_records) / TrainConfig().batch_size)

    records = _count_calls(monkeypatch, "ensemble_predict", cli)
    assert main(wd + [
        "predict", "--data", "data/toy", "--cluster-model", "cluster_model.json",
        "--run", "runs/hooks", "--out", "predictions_hooks.jsonl",
    ]) == 0
    rows = (pipeline / "predictions_hooks.jsonl").read_text().splitlines()
    assert len(records) == len(rows) == len(val_records)


@pytest.mark.parametrize("stage, scorer", [("eval-core", "core_metric"), ("eval-eta", "eta_metric")])
def test_eval_stages_call_load_read_and_score_once_in_order(pipeline, monkeypatch, stage, scorer):
    """The benchmark cuts an eval stage's read, score and report parts at the returns of
    ``cli.load_dataset``, ``cli._read_predictions`` and the stage's scorer."""
    import t4c.cli as cli

    assert main(["--workdir", str(pipeline), "baseline", "naive", "--data", "data/toy", "--out", "hook_bl"]) == 0
    calls = []
    for name in ("load_dataset", "_read_predictions", "core_metric", "eta_metric"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k))
    assert main(["--workdir", str(pipeline), stage, "--data", "data/toy", "--pred", "hook_bl/predictions_naive.jsonl"]) == 0
    assert calls == ["load_dataset", "_read_predictions", scorer]


# -- every JSON artifact a stage reads: one mutation, then exit 0 with finite outputs or exit 1 ------------------

# The config's values are small where the default is not. The stage runs with --members 1 and --epochs 1, so that
# a dropped key or an emptied section asks for little training: nine members of twenty epochs take seconds.
HYPOTHESIS_CONFIG = {
    "data": "data",
    "model": {
        "importance_dim": 5, "oneway_dim": 2, "tunnel_dim": 2, "lanes_dim": 3, "volume_hidden": [4],
        "static_hidden": [4], "gnn_layers": 1, "hidden": 4, "head_blocks": 1, "lambdas": [0.03, 1.0, 1.0],
        "prior_mode": "full", "num_clusters": 10, "cc_classes": 3, "use_prior_block": True, "use_static": True,
    },
    "train": {
        "epochs": 1, "batch_size": 2, "learning_rate": 1e-3, "ensemble_size": 1, "base_seed": 0, "member_seeds": [3],
        "daytime": [24, 88], "val_fraction": 0.2, "split_seed": 0,
    },
    "out": {"run_dir": "runs/run", "cluster_model": "cluster_model.json"},
}
# a value of each JSON type; an int where a number is read is no wrong type, a fraction where an integer is read is
WRONG_TYPES = {"str": "x", "bool": True, "null": None, "int": 2, "fraction": 0.5, "list": [], "object": {}}


def _json_type(value) -> set[str]:
    """The WRONG_TYPES keys that are not a wrong type for ``value``."""
    if type(value) is int:
        return {"int"}
    if type(value) is float:
        return {"int", "fraction"}
    return {{str: "str", bool: "bool", type(None): "null", list: "list", dict: "object"}[type(value)]}


def _mutate(data, obj):
    """Walk from the root of ``obj`` to a drawn node and change it once, in place: a value of another JSON type,
    NaN, an infinity, the node dropped, an unknown key added or the container emptied."""
    parent, key, node = None, None, obj
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans(), label="descend"):
        parent, key = node, data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
    kinds = ["nan", "inf", "-inf", "wrong_type"]
    kinds += ["drop"] * (parent is not None) + ["unknown_key"] * isinstance(node, dict)
    kinds += ["empty"] * (isinstance(node, (dict, list)) and bool(node))
    kind = data.draw(st.sampled_from(kinds), label="mutation")
    if kind == "drop":
        del parent[key]
    elif kind == "unknown_key":
        node["zz_unknown"] = 0
    else:
        if kind == "wrong_type":
            value = WRONG_TYPES[data.draw(st.sampled_from(sorted(WRONG_TYPES.keys() - _json_type(node))))]
        else:
            value = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "empty": type(node)()}[kind]
        if parent is None:
            return value
        parent[key] = value
    return obj


def _assert_finite_outputs(directory):
    """Every file under ``directory`` holds only finite numbers: its JSON parses without NaN or Infinity, and no
    text file spells them."""
    for path in directory.rglob("*"):
        if path.suffix in (".json", ".jsonl"):
            for line in path.read_text().splitlines() if path.suffix == ".jsonl" else [path.read_text()]:
                json.loads(line, parse_constant=lambda name: pytest.fail(f"{path}: {name}"))
        elif path.suffix in (".csv", ".svg"):
            assert not {"nan", "inf"} & set(path.read_text().lower().replace(",", " ").split()), path


@pytest.fixture(scope="module")
def mutation_workdir(pipeline, tmp_path_factory):
    """A workdir whose default paths exist: a dataset at ``data`` and a 10-cluster model at ``cluster_model.json``,
    with the toy pipeline's run, predictions and a two-variant ablation."""
    root = tmp_path_factory.mktemp("mutations")
    shutil.copytree(pipeline / "data/toy", root / "data")
    shutil.copytree(pipeline / "runs/demo", root / "runs/demo")
    wd = ["--workdir", str(root)]
    assert main(wd + ["fit-clusters", "--data", "data", "--out", "cluster_model.json"]) == 0
    assert main(wd + ["fit-clusters", "--data", "data", "--k", "5", "--out", "clusters_k5.json"]) == 0
    assert main(wd + ["predict", "--cluster-model", "clusters_k5.json", "--run", "runs/demo", "--out", "pred.jsonl"]) == 0
    assert main(wd + ["ablate", "--cluster-model", "clusters_k5.json", "--variants", "full,no_gnn", "--epochs", "1",
                      "--hidden", "8", "--gnn-layers", "1", "--k", "5", "--out", "ablation"]) == 0
    return root


ARTIFACTS = ["config", "checkpoint", "runlog", "cluster_model", "ablation", "predictions"]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_mutated_json_artifact_exits_0_with_finite_outputs_or_1_naming_file_and_producer(mutation_workdir, data):
    root = mutation_workdir
    artifact = data.draw(st.sampled_from(ARTIFACTS), label="artifact")
    out = root / "out"
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(root / "runs/mutated", ignore_errors=True)
    out.mkdir()
    run = ["--run", "runs/demo", "--cluster-model", "clusters_k5.json", "--out", "out/pred.jsonl"]
    if artifact == "config":  # written by hand, so no stage produces it
        path, producer = root / "config.json", ""
        path.write_text(json.dumps(_mutate(data, json.loads(json.dumps(HYPOTHESIS_CONFIG)))))
        argv = ["train", "--config", str(path), "--out", "out/run", "--members", "1", "--epochs", "1"]
    elif artifact == "checkpoint":
        shutil.copytree(root / "runs/demo", root / "runs/mutated")
        path, producer = root / "runs/mutated/member_1/checkpoint.bin", "t4c train"
        raw = path.read_bytes()
        end = 16 + int.from_bytes(raw[8:16], "little")
        header = json.dumps(_mutate(data, json.loads(raw[16:end]))).encode()
        path.write_bytes(raw[:8] + len(header).to_bytes(8, "little") + header + raw[end:])
        argv = ["predict", *run[2:], "--run", "runs/mutated"]
    elif artifact == "runlog":
        shutil.copytree(root / "runs/demo", root / "runs/mutated")
        path, producer = root / "runs/mutated/member_1/runlog.json", "t4c train"
        path.write_text(json.dumps(_mutate(data, json.loads(path.read_text()))))
        argv = ["report", "--runs", "runs/mutated", "--out", "out/report"]
    elif artifact == "cluster_model":
        path, producer = root / "mutated_clusters.json", "t4c fit-clusters"
        path.write_text(json.dumps(_mutate(data, json.loads((root / "clusters_k5.json").read_text()))))
        argv = ["predict", *run[:2], "--cluster-model", path.name, "--out", "out/pred.jsonl"]
    elif artifact == "ablation":
        path, producer = root / "mutated_ablation.json", "t4c ablate"
        path.write_text(json.dumps(_mutate(data, json.loads((root / "ablation/ablation.json").read_text()))))
        argv = ["report", "--runs", "runs/demo", "--ablation", path.name, "--out", "out/report"]
    else:
        path, producer = root / "mutated_pred.jsonl", "t4c predict"
        lines = (root / "pred.jsonl").read_text().splitlines()
        lines[0] = json.dumps(_mutate(data, json.loads(lines[0])))
        path.write_text("\n".join(lines) + "\n")
        stage = data.draw(st.sampled_from(["eval-core", "eval-eta"]), label="stage")
        argv = [stage, "--data", "data", "--pred", path.name, "--out", "out/score.json", "--csv", "out/score.csv"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["--workdir", str(root), *argv])
    assert code in (0, 1), err.getvalue()
    if code == 0:
        _assert_finite_outputs(out)
    else:
        assert str(path) in err.getvalue() and producer in err.getvalue(), err.getvalue()


DEEP = "[" * 100_000 + "]" * 100_000  # deeper than the JSON parser's recursion limit


@pytest.mark.parametrize("artifact", ["predictions", "config", "cluster_model"])
def test_a_deeply_nested_json_value_exits_one_naming_the_file(pipeline, capsys, artifact):
    """A nesting deeper than the parser recurses used to exit 2 with a bare RecursionError."""
    path = pipeline / f"deep_{artifact}.json"
    if artifact == "predictions":
        path.write_text('{"record_id": "r0000", "etas": {"ss00": %s}}\n' % DEEP)
        argv, producer = ["eval-eta", "--data", "data/toy", "--pred", path.name], "t4c predict"
    elif artifact == "config":
        path.write_text('{"model": {"lambdas": %s}}' % DEEP)
        argv, producer = ["fit-clusters", "--data", "data/toy", "--config", path.name, "--out", "deep.json"], ""
    else:
        text = (pipeline / "cluster_model.json").read_text()
        path.write_text(text.replace('"priors": {', '"priors": {"deep": %s, ' % DEEP, 1))
        argv = ["predict", "--data", "data/toy", "--cluster-model", path.name, "--run", "runs/demo", "--out", "deep.jsonl"]
        producer = "t4c fit-clusters"
    capsys.readouterr()
    assert main(["--workdir", str(pipeline), *argv]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "nested too deeply" in err and producer in err


# -- the predictions' binary copy: it changes how fast an eval stage runs, never what it prints, writes or refuses --


def _sidecar(pred):
    return pred.with_name(pred.name + ".bin")


def _evals(workdir, pred) -> dict:
    """Each eval stage's exit code, output, error, report bytes and CSV bytes on ``pred``."""
    results = {}
    for stage in ("eval-core", "eval-eta"):
        report, table = workdir / "sidecar_report.json", workdir / "sidecar_report.csv"
        report.unlink(missing_ok=True)
        table.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--workdir", str(workdir), stage, "--data", "data/toy", "--pred", str(pred),
                         "--out", report.name, "--csv", table.name])
        written = [path.read_bytes() if path.exists() else None for path in (report, table)]
        results[stage] = (code, out.getvalue(), err.getvalue(), *written)
    return results


def _evals_of_the_jsonl(workdir, pred) -> dict:
    """``_evals`` with the binary copy moved aside, so that the stages parse the JSONL."""
    aside = pred.with_name(pred.name + ".aside")
    _sidecar(pred).rename(aside)
    try:
        return _evals(workdir, pred)
    finally:
        aside.rename(_sidecar(pred))


SIDECAR_PREDICTIONS = ["full_1", "full_9", "active_row_1", "active_row_9", "naive", "volume_cluster"]


@pytest.fixture(scope="module")
def sidecar_predictions(pipeline):
    """Fresh predictions of 1 and 9 members in each prior mode, and of the naive and volume-cluster baselines."""
    wd = ["--workdir", str(pipeline)]
    preds = {}
    for mode in ("full", "active_row"):
        run = pipeline / f"runs/sidecar_{mode}_9"
        assert main(wd + ["train", "--data", "data/toy", "--cluster-model", "cluster_model.json", "--out", str(run),
                          "--members", "9", "--epochs", "1", "--hidden", "8", "--gnn-layers", "1", "--k", "5",
                          "--prior-mode", mode]) == 0
        shutil.copytree(run / "member_0", pipeline / f"runs/sidecar_{mode}_1/member_0")
        for members in (1, 9):
            preds[f"{mode}_{members}"] = pred = pipeline / f"sidecar_{mode}_{members}.jsonl"
            assert main(wd + ["predict", "--data", "data/toy", "--cluster-model", "cluster_model.json",
                              "--run", f"runs/sidecar_{mode}_{members}", "--out", pred.name]) == 0
    for name in ("naive", "volume_cluster"):
        assert main(wd + ["baseline", name, "--data", "data/toy", "--out", "sidecar_bl",
                          *(["--k", "5"] if name == "volume_cluster" else [])]) == 0
        preds[name] = pipeline / f"sidecar_bl/predictions_{name}.jsonl"
    assert all(_sidecar(pred).is_file() for pred in preds.values())
    return preds


@pytest.mark.parametrize("name", SIDECAR_PREDICTIONS)
def test_eval_reads_fresh_predictions_from_their_binary_copy_with_the_jsonl_s_output(
        pipeline, sidecar_predictions, monkeypatch, name):
    pred = sidecar_predictions[name]
    expected = _evals_of_the_jsonl(pipeline, pred)
    assert all(result[0] == 0 for result in expected.values())

    def refuse(*args):
        raise AssertionError("parsed the predictions lines")

    monkeypatch.setattr(PredictionTable, "from_mappings", refuse)  # where the JSONL route builds its table
    assert _evals(pipeline, pred) == expected
    assert all(result[0] == 2 for result in _evals_of_the_jsonl(pipeline, pred).values())  # the stub bites


def test_rerun_of_predict_rewrites_the_binary_copy_byte_for_byte(pipeline, sidecar_predictions):
    pred = pipeline / "sidecar_again.jsonl"
    assert main(["--workdir", str(pipeline), "predict", "--data", "data/toy", "--cluster-model", "cluster_model.json",
                 "--run", "runs/sidecar_full_9", "--out", pred.name]) == 0
    assert pred.read_bytes() == sidecar_predictions["full_9"].read_bytes()
    assert _sidecar(pred).read_bytes() == _sidecar(sidecar_predictions["full_9"]).read_bytes()


def test_predict_of_no_records_writes_an_empty_jsonl_and_its_copy(pipeline):
    """``--records all`` with a daytime window that holds no record: the eval stages read the empty file from its
    copy as from the JSONL."""
    dataset = load_dataset(pipeline / "data/toy")
    assert min(r.t_index for r in dataset.records) > 0  # slot 0 holds no record
    pred = pipeline / "predictions_none.jsonl"
    assert main(["--workdir", str(pipeline), "predict", "--data", "data/toy", "--cluster-model", "cluster_model.json",
                 "--run", "runs/demo", "--records", "all", "--daytime-start", "0", "--daytime-end", "1",
                 "--out", pred.name]) == 0
    assert pred.read_bytes() == b""
    copy = _predictions_copy(pred)
    assert copy is not None and copy.record_ids == []
    assert copy.cc.shape == (0, len(dataset.graph.segments), 3)
    assert copy.etas.shape == (0, len(dataset.supersegments))
    assert _evals(pipeline, pred) == _evals_of_the_jsonl(pipeline, pred)

def _table_of(pred):
    """The table a predictions JSONL holds, its segments and super-segments in the file's (sorted) order."""
    rows = [json.loads(line) for line in pred.read_text().splitlines()]
    seg_ids, ss_ids = list(rows[0]["segments"]), list(rows[0]["etas"])

    def block(key):  # None where the file holds null, as a baseline's speed and vol
        values = [[row["segments"][seg][key] for seg in seg_ids] for row in rows]
        return None if values[0][0] is None else np.array(values)

    etas = np.array([[row["etas"][ss] for ss in ss_ids] for row in rows])
    return PredictionTable([row["record_id"] for row in rows], seg_ids, ss_ids, block("cc"), etas,
                           block("speed"), block("vol"))


@pytest.mark.parametrize("fault", ["nan_cc", "nan_eta", "repeated_record", "nan_cc_unscored", "string_cc_unscored"])
def test_a_faulty_row_is_refused_alike_from_the_binary_copy(pipeline, sidecar_predictions, fault):
    """Tables the writer takes but an eval stage refuses on line 2: the copy defers to the JSONL's message. A bad cc
    is refused on a segment whose label the record's score skips too, by both stages."""
    table = _table_of(sidecar_predictions["naive"])
    if fault == "nan_cc":
        table.cc[1] = [math.nan, 0.5, 0.5]
    elif fault == "nan_eta":
        table.etas[1] = math.nan
    elif fault == "repeated_record":
        take = [0, *range(len(table.record_ids))]  # record 0 again on line 2
        table = table._replace(record_ids=[table.record_ids[k] for k in take], cc=table.cc[take], etas=table.etas[take])
    else:  # the first segment that record 1's labels do not score
        labels = load_dataset(pipeline / "data/toy").labels.select(table.record_ids[1:2])
        scored = {seg for seg, cc in zip(labels.segment_ids, labels.cc[0].tolist()) if cc > 0} if len(labels) else set()
        table.cc[1, next(j for j, seg in enumerate(table.segment_ids) if seg not in scored)] = math.nan
    pred = pipeline / f"sidecar_{fault}.jsonl"
    write_predictions(pred, table)
    assert _sidecar(pred).is_file()
    if fault == "string_cc_unscored":  # the copy is then stale
        lines = pred.read_text().split("\n")
        lines[1] = lines[1].replace("[NaN,NaN,NaN]", '"abc"')
        pred.write_text("\n".join(lines))
    results = _evals(pipeline, pred)
    assert results == _evals_of_the_jsonl(pipeline, pred)
    stages = {"nan_cc": ["eval-core"], "nan_eta": ["eval-eta"], "repeated_record": ["eval-eta"]}.get(fault, list(results))
    for stage in stages:
        code, _, err, *_ = results[stage]
        assert code == 1 and f"{pred}:2: " in err and "t4c predict" in err


def test_a_jsonl_of_rows_over_other_segments_scores_as_its_mappings(pipeline, sidecar_predictions):
    """Rows that list other segments and super-segments, in other orders, parse to one table, NaN where a row lists
    none, which both stages score exactly as the same predictions in mapping form."""
    from t4c.evaluation import core_metric, eta_labels, eta_metric

    dataset = load_dataset(pipeline / "data/toy")
    rows = [json.loads(line) for line in sidecar_predictions["full_1"].read_text().splitlines()]
    labels = dataset.labels.select(row["record_id"] for row in rows)
    rng = np.random.default_rng(0)
    for row in rows:
        rid = row["record_id"]
        scored = {seg for seg, cc in zip(labels.segment_ids, labels.cc[labels.rows[rid]].tolist()) if cc > 0} \
            if rid in labels.rows else set()
        labelled = {ss.ss_id for ss in dataset.supersegments if rid in ss.etas}
        for key, needed in (("segments", scored), ("etas", labelled)):
            keep = [k for k in row[key] if k in needed or rng.random() < 0.5]
            row[key] = {k: row[key][k] for k in rng.permutation(keep).tolist()}
    pred = pipeline / "subsets.jsonl"
    pred.write_text("".join(json.dumps(row) + "\n" for row in rows))
    results = _evals(pipeline, pred)
    cc = {row["record_id"]: {seg: entry["cc"] for seg, entry in row["segments"].items()} for row in rows}
    etas = {(row["record_id"], ss): eta for row in rows for ss, eta in row["etas"].items()}
    for stage, score in (("eval-core", core_metric(cc, labels)),
                         ("eval-eta", eta_metric(etas, eta_labels(dataset.supersegments, set(cc))))):
        per_record = {rid: score.per_record[rid] for rid in sorted(score.per_record)}
        assert results[stage][0] == 0 and json.loads(results[stage][3]) == {
            "metric": score.score, "per_record": per_record, "n_scored": score.n_scored}


def test_a_jsonl_edited_after_predict_is_scored_from_the_jsonl(pipeline, sidecar_predictions):
    """The binary copy is then stale: written for other bytes."""
    pred = pipeline / "sidecar_edited.jsonl"
    shutil.copy(sidecar_predictions["full_9"], pred)
    shutil.copy(_sidecar(sidecar_predictions["full_9"]), _sidecar(pred))
    fresh = _evals(pipeline, pred)
    rows = [json.loads(line) for line in pred.read_text().splitlines()]
    rows[0]["segments"] = {seg: {**entry, "cc": [0.2, 0.3, 0.5]} for seg, entry in rows[0]["segments"].items()}
    rows[0]["etas"] = dict.fromkeys(rows[0]["etas"], 100.0)
    pred.write_text("".join(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n" for row in rows))
    edited = _evals(pipeline, pred)
    assert edited == _evals_of_the_jsonl(pipeline, pred)
    assert all(edited[stage][3] != fresh[stage][3] for stage in edited)  # the edit moved both scores


@pytest.fixture(scope="module")
def damaged_sidecar(pipeline, sidecar_predictions):
    """A copy of the 1-member predictions, their binary copy's bytes, and the eval output of the JSONL alone."""
    pred = pipeline / "sidecar_damaged.jsonl"
    shutil.copy(sidecar_predictions["active_row_1"], pred)
    shutil.copy(_sidecar(sidecar_predictions["active_row_1"]), _sidecar(pred))
    return pred, _sidecar(pred).read_bytes(), _evals_of_the_jsonl(pipeline, pred)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_damaged_binary_copy_leaves_the_output_of_the_jsonl(pipeline, sidecar_predictions, damaged_sidecar, data):
    pred, raw, expected = damaged_sidecar
    damage = data.draw(st.sampled_from(["flip", "truncate", "other_run"]), label="damage")
    if damage == "flip":
        position = data.draw(st.integers(0, len(raw) - 1), label="position")
        mask = data.draw(st.integers(1, 255), label="mask")
        damaged = raw[:position] + bytes([raw[position] ^ mask]) + raw[position + 1:]
    elif damage == "truncate":
        damaged = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        other = data.draw(st.sampled_from(sorted(set(SIDECAR_PREDICTIONS) - {"active_row_1"})), label="other")
        damaged = _sidecar(sidecar_predictions[other]).read_bytes()
    _sidecar(pred).write_bytes(damaged)
    try:
        assert _predictions_copy(pred) is None
        assert _evals(pipeline, pred) == expected
    finally:
        _sidecar(pred).write_bytes(raw)


def test_a_hand_written_jsonl_beside_a_stale_binary_copy_is_scored_from_it(pipeline, sidecar_predictions):
    """An int ETA parses as an int, which no float64 copy holds: its lines are scored from the JSONL, and a table
    written again over them gets a fresh copy."""
    table = _table_of(sidecar_predictions["naive"])
    pred = pipeline / "sidecar_stale.jsonl"
    write_predictions(pred, table)
    fresh = _evals(pipeline, pred)
    rows = [json.loads(line) for line in pred.read_text().splitlines()]
    rows[0]["etas"] = dict.fromkeys(rows[0]["etas"], 61)
    pred.write_text("".join(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n" for row in rows))
    assert _predictions_copy(pred) is None
    edited = _evals(pipeline, pred)
    assert edited == _evals_of_the_jsonl(pipeline, pred) and edited["eval-eta"] != fresh["eval-eta"]
    write_predictions(pred, table)
    assert _predictions_copy(pred) is not None and _evals(pipeline, pred) == fresh


def test_a_version_1_binary_copy_leaves_the_output_of_the_jsonl(pipeline, sidecar_predictions):
    """A copy in the layout of version 1, which bound the container to its JSONL by one SHA-256 over both."""
    pred = pipeline / "sidecar_version_1.jsonl"
    shutil.copy(sidecar_predictions["full_9"], pred)
    shutil.copy(_sidecar(sidecar_predictions["full_9"]), _sidecar(pred))
    write_version_1_copy(pred, data_module._PREDICTIONS_COPY)
    assert _predictions_copy(pred) is None
    assert _evals(pipeline, pred) == _evals_of_the_jsonl(pipeline, pred)


@pytest.mark.parametrize("edit", ["reversed", "missing_segment"])
def test_a_binary_copy_in_another_segment_order_scores_as_the_jsonl(pipeline, sidecar_predictions, edit):
    """The copy's segments are not the table's: its array is read by segment id, as the JSONL's rows are."""
    table = _table_of(sidecar_predictions["volume_cluster"])
    keep = slice(None, None, -1) if edit == "reversed" else slice(-2, None, -1)
    table = table._replace(segment_ids=table.segment_ids[keep], cc=table.cc[:, keep])
    pred = pipeline / f"sidecar_{edit}.jsonl"
    write_predictions(pred, table)
    assert _sidecar(pred).is_file()
    results = _evals(pipeline, pred)
    assert results == _evals_of_the_jsonl(pipeline, pred)
    assert results["eval-core"][0] == (0 if edit == "reversed" else 1)


# ids with quotes, backslashes, a "%" (the writer's template escapes it), non-ASCII, U+2028 and a lone surrogate
TABLE_ID = st.text(st.one_of(st.sampled_from('"\\%é漢\u2028\ud800'), st.characters()), min_size=1, max_size=3)
TABLE_FLOAT = st.one_of(st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]), st.floats())


def _drawn_ids(data, label):
    """Unique ids, none to four, in an order other than sorted where two or more are drawn."""
    ids = data.draw(st.lists(TABLE_ID, unique=True, max_size=4), label)
    return ids[::-1] if len(ids) > 1 and ids == sorted(ids) else ids


def _draw_table(data, finite: bool):
    record_ids, seg_ids = _drawn_ids(data, "record_ids"), _drawn_ids(data, "segment_ids")
    ss_ids = _drawn_ids(data, "supersegment_ids")
    values = st.floats(allow_nan=False, allow_infinity=False) if finite else TABLE_FLOAT

    def block(*shape):
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(values, min_size=size, max_size=size)), np.float64).reshape(shape)

    records, segments = len(record_ids), len(seg_ids)
    speed = vol = None
    if data.draw(st.booleans(), "model"):  # a model's table; a baseline's has no speed or vol
        speed, vol = block(records, segments), block(records, segments, 3)
    return PredictionTable(record_ids, seg_ids, ss_ids, block(records, segments, 3),
                           block(records, len(ss_ids)), speed, vol)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_table_writer_writes_the_bytes_of_json_dumps_over_the_rows(data, tmp_path_factory):
    table = _draw_table(data, finite=False)
    rows = [{
        "record_id": record_id,
        "segments": {seg_id: {"cc": table.cc[k, j].tolist(),
                              "speed": None if table.speed is None else table.speed[k, j].item(),
                              "vol": None if table.vol is None else table.vol[k, j].tolist()}
                     for j, seg_id in enumerate(table.segment_ids)},
        "etas": dict(zip(table.supersegment_ids, table.etas[k].tolist())),
    } for k, record_id in enumerate(table.record_ids)]
    pred = tmp_path_factory.mktemp("table") / "predictions.jsonl"
    write_predictions(pred, table)
    assert pred.read_bytes() == "".join(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
                                        for row in rows).encode("utf-8")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_written_table_reads_back_alike_from_its_binary_copy_and_from_the_jsonl(data, tmp_path_factory):
    """Both routes give one ``PredictionTable``: the records in file order, the segment and super-segment ids sorted
    (the JSONL's key order, in which the writer writes the copy too), and cc and ETA blocks that hold, bit for bit, the
    written values in that order. A file of no lines names no id; only its copy lists them."""
    table = _draw_table(data, finite=True)
    pred = tmp_path_factory.mktemp("table") / "predictions.jsonl"
    write_predictions(pred, table)
    copy = read_predictions(pred)
    _sidecar(pred).unlink()
    parsed = read_predictions(pred)
    assert isinstance(copy, PredictionTable) and isinstance(parsed, PredictionTable)
    assert list(copy.record_ids) == list(parsed.record_ids) == list(table.record_ids)
    seg_order = sorted(range(len(table.segment_ids)), key=table.segment_ids.__getitem__)
    ss_order = sorted(range(len(table.supersegment_ids)), key=table.supersegment_ids.__getitem__)
    assert list(copy.segment_ids) == [table.segment_ids[j] for j in seg_order]
    assert list(copy.supersegment_ids) == [table.supersegment_ids[i] for i in ss_order]
    for block, order in (("cc", seg_order), ("etas", ss_order)):  # bit for bit, -0.0 and subnormals too
        assert getattr(copy, block).tobytes() == getattr(table, block)[:, order].tobytes()
        if table.record_ids:
            assert getattr(parsed, block).shape == getattr(copy, block).shape
            assert getattr(parsed, block).tobytes() == getattr(copy, block).tobytes()
    if table.record_ids:
        assert list(parsed.segment_ids) == list(copy.segment_ids)
        assert list(parsed.supersegment_ids) == list(copy.supersegment_ids)
    else:
        assert parsed.segment_ids == parsed.supersegment_ids == []
    assert copy.speed is copy.vol is parsed.speed is parsed.vol is None  # the copy holds no speed or vol


# -- a dataset value the pipeline cannot hold: exit 1 naming the file, its line where it has one, and the field --


def _dataset_copy(pipeline, tmp_path):
    city = tmp_path / "city"
    shutil.copytree(pipeline / "data/toy", city)
    return city


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


def _edit_jsonl_line(path, edit) -> int:
    """Apply ``edit`` to the first line's object for which it returns True; that line's number."""
    lines = path.read_text().splitlines()
    for k, line in enumerate(lines):
        obj = json.loads(line)
        if edit(obj):
            lines[k] = json.dumps(obj)
            path.write_text("\n".join(lines) + "\n")
            return k + 1
    raise AssertionError(f"no line of {path} to edit")


def _set_first_count(obj, count) -> bool:
    for vector in obj["volumes"].values():
        vector[1] = count
        return True
    return False


def test_a_volume_count_a_float64_cannot_hold_exits_1_naming_the_line(pipeline, tmp_path):
    """10**400 is a JSON integer, so it passed the loader; fit-clusters then exited 2 converting it to a float."""
    city = _dataset_copy(pipeline, tmp_path)
    line = _edit_jsonl_line(city / "volumes.jsonl", lambda obj: _set_first_count(obj, 10**400))
    code, err = _run(["fit-clusters", "--data", city, "--k", "5", "--out", tmp_path / "clusters.json"])
    assert code == 1, err
    assert f"{city / 'volumes.jsonl'}:{line}: field 'volumes'" in err and "`t4c synth`" in err


def test_an_integer_longer_than_int_takes_exits_1_naming_the_line(pipeline, tmp_path):
    """json.loads raised a plain ValueError for a JSON integer of more than 4,300 digits, which no loader caught:
    fit-clusters exited 1 naming no file."""
    city = _dataset_copy(pipeline, tmp_path)
    _edit_jsonl_line(city / "volumes.jsonl", lambda obj: _set_first_count(obj, 987654321))
    lines = (city / "volumes.jsonl").read_text().split("\n")
    lines[0] = lines[0].replace("987654321", "7" * 5000)
    (city / "volumes.jsonl").write_text("\n".join(lines))
    code, err = _run(["fit-clusters", "--data", city, "--k", "5", "--out", tmp_path / "clusters.json"])
    assert code == 1, err
    assert f"{city / 'volumes.jsonl'}:1: invalid JSON: an integer of more than" in err and "`t4c synth`" in err


@pytest.mark.parametrize("name, line", [("edges.csv", 3), ("nodes.csv", 2), ("meta.json", 2), ("supersegments.json", 4)])
def test_a_byte_that_is_not_utf8_exits_1_naming_the_dataset_file_and_line(pipeline, tmp_path, name, line):
    city = _dataset_copy(pipeline, tmp_path)
    lines = (city / name).read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1][:2] + b"\xff" + lines[line - 1][3:]
    (city / name).write_bytes(b"\n".join(lines))
    code, err = _run(["fit-clusters", "--data", city, "--k", "5", "--out", tmp_path / "clusters.json"])
    assert code == 1, err
    assert f"{city / name}:{line}: invalid UTF-8 at byte 2; produce it again with `t4c synth`" in err


def _set_first_speed(obj) -> bool:
    for label in obj["edges"].values():
        if label.get("speed_kph") is not None:
            label["speed_kph"] = 1e300
            return True
    return False


@pytest.mark.parametrize("source", ["edges.csv", "labels.jsonl", "volumes.jsonl"])
def test_train_refuses_values_whose_normalization_overflows_and_writes_no_checkpoint(pipeline, tmp_path, source):
    """Each value is finite, so it passed the loader; train then wrote norm_stats that predict refused as damaged
    (an infinite sigma), or exited 2 on the counters' overflow."""
    city = _dataset_copy(pipeline, tmp_path)
    if source == "edges.csv":
        text = (city / "edges.csv").read_text().splitlines()
        row = text[1].split(",")
        row[text[0].split(",").index("parsed_maxspeed")] = "1e308"
        text[1] = ",".join(row)
        (city / "edges.csv").write_text("\n".join(text) + "\n")
        field = "edges.csv field 'parsed_maxspeed'"
    elif source == "labels.jsonl":
        _edit_jsonl_line(city / "labels.jsonl", _set_first_speed)
        field = "labels.jsonl field 'speed_kph'"
    else:
        _edit_jsonl_line(city / "volumes.jsonl", lambda obj: _set_first_count(obj, 10**200))
        field = "volumes.jsonl field 'volumes'"
    run = tmp_path / "run"
    code, err = _run(["train", "--data", city, "--cluster-model", pipeline / "cluster_model.json", "--out", run,
                      "--members", "1", "--epochs", "1", "--hidden", "8", "--gnn-layers", "1", "--k", "5"])
    assert code == 1, err
    assert f"{field}: values too large to normalize" in err
    assert not list(run.rglob("checkpoint.bin"))
    if source == "volumes.jsonl":  # the node-GNN baseline normalizes the same counts
        code, err = _run(["baseline", "node_gnn", "--data", city, "--out", tmp_path / "bl", "--epochs", "1"])
        assert code == 1 and f"{field}: values too large to normalize" in err, err


@pytest.mark.parametrize("stage", ["fit-clusters", "baseline", "eval-core", "eval-eta"])
def test_a_record_id_with_a_lone_surrogate_exits_1_naming_the_file_line_and_field(pipeline, tmp_path, stage):
    """The loaders took such an id, written as a JSON escape; eval-core and eval-eta with --csv then exited 1 with a
    bare "'utf-8' codec can't encode character" that named no file."""
    city = _dataset_copy(pipeline, tmp_path)
    assert _run(["baseline", "naive", "--data", city, "--out", tmp_path / "bl"])[0] == 0
    pred = tmp_path / "bl/predictions_naive.jsonl"
    rid = json.loads(pred.read_text().splitlines()[0])["record_id"]  # a validation record
    for name in ("volumes.jsonl", "labels.jsonl", "supersegments.json"):
        text = (city / name).read_text()
        assert f'"{rid}"' in text
        (city / name).write_text(text.replace(f'"{rid}"', f'"{rid}\\ud800"'))
    line = next(k for k, text in enumerate((city / "volumes.jsonl").read_text().splitlines(), 1) if rid in text)
    argv = {
        "fit-clusters": ["fit-clusters", "--data", city, "--k", "5", "--out", tmp_path / "clusters.json"],
        "baseline": ["baseline", "naive", "--data", city, "--out", tmp_path / "bl2"],
        "eval-core": ["eval-core", "--data", city, "--pred", pred, "--csv", tmp_path / "core.csv"],
        "eval-eta": ["eval-eta", "--data", city, "--pred", pred, "--csv", tmp_path / "eta.csv"],
    }[stage]
    code, err = _run(argv)
    assert code == 1, err
    assert f"{city / 'volumes.jsonl'}:{line}: field 'record_id': '{rid}\\ud800' holds a lone surrogate" in err, err
    assert not any((tmp_path / name).exists() for name in ("clusters.json", "bl2", "core.csv", "eta.csv"))


@pytest.mark.parametrize("suffix", [',"0\n16', '\r"'])
def test_an_eval_csv_reads_back_a_record_id_that_needs_quoting(pipeline, tmp_path, suffix):
    """A record id with a comma, a quote or a line break loads, and each eval stage's CSV quotes it, so that
    ``csv.reader`` reads back the report's rows; written unquoted, the id ``r,"0\\n16`` read back as other rows. Every
    other id keeps its bytes."""
    city = _dataset_copy(pipeline, tmp_path)
    assert _run(["baseline", "naive", "--data", city, "--out", tmp_path / "bl"])[0] == 0
    pred = tmp_path / "bl/predictions_naive.jsonl"
    rid = json.loads(pred.read_text().splitlines()[0])["record_id"]  # a validation record
    for path in (city / "volumes.jsonl", city / "labels.jsonl", city / "supersegments.json", pred):
        text = path.read_text()
        assert f'"{rid}"' in text
        path.write_text(text.replace(f'"{rid}"', json.dumps(rid + suffix)))
    for stage, column in (("eval-core", "core_score"), ("eval-eta", "eta_mae_s")):
        code, err = _run([stage, "--data", city, "--pred", pred, "--out", tmp_path / "report.json",
                          "--csv", tmp_path / "report.csv"])
        assert code == 0, err
        per_record = json.loads((tmp_path / "report.json").read_text())["per_record"]
        assert rid + suffix in per_record
        with open(tmp_path / "report.csv", newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == [["record_id", column], *([r, f"{v:.6f}"] for r, v in per_record.items())]
        text = (tmp_path / "report.csv").read_text(encoding="utf-8")
        assert all(f"\n{r},{v:.6f}\n" in text for r, v in per_record.items() if r != rid + suffix)


# -- the labels' binary copy: every stage that loads the dataset prints and writes the same with it as without it ---


def test_each_stage_gives_the_same_output_with_the_labels_copy_as_without_it(pipeline, tmp_path, monkeypatch):
    import t4c.data as data
    from t4c.data import LabelTable

    city = _dataset_copy(pipeline, tmp_path)
    taken, real = [], data._labels_copy

    def counted(*args):
        taken.append(real(*args))
        return taken[-1]

    monkeypatch.setattr(data, "_labels_copy", counted)
    stages = [
        ["fit-clusters", "--data", city, "--k", "5", "--out", "out/clusters.json"],
        ["train", "--data", city, "--cluster-model", "out/clusters.json", "--out", "out/run", "--members", "2",
         "--epochs", "1", "--hidden", "8", "--gnn-layers", "1", "--k", "5"],
        ["predict", "--data", city, "--cluster-model", "out/clusters.json", "--run", "out/run", "--out", "out/pred.jsonl"],
        ["eval-core", "--data", city, "--pred", "out/pred.jsonl", "--out", "out/core.json", "--csv", "out/core.csv"],
        ["eval-eta", "--data", city, "--pred", "out/pred.jsonl", "--out", "out/eta.json", "--csv", "out/eta.csv"],
        ["baseline", "naive", "--data", city, "--out", "out/bl"],
    ]

    def run_stages():
        """Each stage's exit code and output, and the bytes of every file the stages wrote."""
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        (tmp_path / "out").mkdir()
        results = []
        for argv in stages:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                results.append((main(["--workdir", str(tmp_path), *map(str, argv)]), out.getvalue(), err.getvalue()))
        written = sorted(path for path in (tmp_path / "out").rglob("*") if path.is_file())
        return results, {path.relative_to(tmp_path).as_posix(): path.read_bytes() for path in written}

    with_copy = run_stages()
    assert len(taken) == len(stages) and all(isinstance(table, LabelTable) for table in taken)
    (city / "labels.jsonl.bin").rename(tmp_path / "labels.jsonl.bin.aside")
    taken.clear()
    parsed = run_stages()
    assert taken == [None] * len(stages)
    assert with_copy == parsed
    assert [code for code, _, _ in parsed[0]] == [0] * len(stages)
    assert {"out/clusters.json", "out/pred.jsonl", "out/pred.jsonl.bin", "out/core.csv", "out/eta.json"} <= set(parsed[1])
