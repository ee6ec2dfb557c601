"""Command-line pipeline: synth, fit-clusters, train, predict, eval, baselines,
ablation, and report rendering.

The CLI parses flags and glues the stages together; each file format is read and written by the module that owns it
(the dataset and the predictions file by ``data``). Stages communicate through files only (dataset directory, cluster
model JSON, binary checkpoints, prediction JSONL and its verified binary copy), so each one is independently
rerunnable; with unchanged inputs every stage rewrites byte-identical artifacts. Exit codes: 0 success, 1 validation
error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import get_args

import numpy as np

from .baselines import fit_naive, fit_volume_cluster, node_gnn_baseline, save_baseline
from .checkpoint import load_checkpoint, save_checkpoint
from .clustering import assign_cluster, build_prior_matrices, fit_clusters, load_cluster_model, save_cluster_model
from .data import (DatasetError, Dataset, PredictionError, PredictionTable, SynthSpec, csv_text, daytime_filter,
                   generate_synthetic_city, load_dataset, parse_json, prediction_fault, read_json, type_hints,
                   write_json, write_predictions)
from .data import read_predictions as _read_predictions  # a name of this module, which perfbench wraps to time reads
from .evaluation import core_metric, eta_labels, eta_metric, etas_from_speeds
from .model import ModelConfig
from .training import (ABLATION_VARIANTS, AblationResult, TrainConfig, ensemble_predict, load_runlog, prepare_ensemble,
                       prepare_training, run_ablation, save_runlog, split_records, train_one)

__all__ = ["main"]


class CLIError(Exception):
    """User-facing validation failure (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise CLIError(f"{self.prog}: {message}")


# -- pipeline config -------------------------------------------------------------

# A flag that sets a config field has the field's path as its argparse dest: ``section.field``, or
# ``section.field.index`` for one element of a tuple field.
_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "synth": SynthSpec}


@dataclass(frozen=True)
class _Out:
    run_dir: str = "runs/run"
    cluster_model: str = "cluster_model.json"


@dataclass(frozen=True)
class _PipelineConfig:  # the pipeline config file: every key is optional, and takes its field's JSON type
    data: str = "data"
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    out: _Out = _Out()


def _pipeline_config(args, workdir: Path) -> dict:
    """The pipeline config ``--config`` names, or {}; ``read_json`` refuses one that is not a ``_PipelineConfig``."""
    if not args.config:
        return {}
    path = _resolve(workdir, args.config)
    if not path.is_file():
        raise CLIError(f"config file not found: {path}")
    try:
        return read_json(_PipelineConfig, parse_json(path.read_text(encoding="utf-8")))
    except ValueError as exc:  # not UTF-8 or JSON, or refused
        raise CLIError(f"{path}: {exc}") from None


def _config_from(args, config: dict, section: str):
    """The section's dataclass: a flag beats the config, which beats the default. A value out of range
    raises CLIError, naming the config file when it sets any of the section's fields."""
    kind, values, prefix = _SECTIONS[section], dict(config.get(section, {})), section + "."
    for dest, value in vars(args).items():
        if not dest.startswith(prefix) or value is None:
            continue
        name, _, index = dest[len(prefix):].partition(".")
        if index:  # one element of a tuple field
            items = list(values.get(name, getattr(kind, name)))  # the config's, or the field's default
            items[int(index)] = value
            value = items
        values[name] = value
    try:
        return kind(**values)
    except ValueError as exc:
        raise CLIError(f"{args.config}: {exc}" if config.get(section) else str(exc)) from None


# -- shared helpers -----------------------------------------------------------------


def _resolve(workdir: Path, value) -> Path:
    path = Path(value)
    return path if path.is_absolute() else workdir / path


def _require_artifact(path: Path, producer: str) -> Path:
    if not path.exists():
        raise CLIError(f"{path} not found; produce it with `t4c {producer}`")
    return path


def _load_data(path: Path) -> Dataset:
    _require_artifact(path, "synth (or point --data at a dataset directory)")
    return load_dataset(path)


def _config_dataset(args, config: dict, workdir: Path) -> Dataset:
    return _load_data(_resolve(workdir, args.data or config.get("data") or _PipelineConfig.data))


def _load_clusters(args, config: dict, workdir: Path, num_clusters: int, graph):
    """The cluster model and the graph's priors; refused unless they have ``num_clusters`` clusters."""
    path = _resolve(workdir, args.cluster_model or _Out(**config.get("out", {})).cluster_model)
    _require_artifact(path, "fit-clusters")
    cluster_model, priors = load_cluster_model(path, graph.segment_ids)
    if cluster_model.num_clusters != num_clusters:
        raise CLIError(
            f"{path} has K={cluster_model.num_clusters} but the model expects "
            f"num_clusters={num_clusters}; refit it with `t4c fit-clusters --k {num_clusters}`"
        )
    return cluster_model, priors


def _select_records(dataset, train_cfg: TrainConfig, subset: str):
    if subset == "all":
        return daytime_filter(dataset.records, *train_cfg.daytime)
    _, train_records, val_records = split_records(dataset, train_cfg)
    return train_records if subset == "train" else val_records


# -- subcommands ---------------------------------------------------------------------


def cmd_synth(args, workdir: Path) -> int:
    spec = _config_from(args, {}, "synth")
    out = _resolve(workdir, args.out)
    generate_synthetic_city(spec, args.seed, out)
    print(f"wrote synthetic city to {out}")
    return 0


def cmd_fit_clusters(args, workdir: Path) -> int:
    config = _pipeline_config(args, workdir)
    train_cfg = _config_from(args, config, "train")
    dataset = _config_dataset(args, config, workdir)
    _, train_records, _ = split_records(dataset, train_cfg)
    k = _config_from(args, config, "model").num_clusters
    try:
        model = fit_clusters(train_records, k)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    train_labels = dataset.labels.select(r.record_id for r in train_records)
    priors, _support = build_prior_matrices(model, train_labels, dataset.graph)
    out = _resolve(workdir, args.out)
    save_cluster_model(out, model, priors, dataset.graph.segment_ids)
    print(f"fitted {k} clusters on {len(train_records)} training records -> {out}")
    return 0


def cmd_train(args, workdir: Path) -> int:
    config = _pipeline_config(args, workdir)
    train_cfg = _config_from(args, config, "train")
    model_cfg = _config_from(args, config, "model")
    dataset = _config_dataset(args, config, workdir)
    cluster_model, priors = _load_clusters(args, config, workdir, model_cfg.num_clusters, dataset.graph)
    run_dir = _resolve(workdir, args.out or _Out(**config.get("out", {})).run_dir)
    _member_dirs(run_dir, train_cfg.ensemble_size)  # refuses a member_* directory that is not one of these members
    run_dir.mkdir(parents=True, exist_ok=True)

    training_set = prepare_training(train_cfg, dataset, cluster_model, priors, model_cfg)
    for k, seed in enumerate(train_cfg.seeds()):
        ckpt, runlog = train_one(training_set, model_cfg, seed)
        member_dir = run_dir / f"member_{k}"
        member_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(member_dir / "checkpoint.bin", ckpt)
        save_runlog(member_dir / "runlog.json", runlog)
        best = runlog.epochs[runlog.best_epoch].val_core
        print(f"member seed={seed}: best epoch {runlog.best_epoch}, val core {best:.6f}")
    write_json(run_dir / "train_config.json", {"train": asdict(train_cfg), "model": asdict(model_cfg)})
    return 0


def _member_dirs(run_dir: Path, count: int | None = None) -> list[Path]:
    """A run's member directories in member order: ``member_0`` up to ``member_{n-1}``, where n is ``count`` (the
    members ``train`` writes), or else the number of ``member_*`` directories under ``run_dir``. Any other
    ``member_*`` directory there is refused: ``predict`` would average it in, and ``report`` would list it."""
    found = [d for d in run_dir.glob("member_*") if d.is_dir()]
    if count is None and not found:
        raise CLIError(f"no member_* directories under {run_dir}; produce them with `t4c train`")
    names = [f"member_{k}" for k in range(len(found) if count is None else count)]
    stray = min((d for d in found if d.name not in names), key=str, default=None)
    if stray is not None:
        span = names[0] if len(names) == 1 else f"{names[0]} to {names[-1]}"
        raise CLIError(f"{stray} is not one of the run's members ({span}), and `t4c predict` would average it in; "
                       f"train into a fresh --out with `t4c train`")
    return [run_dir / name for name in names]


def _member_checkpoints(run_dir: Path):
    try:
        return [load_checkpoint(_require_artifact(d / "checkpoint.bin", "train")) for d in _member_dirs(run_dir)]
    except ValueError as exc:
        raise CLIError(f"{exc}; produce it again with `t4c train`") from None


def cmd_predict(args, workdir: Path) -> int:
    config = _pipeline_config(args, workdir)
    train_cfg = _config_from(args, config, "train")
    dataset = _config_dataset(args, config, workdir)
    run_dir = _resolve(workdir, args.run)
    _require_artifact(run_dir, "train")
    checkpoints = _member_checkpoints(run_dir)
    graph = dataset.graph
    cluster_model, priors = _load_clusters(args, config, workdir, checkpoints[0].config.num_clusters, graph)
    records = _select_records(dataset, train_cfg, args.records)
    ensemble = prepare_ensemble(checkpoints, graph, priors, cluster_model)

    shape = (len(records), len(graph.segments))
    cc, speed, vol = np.empty((*shape, 3)), np.empty(shape), np.empty((*shape, 3))
    for k, record in enumerate(records):  # each record's outputs go into its row of the blocks
        probs = ensemble_predict(ensemble, record)
        cc[k], speed[k], vol[k] = probs.cc, probs.speed_kph, probs.vol
    lengths = [s.length_meters for s in graph.segments]
    etas = etas_from_speeds(dataset.supersegments, graph.segment_ids, lengths, speed)
    table = PredictionTable([r.record_id for r in records], graph.segment_ids,
                            [ss.ss_id for ss in dataset.supersegments], cc, etas, speed, vol)
    out = _resolve(workdir, args.out)
    write_predictions(out, table)
    print(f"wrote predictions for {len(records)} records ({len(checkpoints)} members) -> {out}")
    return 0


def _eval_stage(args, workdir: Path, scorer, nothing_scored: str, csv_header: tuple[str, str]) -> int:
    """Score ``_read_predictions``' result with ``scorer``; print the score, then write its report and CSV when asked."""
    dataset = _load_data(_resolve(workdir, args.data))
    pred_path = _require_artifact(_resolve(workdir, args.pred), "predict (or baseline <name>)")
    predictions = _read_predictions(pred_path)
    try:
        score = scorer(dataset, predictions)
    except PredictionError as exc:
        raise prediction_fault(pred_path, predictions, exc) from None
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    if score.score is None:
        raise CLIError(nothing_scored)
    print(f"{score.score:.6f}")
    per_record = {rid: score.per_record[rid] for rid in sorted(score.per_record)}
    if args.out:
        report = {"metric": score.score, "per_record": per_record, "n_scored": score.n_scored}
        write_json(_resolve(workdir, args.out), report)
    if args.csv:
        rows = [csv_header, *((rid, f"{value:.6f}") for rid, value in per_record.items())]
        _resolve(workdir, args.csv).write_text(csv_text(rows), encoding="utf-8")
    return 0


def cmd_eval_core(args, workdir: Path) -> int:
    def score(dataset, predictions: PredictionTable):
        return core_metric(predictions, dataset.labels.select(predictions.record_ids))

    nothing_scored = "no scored segments: predictions cover no labeled records"
    return _eval_stage(args, workdir, score, nothing_scored, ("record_id", "core_score"))


def cmd_eval_eta(args, workdir: Path) -> int:
    def score(dataset, predictions: PredictionTable):
        return eta_metric(predictions, eta_labels(dataset.supersegments, set(predictions.record_ids)))

    return _eval_stage(args, workdir, score, "no labeled (record, supersegment) pairs to score",
                       ("record_id", "eta_mae_s"))


def cmd_baseline(args, workdir: Path) -> int:
    config = _pipeline_config(args, workdir)
    train_cfg = _config_from(args, config, "train")
    dataset = _config_dataset(args, config, workdir)
    out_dir = _resolve(workdir, args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, train_records, val_records = split_records(dataset, train_cfg)
    train_ids = [r.record_id for r in train_records]
    train_labels = dataset.labels.select(train_ids)

    if args.name == "node_gnn":
        score = node_gnn_baseline(dataset, train_cfg)
        write_json(out_dir / "baseline_node_gnn.json", {"val_core": score})
        print(f"node gnn validation core: {score:.6f}")
        return 0

    try:  # cc (rows, segments, 3) and ETAs (rows, super-segments), and each validation record's row
        if args.name == "naive":
            model = fit_naive(train_labels, dataset.supersegments, train_ids, per_segment=not args.global_probs)
            cc = model.cc_probs[None]
            etas = np.array([list(model.eta_median.values())], np.float64)
            rows = [0] * len(val_records)
        else:  # volume_cluster: a row per cluster
            cluster_model = fit_clusters(train_records, _config_from(args, config, "model").num_clusters)
            model = fit_volume_cluster(cluster_model, train_labels, dataset.supersegments, train_ids, dataset.graph)
            cc = model.cc_probs.swapaxes(0, 1)
            etas = np.array(list(model.eta_median.values()), np.float64).reshape(-1, cluster_model.num_clusters).T
            rows = [assign_cluster(cluster_model, record) for record in val_records]
    except ValueError as exc:
        raise CLIError(str(exc)) from None

    save_baseline(out_dir / f"baseline_{args.name}.json", model)
    pred_path = out_dir / f"predictions_{args.name}.jsonl"
    table = PredictionTable([r.record_id for r in val_records], train_labels.segment_ids, list(model.eta_median),
                            cc[rows], etas[rows])
    write_predictions(pred_path, table)
    print(f"wrote baseline_{args.name}.json and {pred_path.name} ({len(val_records)} validation records)")
    return 0


def cmd_ablate(args, workdir: Path) -> int:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants or len(set(variants)) != len(variants) or not set(variants) <= set(ABLATION_VARIANTS):
        options = ",".join(ABLATION_VARIANTS)
        raise CLIError(f"--variants: expected one or more distinct variants of {options}, got {args.variants!r}")
    config = _pipeline_config(args, workdir)
    train_cfg = _config_from(args, config, "train")
    model_cfg = _config_from(args, config, "model")
    dataset = _config_dataset(args, config, workdir)
    cluster_model, priors = _load_clusters(args, config, workdir, model_cfg.num_clusters, dataset.graph)
    try:
        result = run_ablation(dataset, variants, cluster_model, priors, train_cfg, model_cfg)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    out_dir = _resolve(workdir, args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "ablation.json", asdict(result))
    (out_dir / "ablation.csv").write_text(result.as_csv(), encoding="utf-8")
    for variant in variants:
        print(f"{variant}: {result.scores[variant]:.6f}")
    return 0


def _svg_curves(curves: dict[str, list[float]], width=640, height=360) -> str:
    """Minimal SVG line chart of validation score per epoch per member (a name ``member_k`` needs no escape)."""
    pad = 40
    all_values = [v for series in curves.values() for v in series]
    lo, hi = min(all_values), max(all_values)
    if hi - lo < 1e-12:
        hi = lo + 1e-12
    max_len = max(len(s) for s in curves.values())
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="16" text-anchor="middle" font-size="13">validation core score by epoch</text>',
    ]
    colors = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22"]
    for idx, (name, series) in enumerate(sorted(curves.items())):
        points = []
        for i, value in enumerate(series):
            x = pad + (width - 2 * pad) * (i / max(max_len - 1, 1))
            y = height - pad - (height - 2 * pad) * ((value - lo) / (hi - lo))
            points.append(f"{x:.1f},{y:.1f}")
        color = colors[idx % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{" ".join(points)}"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{20 + 14 * idx}" font-size="11" fill="{color}">{name}</text>')
    parts.append(f'<text x="{pad}" y="{height - 8}" font-size="11">epoch 0..{max_len - 1}; score {lo:.4f}..{hi:.4f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_report(args, workdir: Path) -> int:
    run_dir = _resolve(workdir, args.runs)
    _require_artifact(run_dir, "train")
    member_dirs = _member_dirs(run_dir)
    out_dir = _resolve(workdir, args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = [["member", "seed", "best_epoch", "best_val_core", "final_train_loss"]]
    curves: dict[str, list[float]] = {}
    for member in member_dirs:
        try:
            runlog = load_runlog(_require_artifact(member / "runlog.json", "train"))
        except ValueError as exc:
            raise CLIError(f"{exc}; produce it again with `t4c train`") from None
        best = runlog.epochs[runlog.best_epoch].val_core
        rows.append([member.name, runlog.seed, runlog.best_epoch, f"{best:.6f}", f"{runlog.epochs[-1].train_loss:.6f}"])
        curves[member.name] = [e.val_core for e in runlog.epochs]
    (out_dir / "report.csv").write_text(csv_text(rows), encoding="utf-8")
    (out_dir / "val_curves.svg").write_text(_svg_curves(curves), encoding="utf-8")
    if args.ablation:
        ablation_path = _require_artifact(_resolve(workdir, args.ablation), "ablate")
        try:
            result = AblationResult(**read_json(AblationResult, parse_json(ablation_path.read_text(encoding="utf-8"))))
            variants = [set(by_variant) for by_variant in vars(result).values()]
            if variants[0] - set(ABLATION_VARIANTS) or any(v != variants[0] for v in variants):
                raise ValueError(f"the variants of each table are not one subset of {ABLATION_VARIANTS}")
            table = result.as_csv()
        except ValueError as exc:  # not UTF-8 or JSON, or refused
            raise CLIError(f"{ablation_path}: damaged ablation result ({exc}); produce it again with `t4c ablate`") from None
        (out_dir / "ablation.csv").write_text(table, encoding="utf-8")
    print(f"wrote report.csv and val_curves.svg -> {out_dir}")
    return 0


# -- parser ---------------------------------------------------------------------------


def _field_flag(sub, flag: str, dest: str, help: str, **kwargs) -> None:
    """Add a flag that sets the config field ``dest`` (see ``_SECTIONS``); its type and the default its help
    shows are the field's, and its metavar is the flag's name, as argparse makes it from a plain dest."""
    section, name, *index = dest.split(".")
    kind, default = type_hints(_SECTIONS[section])[name], getattr(_SECTIONS[section], name)
    if index:
        kind, default = get_args(kind)[int(index[0])], default[int(index[0])]
    metavar = None if "choices" in kwargs else flag.lstrip("-").replace("-", "_").upper()
    sub.add_argument(flag, dest=dest, type=kind, metavar=metavar, help=f"{help} (default: {default})", **kwargs)


def _add_split_flags(sub):
    _field_flag(sub, "--daytime-start", "train.daytime.0", "first daytime slot")
    _field_flag(sub, "--daytime-end", "train.daytime.1", "one past the last daytime slot")
    _field_flag(sub, "--val-fraction", "train.val_fraction", "validation day share")
    _field_flag(sub, "--split-seed", "train.split_seed", "day split shuffle seed")


def _add_train_flags(sub):
    _field_flag(sub, "--epochs", "train.epochs", "training epochs")
    _field_flag(sub, "--batch", "train.batch_size", "records per optimizer step")
    _field_flag(sub, "--lr", "train.learning_rate", "Adam learning rate")
    _field_flag(sub, "--seed", "train.base_seed", "base seed; member k uses seed+k")
    _add_split_flags(sub)


def _add_model_flags(sub):
    _field_flag(sub, "--gnn-layers", "model.gnn_layers", "message passing rounds")
    _field_flag(sub, "--hidden", "model.hidden", "hidden width")
    _field_flag(sub, "--prior-mode", "model.prior_mode", "feed the whole prior matrix or only the record's cluster row",
                choices=["full", "active_row"])
    _field_flag(sub, "--k", "model.num_clusters", "number of volume clusters")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="t4c",
        description="Sparse loop-counter traffic forecasting pipeline.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--workdir", default=".", help="base directory for all relative paths")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("synth", help="generate a deterministic synthetic city")
    sub.add_argument("--out", required=True, help="dataset directory to write")
    _field_flag(sub, "--nodes", "synth.num_nodes", "number of intersections")
    _field_flag(sub, "--counter-frac", "synth.counter_fraction", "fraction of nodes with counters")
    _field_flag(sub, "--records", "synth.num_records", "number of volume records")
    _field_flag(sub, "--signal", "synth.signal", "label signal strength in [0, 1]")
    sub.add_argument("--seed", type=int, default=1, help="generator seed (default: %(default)s)")
    _field_flag(sub, "--records-per-day", "synth.records_per_day", "records per calendar day")
    _field_flag(sub, "--supersegments", "synth.num_supersegments", "number of supersegments")
    _field_flag(sub, "--name", "synth.city_name", "city name in meta.json")

    sub = commands.add_parser("fit-clusters", help="fit volume clusters and congestion priors")
    sub.add_argument("--data", default=None, help="dataset directory")
    sub.add_argument("--out", default=_Out.cluster_model, help="cluster model file to write")
    sub.add_argument("--config", default=None, help="pipeline config JSON")
    _field_flag(sub, "--k", "model.num_clusters", "number of volume clusters")
    _add_split_flags(sub)

    sub = commands.add_parser("train", help="train the ensemble")
    sub.add_argument("--data", default=None, help="dataset directory")
    sub.add_argument("--cluster-model", default=None, help="cluster model JSON from fit-clusters")
    sub.add_argument("--out", default=None, help=f"run directory (default: {_Out.run_dir})")
    sub.add_argument("--config", default=None, help="pipeline config JSON")
    _field_flag(sub, "--members", "train.ensemble_size", "ensemble size")
    _add_train_flags(sub)
    _add_model_flags(sub)

    sub = commands.add_parser("predict", help="ensemble predictions to JSONL")
    sub.add_argument("--data", default=None, help="dataset directory")
    sub.add_argument("--cluster-model", default=None, help="cluster model JSON")
    sub.add_argument("--run", required=True, help="run directory with member_* checkpoints")
    sub.add_argument("--records", choices=["validation", "train", "all"], default="validation",
                     help="which record subset to predict")
    sub.add_argument("--out", required=True, help="predictions JSONL to write")
    sub.add_argument("--config", default=None, help="pipeline config JSON")
    _add_split_flags(sub)

    for name, handler_help in (("eval-core", "score congestion predictions"),
                               ("eval-eta", "score supersegment ETA predictions")):
        sub = commands.add_parser(name, help=handler_help,
                                  formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sub.add_argument("--data", required=True, help="dataset directory")
        sub.add_argument("--pred", required=True, help="predictions JSONL")
        sub.add_argument("--out", default=None, help="JSON report to write")
        sub.add_argument("--csv", default=None, help="per-record CSV to write")

    baselines = commands.add_parser("baseline", help="fit a comparison system").add_subparsers(
        dest="name", required=True)  # each baseline takes the flags it reads
    for name, baseline_help in (("naive", "per-segment class frequencies"),
                                ("volume_cluster", "class frequencies per volume cluster"),
                                ("node_gnn", "a GNN on the intersections")):
        sub = baselines.add_parser(name, help=baseline_help)
        sub.add_argument("--data", default=None, help="dataset directory")
        sub.add_argument("--out", default="baselines", help="output directory")
        sub.add_argument("--config", default=None, help="pipeline config JSON")
        if name == "naive":
            sub.add_argument("--global", dest="global_probs", action="store_true",
                             help="one pooled distribution for every segment")
        elif name == "volume_cluster":
            _field_flag(sub, "--k", "model.num_clusters", "number of volume clusters")
        (_add_train_flags if name == "node_gnn" else _add_split_flags)(sub)

    sub = commands.add_parser("ablate", help="train ablation variants and compare")
    sub.add_argument("--data", default=None, help="dataset directory")
    sub.add_argument("--cluster-model", default=None, help="cluster model JSON")
    sub.add_argument("--variants", default=",".join(ABLATION_VARIANTS),
                     help="comma-separated subset of full,no_cluster,no_static,no_gnn")
    sub.add_argument("--out", default="ablation", help="output directory")
    sub.add_argument("--config", default=None, help="pipeline config JSON")
    _add_train_flags(sub)
    _add_model_flags(sub)

    sub = commands.add_parser("report", help="render metric tables and score curves",
                              formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub.add_argument("--runs", required=True, help="run directory from train")
    sub.add_argument("--ablation", default=None, help="ablation.json from ablate")
    sub.add_argument("--out", default="report", help="output directory")

    return parser


_HANDLERS = {
    "synth": cmd_synth,
    "fit-clusters": cmd_fit_clusters,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval-core": cmd_eval_core,
    "eval-eta": cmd_eval_eta,
    "baseline": cmd_baseline,
    "ablate": cmd_ablate,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        workdir = Path(args.workdir)
        return _HANDLERS[args.command](args, workdir)
    except (CLIError, DatasetError, OSError, ValueError) as exc:  # an OSError names the path it could not use
        producer = "; produce it again with `t4c synth`" if isinstance(exc, DatasetError) else ""  # a dataset file's fault
        print(f"t4c: error: {exc}{producer}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except Exception as exc:  # runtime failure
        print(f"t4c: runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
