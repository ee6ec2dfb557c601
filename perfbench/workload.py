"""One benchmark pass in a fresh process: set-up, timed rounds, output checks.

``run.py`` starts this script with the BLAS thread count pinned and
``T4C_THREADS`` unset. It drives the t4c pipeline from outside, through
``t4c.cli.main(argv)`` for every CLI stage, and writes one JSON result file.

The timed metrics are the best (shortest) time of a short unit of work
over every unit of the run: one training step, one predicted record, the
scoring part of an eval stage. Units are cut out of the CLI stages by
timestamping, from outside, the returns of ``autodiff.adam_step``,
``cli.ensemble_predict`` and ``cli.load_dataset``. The machine this was
built on is shared, and other tenants slow a unit by up to 2x in phases
that last from a millisecond to a minute, so a mean or median over a run
measures the neighbours; the best unit time measures the program.

    python3 perfbench/workload.py --workload city50-train --seed 1 \
        --seconds 10 --work .perfbench_work/x --result result.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The acceptance model of tests/test_acceptance.py, fed to the CLI as a
# pipeline config: active_row priors over K=5 clusters, hidden 32, 2 GNN
# rounds, 1 head block, Adam at 5e-3 on batches of 2 records.
NUM_CLUSTERS = 5
PIPELINE_CONFIG = {
    "model": {
        "volume_hidden": [16], "static_hidden": [16], "gnn_layers": 2, "hidden": 32,
        "head_blocks": 1, "num_clusters": NUM_CLUSTERS, "prior_mode": "active_row",
    },
    "train": {"batch_size": 2, "learning_rate": 5e-3},
}
# Synth seeds tried per --seed; the city closest to the workload's segment
# count is used (see Pass.pick_city_seed).
CITY_CANDIDATES = 8
TRAIN_EPOCHS = 1
BASELINE_EPOCHS = 2  # of `baseline node_gnn`
EVAL_REPEATS = 8  # eval-core + eval-eta pairs per round: the scoring units are short
# A round is not started when the pass would then risk the 180 s run limit.
PASS_BUDGET_S = 120.0


@dataclass(frozen=True)
class Workload:
    nodes: int
    segments: int  # the city size aimed at; the generator's count varies by about 5% with the seed
    records: int
    records_per_day: int
    members: int
    predict_records: str  # the `predict --records` subset
    train_in_setup: bool  # serving: the ensemble is trained once, in set-up


WORKLOADS = {
    # Acceptance city: a step is many tiny ops, so Python dispatch dominates.
    "city50-train": Workload(50, 148, 200, 16, 1, "validation", False),
    # 800 nodes, 2.4k segments: the dense N x N aggregation dominates. Two
    # days of 8 records keep a round short enough to repeat within a run.
    # Run by hand only: its units are too long to run clean on a shared
    # machine, so BENCHMARK.json does not gate it (see README.md).
    "city800-train": Workload(800, 2392, 16, 8, 1, "all", False),
    # Nine-member ensemble: forward-only inference, checkpoint loads, JSONL.
    "city50-serve": Workload(50, 148, 200, 16, 9, "validation", True),
}
# Timed units cut out of one CLI stage. A step or record unit is the gap
# between two returns of the named function: within `train` or `baseline`
# one training step, within `predict` one record. An eval stage after its
# `load_dataset` gives three scoring units: reading the predictions (to the
# return of `_read_predictions`), scoring (to the return of the stage's
# scorer), and writing the report (to the end of the stage).
UNIT_TICKS = {"train_step": "adam_step", "node_gnn_step": "adam_step", "predict_record": "ensemble_predict"}
SCORERS = {"eval-core": "core_metric", "eval-eta": "eta_metric"}
SCORING_PARTS = ("read", "score", "report")
UNITS = (*UNIT_TICKS, *(f"{stage}.{part}" for stage in SCORERS for part in SCORING_PARTS))


def smoke(workload: Workload) -> Workload:
    """A tiny version of a workload for the benchmark's own tests."""
    return replace(workload, nodes=12, segments=36, records=32, records_per_day=16, members=min(workload.members, 2))


class StageFailed(Exception):
    pass


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_tree(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(file.relative_to(path).as_posix().encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()


class Ticks:
    """Timestamps of every return of the functions that delimit the units.

    The wrappers are put in the module namespaces the pipeline calls
    through, on top of any tracer.
    """

    FUNCTIONS = (
        ("autodiff", "adam_step"), ("cli", "ensemble_predict"), ("cli", "load_dataset"),
        ("cli", "_read_predictions"), ("cli", "core_metric"), ("cli", "eta_metric"),
    )

    def __init__(self):
        self.times: dict[str, list[float]] = {attr: [] for _, attr in self.FUNCTIONS}
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr in self.FUNCTIONS:
            owner = sys.modules[f"t4c.{module}"]
            fn = getattr(owner, attr)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._ticked(fn, self.times[attr]))

    @staticmethod
    def _ticked(fn, times: list[float]):
        def ticked(*args, **kwargs):
            result = fn(*args, **kwargs)
            times.append(time.perf_counter())
            return result

        return ticked

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def clear(self) -> None:
        for times in self.times.values():
            times.clear()


def machine_settings() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
    }


class Pass:
    """Runs one workload: set-up, then rounds of timed stages, with checks."""

    def __init__(self, workload: Workload, seed: int, work: Path, ticks: Ticks, tracer=None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.ticks = ticks
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.units: dict[str, list[float]] = {name: [] for name in UNITS}  # seconds per unit
        self.setup_times: list[float] = []  # seconds of synth + fit-clusters, one per repetition
        self.setup_tree: str | None = None
        self.ensemble_s = 0.0  # serving: training the ensemble, once
        self.config = work / "pipeline_config.json"
        self.config.write_text(json.dumps(PIPELINE_CONFIG), encoding="utf-8")

    # -- bookkeeping ----------------------------------------------------------

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def _span(self, name: str, args: dict):
        return self.tracer.span(name, args) if self.tracer else contextlib.nullcontext(args)

    def _untraced(self):
        return self.tracer.suspended() if self.tracer else contextlib.nullcontext()

    def stage(self, argv: list, unit: str | None = None) -> tuple[float, str, dict]:
        """Run one CLI stage in-process; returns (seconds, stdout, span args).

        With ``unit``, the stage's units of that kind are added to its times.
        """
        from t4c import cli

        argv = [str(a) for a in argv]
        name = argv[0]
        out, err = io.StringIO(), io.StringIO()
        args: dict = {}
        self.ticks.clear()
        with self._span(f"cli.{name}", args):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            t_end = time.perf_counter()
        if not self.check(rc == 0, f"stage {' '.join(argv)} exited {rc}: {err.getvalue().strip()}"):
            raise StageFailed(name)
        ticks = self.ticks.times
        if unit in UNIT_TICKS:
            times = ticks[UNIT_TICKS[unit]]
            self.units[unit] += [b - a for a, b in zip(times, times[1:])]
        elif unit in SCORERS:
            marks = [ticks["load_dataset"][-1], ticks["_read_predictions"][-1], ticks[SCORERS[unit]][-1], t_end]
            for part, a, b in zip(SCORING_PARTS, marks, marks[1:]):
                self.units[f"{unit}.{part}"].append(b - a)
        return t_end - t0, out.getvalue(), args

    # -- stages ----------------------------------------------------------------

    def pick_city_seed(self) -> tuple[int, int]:
        """The synth seed for this --seed and its city's segment count: of
        CITY_CANDIDATES seeds derived from it, the first whose city has the
        segment count closest to the workload's.

        Per-record and per-step costs grow with the segment count, which
        the generator varies by about 5% with the seed. A fixed size keeps
        that out of the spread between seeds; the seed still picks the
        city's content.
        """
        from t4c.data import SynthSpec, generate_synthetic_city

        w = self.workload
        spec = SynthSpec(num_nodes=w.nodes, num_records=w.records, records_per_day=w.records_per_day)
        best = None
        with self._untraced():
            for seed in range(self.seed * CITY_CANDIDATES, (self.seed + 1) * CITY_CANDIDATES):
                dataset = generate_synthetic_city(spec, seed, self.work / "candidate")
                count = len(dataset.graph.segments)
                if best is None or abs(count - w.segments) < abs(best[1] - w.segments):
                    best = (seed, count)
                if count == w.segments:
                    break
        shutil.rmtree(self.work / "candidate")
        return best

    def make_city(self, base: Path) -> None:
        """One set-up repetition: `synth` and `fit-clusters` into ``base``.

        Each repetition must write the same bytes; its time is one sample
        of ``setup_s``.
        """
        w = self.workload
        t_synth, _, _ = self.stage([
            "synth", "--out", base / "city", "--nodes", w.nodes, "--records", w.records,
            "--records-per-day", w.records_per_day, "--seed", self.city_seed,
        ])
        t_fit, _, _ = self.stage([
            "fit-clusters", "--data", base / "city", "--k", NUM_CLUSTERS, "--out", base / "clusters.json",
        ])
        self.setup_times.append(t_synth + t_fit)
        tree = sha256_tree(base)
        if self.setup_tree is None:
            self.setup_tree = tree
        self.check(tree == self.setup_tree, f"set-up repetition {len(self.setup_times)} wrote other bytes")

    def setup(self) -> None:
        w = self.workload
        self.city_seed, segments = self.pick_city_seed()
        self.city_info = {"synth_seed": self.city_seed, "segments": segments}
        self.make_city(self.work / "setup")
        self.city = self.work / "setup" / "city"
        self.clusters = self.work / "setup" / "clusters.json"
        with self._untraced():
            self._load_reference()
        self.check(len(self.dataset.graph.segments) == segments,
                   f"synth --seed {self.city_seed} made {len(self.dataset.graph.segments)} segments, "
                   f"the library call made {segments}")
        if w.train_in_setup:
            self.run_dir = self.work / "ensemble"
            self.ensemble_s = self.train(self.run_dir, w.members, timed=False)

    def _load_reference(self) -> None:
        from t4c.data import daytime_filter, labels_by_record, load_dataset, split_train_validation
        from t4c.training import TrainConfig

        w = self.workload
        cfg = TrainConfig()
        self.dataset = load_dataset(self.city)
        records = daytime_filter(self.dataset.records, *cfg.daytime)
        _, val = split_train_validation(records, 1.0 - cfg.val_fraction, cfg.split_seed)
        self.predicted = records if w.predict_records == "all" else val
        self.labels = labels_by_record(self.dataset.labels)

    def train(self, run_dir: Path, members: int, timed: bool = True) -> float:
        seconds, _, _ = self.stage([
            "train", "--config", self.config, "--data", self.city, "--cluster-model", self.clusters,
            "--out", run_dir, "--members", members, "--epochs", TRAIN_EPOCHS,
        ], unit="train_step" if timed else None)
        return seconds

    def round(self, k: int) -> tuple[dict, dict]:
        """One round of timed stages; returns (quality scores, artifact digests)."""
        w = self.workload
        base = self.work / f"round{k}"
        base.mkdir()
        # The set-up is repeated once per round, so that its samples spread
        # over the run instead of catching one phase of the machine.
        self.make_city(base / "setup")
        # Serving trains too, one member per round, so that its training
        # steps spread over the run like every other unit; it predicts with
        # the ensemble trained in set-up.
        run = base / "run"
        self.train(run, 1 if w.train_in_setup else w.members)
        if not w.train_in_setup:
            self.run_dir = run

        pred = base / "predictions.jsonl"
        _, _, span_args = self.stage([
            "predict", "--data", self.city, "--cluster-model", self.clusters, "--run", self.run_dir,
            "--records", w.predict_records, "--out", pred,
        ], unit="predict_record")
        rows = [json.loads(line) for line in pred.read_text(encoding="utf-8").splitlines()]
        span_args.update(records=len(rows), bytes_written=pred.stat().st_size)

        for _ in range(EVAL_REPEATS):
            _, core_out, _ = self.stage([
                "eval-core", "--data", self.city, "--pred", pred, "--out", base / "core.json",
            ], unit="eval-core")
            _, eta_out, _ = self.stage([
                "eval-eta", "--data", self.city, "--pred", pred, "--out", base / "eta.json",
            ], unit="eval-eta")

        self.stage([
            "baseline", "node_gnn", "--config", self.config, "--data", self.city,
            "--out", base / "baselines", "--epochs", BASELINE_EPOCHS,
        ], unit="node_gnn_step")

        with self._untraced():
            try:
                quality = self.check_outputs(rows, base, core_out, eta_out)
            except (KeyError, TypeError, ValueError) as exc:
                self.check(False, f"malformed predictions or reports: {exc!r}")
                raise StageFailed("checks") from None
            digests = {
                f"{d.name}/{p.relative_to(d).as_posix()}": sha256_file(p)
                for d in sorted({run, self.run_dir}) for p in sorted(d.rglob("*")) if p.is_file()
            }
            digests["predictions.jsonl"] = sha256_file(pred)
            digests["val_core"] = float(quality["val_core"]).hex()
        return quality, digests

    # -- output checks -----------------------------------------------------------

    def check_outputs(self, rows: list[dict], base: Path, core_out: str, eta_out: str) -> dict:
        import numpy as np

        from t4c.evaluation import core_metric

        expected = [r.record_id for r in self.predicted]
        self.check([row["record_id"] for row in rows] == expected,
                   f"predictions cover {len(rows)} records, expected {len(expected)} in order")
        bad_sum = bad_finite = uncovered = 0
        for row in rows:
            segments = row["segments"]
            cc = np.array([s["cc"] for s in segments.values()], dtype=np.float64)
            vol = np.array([s["vol"] for s in segments.values()], dtype=np.float64)
            speed = np.array([s["speed"] for s in segments.values()], dtype=np.float64)
            etas = np.array(list(row["etas"].values()), dtype=np.float64)
            bad_sum += int(np.sum(np.abs(cc.sum(axis=1) - 1.0) > 1e-9) + np.sum(np.abs(vol.sum(axis=1) - 1.0) > 1e-9))
            bad_finite += int(np.sum(~np.isfinite(speed)) + np.sum(~np.isfinite(etas)))
            bundle = self.labels.get(row["record_id"])
            if bundle is not None:
                uncovered += sum(seg not in segments for seg in bundle.edges)
            uncovered += sum(
                row["record_id"] in ss.etas and ss.ss_id not in row["etas"] for ss in self.dataset.supersegments
            )
        self.check(bad_sum == 0, f"{bad_sum} cc or vol rows do not sum to 1 within 1e-9")
        self.check(bad_finite == 0, f"{bad_finite} speeds or ETAs are not finite")
        self.check(uncovered == 0, f"{uncovered} labelled segments or super-segments have no prediction")

        predictions = {
            row["record_id"]: {seg: np.asarray(e["cc"], dtype=np.float64) for seg, e in row["segments"].items()}
            for row in rows
        }
        bundles = [self.labels[row["record_id"]] for row in rows if row["record_id"] in self.labels]
        recomputed = core_metric(predictions, bundles).score
        core_report = json.loads((base / "core.json").read_text(encoding="utf-8"))
        eta_report = json.loads((base / "eta.json").read_text(encoding="utf-8"))
        self.check(
            core_out.strip() == f"{recomputed:.6f}" and core_report["metric"] == recomputed,
            f"eval-core printed {core_out.strip()} (report {core_report['metric']!r}), "
            f"core_metric over the JSONL gives {recomputed!r}",
        )
        self.check(eta_out.strip() == f"{eta_report['metric']:.6f}",
                   f"eval-eta printed {eta_out.strip()}, report holds {eta_report['metric']!r}")
        return {"val_core": recomputed, "eta_mae_s": eta_report["metric"]}


def run_pass(pass_: Pass, seconds: float, one_pass: bool) -> dict:
    """Set up, then run rounds until ``seconds`` pass; every round must match round 0.

    ``one_pass`` sets up once and runs exactly one round, so that two passes
    do identical work (the traced run compares them).
    """
    t_start = time.perf_counter()
    result = {"rounds": 0}
    try:
        pass_.setup()
        t_rounds = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            k = result["rounds"]
            quality, digests = pass_.round(k)
            if k == 0:
                result["digests"], first_quality = digests, quality
            else:
                pass_.check(digests == result["digests"], f"round {k} artifacts differ from round 0")
                shutil.rmtree(pass_.work / f"round{k - 1}")
            result["rounds"] = k + 1
            now = time.perf_counter()
            if one_pass or now - t_rounds >= seconds or (now - t_start) + (now - t_round) > PASS_BUDGET_S:
                break
    except StageFailed:
        pass
    result["wall_s"] = time.perf_counter() - t_start
    result["city"] = getattr(pass_, "city_info", None)
    result["setup_reps"] = len(pass_.setup_times)
    result["units"] = {name: len(times) for name, times in pass_.units.items()}
    if result["rounds"]:
        best = {name: min(times) * 1e3 for name, times in pass_.units.items() if times}
        setup_s = statistics.median(pass_.setup_times) + pass_.ensemble_s
        result["metrics"] = {"setup_s": setup_s, **first_quality}
        for name in ("train_step", "node_gnn_step", "predict_record"):
            if name in best:
                result["metrics"][f"{name}_ms"] = best[name]
        scoring = [f"{stage}.{part}" for stage in SCORERS for part in SCORING_PARTS]
        if all(name in best for name in scoring):
            result["metrics"]["eval_ms"] = sum(best[name] for name in scoring)
        result["medians"] = {name: statistics.median(times) * 1e3 for name, times in pass_.units.items() if times}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True, help="scratch directory for the pass's artifacts")
    parser.add_argument("--result", required=True, help="JSON result file to write")
    parser.add_argument("--trace-file", default=None, help="trace the pass and write Chrome trace events here")
    parser.add_argument("--one-pass", action="store_true", help="one set-up and one round, regardless of --seconds")
    parser.add_argument("--smoke", action="store_true", help="tiny city and sample counts, for tests")
    args = parser.parse_args(argv)

    # One CPU for the whole pass: fewer migrations, steadier timings.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import t4c.cli  # noqa: F401  (loads every t4c module before tracing starts)

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace_file:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{args.workload}/seed{args.seed}/{os.getpid()}/{time.time_ns()}")
        tracer.install()
    ticks = Ticks()
    ticks.install()
    pass_ = Pass(workload, args.seed, work, ticks, tracer)
    result = run_pass(pass_, args.seconds, one_pass=args.one_pass or args.smoke)
    ticks.uninstall()
    result.update(
        attempted=pass_.attempted,
        failures=pass_.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine_settings(),
    )
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write_chrome_trace(args.trace_file, {"workload": args.workload, "seed": args.seed, **result["machine"]})
        result["trace_file"] = args.trace_file
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
