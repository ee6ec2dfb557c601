"""Benchmark of the t4c pipeline on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload city50-train --seed 1 --seconds 10 --trace 0

Each workload runs in a fresh child process (``workload.py``) with the
BLAS thread count pinned to 1 and ``T4C_THREADS`` unset. ``--trace 0``
prints the end-to-end metrics: set-up time, peak memory, and the best
time of each short unit of work (see ``workload.py``). ``--trace 1`` runs
one untraced and one traced pass of identical work, checks that tracing
changed no artifact bit, and prints the per-layer metrics and the tracing
overhead. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import metric_units  # noqa: E402
from workload import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "train_step_ms": "ms",
    "node_gnn_step_ms": "ms",
    "predict_record_ms": "ms",
    "eval_ms": "ms",
    "peak_rss_mb": "MB",
}
# Deterministic for a seed; printed and checked, not gated (see README.md).
QUALITY = {"val_core": "nats", "eta_mae_s": "s"}
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0
WORK = ROOT / ".perfbench_work"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("T4C_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, work: Path, deadline: float, traced: bool, one_pass: bool) -> dict:
    tag = "traced" if traced else "plain"
    result_path = work / f"result_{tag}.json"
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--work", str(work / tag), "--result", str(result_path),
    ]
    if traced:
        cmd += ["--trace-file", str(WORK / f"trace_{args.workload}.json")]
    if one_pass:
        cmd.append("--one-pass")
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0 or not result_path.is_file():
        raise RuntimeError(f"workload process exited {proc.returncode} without a result")
    return json.loads(result_path.read_text(encoding="utf-8"))


def print_header(args, result: dict) -> None:
    m = result["machine"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"machine: nproc={m['nproc']} cpu_affinity={m['cpu_affinity']} blas_threads={m['blas_threads']} "
          f"numpy={m['numpy']} blas={m['blas']} python={m['python']} (process-level measurements only)")
    print(f"city: {result['city']}; set-up repetitions={result['setup_reps']} rounds={result['rounds']}")


def report(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    shown = {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in units.items() if name in metrics
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": shown}))


def untraced_run(args, work: Path, deadline: float) -> None:
    result = run_child(args, work, deadline, traced=False, one_pass=False)
    metrics = dict(result.get("metrics", {}))
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    failures = list(result["failures"])
    missing = [name for name in END_TO_END if name not in metrics]
    attempted = result["attempted"] + 1
    if missing:
        failures.append(f"metrics not measured: {', '.join(missing)}")
    print_header(args, result)
    print("unit times, best of count (median): " + ", ".join(
        f"{name} {result['units'][name]} ({median:.4g} ms)" for name, median in result.get("medians", {}).items()
    ))
    for name, unit in END_TO_END.items():
        if name in metrics:
            print(f"  {name:24s} {metrics[name]:14.6g} {unit}")
    for name, unit in QUALITY.items():
        if name in metrics:
            print(f"  {name:24s} {metrics[name]:14.10g} {unit}  (deterministic per seed)")
    print(f"  {'error_rate':24s} {len(failures) / attempted:14.6g} ratio  ({len(failures)} of {attempted})")
    for failure in failures:
        print(f"FAILED: {failure}")
    report(not failures, attempted, len(failures), metrics, END_TO_END)


def traced_run(args, work: Path, deadline: float) -> None:
    plain = run_child(args, work, deadline, traced=False, one_pass=True)
    traced = run_child(args, work, deadline, traced=True, one_pass=True)
    failures = list(plain["failures"]) + list(traced["failures"])
    attempted = plain["attempted"] + traced["attempted"] + 1
    same = plain.get("digests") is not None and plain.get("digests") == traced.get("digests")
    if not same:
        failures.append("tracing changed the artifacts: checkpoint, run log, predictions or val_core bits differ")
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["trace.overhead_pct"] = 100.0 * layers["trace.overhead_s"] / plain["wall_s"]

    print_header(args, traced)
    print(f"trace file: {traced['trace_file']}")
    print(f"determinism: {len(plain.get('digests') or {})} artifact digests "
          f"{'identical' if same else 'DIFFER'} with tracing off and on")
    print(f"overhead: pass wall {plain['wall_s']:.3f} s untraced, {traced['wall_s']:.3f} s traced")
    for name in END_TO_END:
        off, on = plain.get("metrics", {}).get(name), traced.get("metrics", {}).get(name)
        if off is not None and on is not None:
            print(f"  {name:24s} untraced {off:12.6g}  traced {on:12.6g}  traced-untraced {on - off:+12.6g}")
    units = metric_units()
    for name, unit in units.items():
        print(f"  {name:48s} {layers.get(name, float('nan')):16.6g} {unit}")
    for failure in failures:
        print(f"FAILED: {failure}")
    missing = [name for name in units if name not in layers]
    if missing:
        failures.append(f"per-layer metrics not measured: {', '.join(missing)}")
    report(not failures, attempted, len(failures), layers, units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="t4c pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="how long the timed rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny city and sample counts, for tests")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "t4c" / "cli.py").is_file():
        print(f"perfbench: no t4c sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        (traced_run if args.trace else untraced_run)(args, work, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
