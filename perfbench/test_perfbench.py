"""Tests of the benchmark itself, on tiny cities.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMEOUT_S = 170


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=TIMEOUT_S,
    )


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# city800-train is not gated, but stays runnable by hand.
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["city800-train"])
def test_smoke_run_prints_every_end_to_end_metric_with_its_unit(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc.stdout)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("val_core", "eta_mae_s", "error_rate"):
        assert f"  {name} " in proc.stdout


def test_traced_smoke_run_prints_every_layer_metric_and_a_chrome_trace():
    proc = bench("--workload", "city50-train", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc.stdout)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["metrics"]["autodiff.ops_per_step"]["value"] == 61
    assert result["metrics"]["autodiff.aggregation_matrix.per_forward"]["value"] == 2
    assert "identical with tracing off and on" in proc.stdout

    trace_line = next(line for line in proc.stdout.splitlines() if line.startswith("trace file: "))
    trace = json.loads(Path(trace_line[len("trace file: "):]).read_text(encoding="utf-8"))
    events = trace["traceEvents"]
    assert events
    for event in events:
        assert event["ph"] == "X"
        assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= event.keys()
        assert event["dur"] >= 0
    assert len({e["args"]["run"] for e in events}) == 1
    ids = {e["args"]["id"] for e in events}
    assert all(e["args"]["parent"] is None or e["args"]["parent"] in ids for e in events)


def test_tracing_leaves_checkpoint_bytes_unchanged(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "T4C_THREADS"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    digests = []
    for traced in (False, True):
        result = tmp_path / f"result_{traced}.json"
        cmd = [
            sys.executable, str(HERE / "workload.py"), "--workload", "city50-train", "--seed", "5",
            "--seconds", "1", "--smoke", "--work", str(tmp_path / f"work_{traced}"), "--result", str(result),
        ]
        if traced:
            cmd += ["--trace-file", str(tmp_path / "trace.json")]
        subprocess.run(cmd, check=True, cwd=ROOT, env=env, timeout=TIMEOUT_S)
        digests.append(json.loads(result.read_text(encoding="utf-8"))["digests"])
    assert any(name.endswith("checkpoint.bin") for name in digests[0])
    assert any(name.endswith("runlog.json") for name in digests[0])
    assert digests[0] == digests[1]


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "city50-train", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
