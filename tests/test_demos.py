"""Every narrative demo runs to completion, with any warning an error (as the CI's console-script steps run), and
leaves nothing in the temporary directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SLOW = {"05_train_and_evaluate.py", "06_ablation.py"}  # a few seconds of training each


@pytest.mark.parametrize("demo", [
    pytest.param(path.name, marks=[pytest.mark.slow] if path.name in SLOW else [])
    for path in sorted(DEMOS.glob("*.py"))
])
def test_demo_runs(demo, tmp_path):
    src = str(DEMOS.parent / "src")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = {**os.environ, "TMPDIR": str(tmp), "PYTHONWARNINGS": "error",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp.iterdir()) == []
