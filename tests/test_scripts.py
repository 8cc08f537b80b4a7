"""Smoke test: each experiment script runs end to end on a small cohort."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, outputs", [
    ("run_benchmark.py", ["--users", "1500", "--weeks", "4"],
     ["run.json", "report.json", "grid.csv", "window_curve.csv", "dataset/users.csv",
      "dataset/events.csv"]),
    ("sweep_seeds.py", ["--seeds", "1", "--users", "1500", "--weeks", "4"],
     ["schema_errors.csv", "window_errors.csv"]),
], ids=["run_benchmark", "sweep_seeds"])
def test_script_runs(tmp_path, script, args, outputs):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args, "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert [name for name in outputs if not (out / name).is_file()] == []
