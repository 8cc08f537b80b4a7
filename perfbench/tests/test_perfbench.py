"""Tests of the benchmark's own code: tracer arithmetic, names, smoke runs.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import run  # noqa: E402
from tracer import span_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMOKE_USERS = 1500  # smallest cohorts whose omniscient baseline has a nonzero error


def span(i, parent, name, start, end):
    return {"id": i, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_subtracts_direct_children():
    spans = [
        span(0, -1, "a", 0.0, 10.0),
        span(1, 0, "b", 1.0, 4.0),
        span(2, 0, "c", 5.0, 9.0),
        span(3, 2, "b", 6.0, 7.0),
    ]
    times = span_times(spans)
    assert times["a"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0}
    assert times["b"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0}
    assert times["c"] == {"calls": 1, "busy_s": 4.0, "self_s": 3.0}


def test_metric_and_workload_names_follow_the_grammar():
    names = [m["name"] for key in ("end_to_end", "per_layer", "workloads") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.USERS)


def test_every_per_layer_metric_has_a_source():
    names = [m["name"] for m in SPEC["per_layer"]]
    empty = run.Rep(traced=True, ops=[])
    values = run.layer_values(empty, names, [])
    assert set(values) == set(names) - {"trace.overhead_s"}


def test_gate_fails_operations_whose_outputs_differ():
    def rep(digest):
        return run.Rep(traced=False, ops=[run.Op("grid", True, {"report.json": digest})])

    reps = [rep("x"), rep("y"), rep("x")]
    assert len(run.gate(reps, None)) == 1
    assert [r.ops[0].ok for r in reps] == [True, False, True]
    reps = [rep("x"), rep("y")]
    assert len(run.gate(reps, {"report.json": "y"})) == 1
    assert [r.ops[0].ok for r in reps] == [False, True]


def test_missing_or_malformed_output_fails_the_operation(tmp_path):
    op = run.Op("sweep", True)
    run.check_outputs(op, tmp_path, ("sweep.json",))
    assert not op.ok and "FileNotFoundError" in op.note
    for name in run.OUTPUTS["grid"]:
        (tmp_path / name).write_text("{}", encoding="utf-8")
    op = run.Op("grid", True)
    run.check_outputs(op, tmp_path, run.OUTPUTS["grid"])
    assert not op.ok and "KeyError" in op.note
    reps = [run.Rep(traced=False, ops=[op])]
    assert len(run.gate(reps, None)) == 1


def test_probe_scales_intervals_by_the_mean_probe_time():
    slow = probe.REF_PROBE_S * 2
    samples = [(t / 100, probe.REF_PROBE_S if t < 100 else slow) for t in range(200)]
    # An interval on the fast half runs at the reference speed, one on the
    # slow half counts half its wall time.
    assert probe.scaled_s(samples, 0.0, 0.5) == pytest.approx(0.5)
    assert probe.scaled_s(samples, 1.2, 1.8) == pytest.approx(0.3)
    # A short interval borrows the nearest samples: half fast, half slow.
    assert probe.mean_probe_s(samples, 0.995, 1.005) == pytest.approx(1.5 * probe.REF_PROBE_S)
    with pytest.raises(ValueError):
        probe.scaled_s([], 0.0, 1.0)


def test_probe_process_samples_and_stops(tmp_path):
    with probe.Probe(tmp_path / "samples.txt") as running:
        time.sleep(0.3)
    assert running.proc.returncode is not None
    samples = running.samples()
    assert len(samples) >= 5
    assert all(0 < d < 1 for _, d in samples)


def test_tracer_patches_every_binding_of_a_function():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import skattr.cli, skattr;"
        "from tracer import Tracer; orig = skattr.pipeline.run_schema;"
        "Tracer().install();"
        "mods = [skattr.pipeline, skattr.metrics, skattr.cli];"
        "assert all(m.run_schema is skattr.pipeline.run_schema is not orig for m in mods);"
        "assert skattr.metrics.prepare_users is skattr.schema.prepare_users;"
        "rb = skattr.model.revenue_between; assert rb.__wrapped__ is not rb;"
        "assert skattr.metrics.revenue_between is rb is skattr.attribution.revenue_between;"
        "assert skattr.benchmark_matrix is skattr.metrics.benchmark_matrix"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH)], env=run.child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.USERS))
def test_tiny_cohort_smoke_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "2", "--seconds", "0",
                 "--trace", str(trace), "--users", str(SMOKE_USERS))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[0])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["notes"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(r["outputs"] for r in record["reps"])
    assert set(record["env"]) == {"python", "nproc", "cpu_model", "git_commit", "git_dirty",
                                  "pinned_cpu"}
    assert len(record["env"]["pinned_cpu"]) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "grid", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
