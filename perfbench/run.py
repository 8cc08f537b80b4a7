#!/usr/bin/env python3
"""Performance benchmark of the skattr measurement loop.

    python3 perfbench/run.py --workload grid|sweep|stagewise|all \
        --seed N --seconds S --trace 0|1 [--users N]

Run from the repository root. Each workload runs as fresh processes, with
``src`` on the path and every ``SKATTR_*`` variable removed. A run pins
itself, its workload processes and a core-speed probe (``probe.py``) to
one CPU, repeats the workload (set-up then timed body) until ``--seconds``
is spent, at least three times, and reports medians of the times scaled
to the probe's reference core speed. Every repetition passes an output
gate: on the pinned seed its output hashes must equal those recorded in
``perfbench/expected.json``, on any other seed all repetitions must agree.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs the workload once untraced and then at least twice under the tracer,
and reports the per-layer metrics; their counts must repeat exactly across
the traced repetitions and, on the pinned seed, equal the recorded counts.
The first stdout line is a record with the environment, every repetition
and the output hashes; one line per metric follows, and the last line is
the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from probe import Probe, scaled_s
from tracer import COUNTED, DERIVED, SPANNED, span_times
from workload import clock, gen_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_PY = HERE / "workload.py"
MIN_REPS = 3
MIN_TRACED_REPS = 2
PROC_TIMEOUT_S = 60
# CPUs this process may use, read before main() pins it to one of them.
NPROC = len(os.sched_getaffinity(0))

# Cohort sizes. The sweep cohort is the largest so a per-user cache would
# show in its peak memory; grid and stagewise share one size.
USERS = {"grid": 5000, "sweep": 12000, "stagewise": 5000}

D7_RR = "kind=RR;layout=TTTVVV;horizon=7"
OUTPUTS = {"grid": ("report.json", "grid.csv", "window_curve.csv"), "sweep": ("sweep.json",)}


@dataclass
class Op:
    """One operation: a workload process, or one CLI stage of stagewise."""

    name: str
    ok: bool
    outputs: dict[str, str] = field(default_factory=dict)  # label -> sha256
    note: str = ""


@dataclass
class Rep:
    """One repetition: set-up plus timed body, with its operations.

    ``setup`` and ``body`` hold (start, end) intervals on ``clock()``; on
    stagewise the body has one interval per stage, named in ``stages``.
    """

    traced: bool
    ops: list[Op]
    setup: list[tuple[float, float]] = field(default_factory=list)
    body: list[tuple[float, float]] = field(default_factory=list)
    stages: list[str] = field(default_factory=list)
    cpu_s: float = 0.0
    import_s: list[float] = field(default_factory=list)
    trace_docs: list[dict] = field(default_factory=list)


def wall_s(intervals: list[tuple[float, float]]) -> float:
    return sum(end - start for start, end in intervals)


def ref_s(intervals: list[tuple[float, float]], samples: list[tuple[float, float]]) -> float:
    """Total time of the intervals at the probe's reference core speed."""
    return sum(scaled_s(samples, start, end) for start, end in intervals)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SKATTR_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(op: Op, directory: Path, labels: tuple[str, ...]) -> None:
    """Hash the op's outputs; a missing or malformed one fails the op."""
    try:
        op.outputs = {label: sha256(directory / label) for label in labels}
        if op.name == "grid":
            op.note = grid_check(directory / "report.json")
            op.ok = not op.note
    except (OSError, ValueError, KeyError, TypeError) as exc:
        op.ok = False
        op.note = f"bad output: {type(exc).__name__}: {exc}"


def launch(argv: list[str], cwd: Path) -> tuple[int, dict, float, float, str]:
    """Run one process; return (exit code, last-line JSON, start, end, stderr tail)."""
    start = clock()
    try:
        proc = subprocess.run(argv, cwd=cwd, env=child_env(), capture_output=True,
                              text=True, timeout=PROC_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, {}, start, clock(), f"timed out after {PROC_TIMEOUT_S} s"
    end = clock()
    lines = proc.stdout.strip().splitlines()
    try:
        info = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        info = {}
    return proc.returncode, info, start, end, proc.stderr.strip()[-300:]


def load_trace(path: Path) -> list[dict]:
    return [json.loads(path.read_text(encoding="utf-8"))] if path.exists() else []


def grid_check(report_path: Path) -> str:
    """Empty when the grid has 162 cells and its baseline cells score 0."""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    cells = report["cells"]
    if len(cells) != 162:
        return f"expected 162 cells, got {len(cells)}"
    baseline = report["metadata"]["baseline"]
    base = [c for c in cells if c["schema"] == baseline
            and c["mode"] == ("plain" if c["p"] < 2 else "null_uniform")]
    if len(base) != 2 * len(report["metadata"]["p_values"]):
        return f"expected one baseline cell per p and level, got {len(base)}"
    if any(c["normalized_score"] != 0 for c in base):
        return "a baseline cell does not score exactly 0"
    return ""


def process_rep(kind: str, work: Path, seed: int, users: int, traced: bool) -> Rep:
    """grid or sweep: one workload process."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    spans = work / "spans.json"
    spans.unlink(missing_ok=True)
    argv = [sys.executable, str(WORKLOAD_PY), kind, "--seed", str(seed),
            "--users", str(users), "--out", "out"]
    if traced:
        argv += ["--trace", spans.name]
    code, info, start, end, err = launch(argv, work)
    op = Op(kind, code == 0 and "body_start" in info, note=err if code else "")
    if op.ok:
        check_outputs(op, out, OUTPUTS[kind])
    body_start = info.get("body_start", end)
    return Rep(
        traced=traced,
        ops=[op],
        setup=[(start, body_start)],
        body=[(body_start, info.get("body_end", end))],
        cpu_s=info.get("cpu_s", 0.0),
        import_s=[info["import_s"]] if "import_s" in info else [],
        trace_docs=load_trace(spans) if traced else [],
    )


def stagewise_commands(seed: int) -> list[tuple[str, list[str], tuple[str, ...]]]:
    """(stage, skattr arguments, outputs gated) in the order an analyst runs them."""
    return [
        ("generate", ["generate", "--config", "gen.json", "--out", "data"], ()),
        ("simulate", ["simulate", "--users", "data", "--schema", D7_RR, "--seed", str(seed),
                      "--out", "counts_p0.csv"], ()),
        ("privatize", ["privatize", "--counts", "counts_p0.csv", "--p", "10",
                       "--out", "counts_p10.csv"], ()),
        ("attribute", ["attribute", "--counts", "counts_p0.csv", "--profile-from", "data",
                       "--t", "30", "--g", "plain", "--out", "attr_plain.csv"],
         ("attr_plain.csv",)),
        ("attribute", ["attribute", "--counts", "counts_p10.csv", "--profile-from", "data",
                       "--t", "30", "--g", "null_convex", "--lambda", "0.5",
                       "--out", "attr_convex.csv"], ("attr_convex.csv",)),
        ("evaluate", ["evaluate", "--attr", "attr_plain.csv", "--truth-from", "data",
                      "--t", "30", "--out", "eval_plain.json"], ("eval_plain.json",)),
        ("evaluate", ["evaluate", "--attr", "attr_convex.csv", "--truth-from", "data",
                      "--t", "30", "--out", "eval_convex.json"], ("eval_convex.json",)),
    ]


def stagewise_rep(work: Path, seed: int, users: int, traced: bool) -> Rep:
    """Set-up is `skattr generate`; the body is the six analysis stages."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    (out / "gen.json").write_text(json.dumps(gen_config(users, seed)), encoding="utf-8")
    rep = Rep(traced=traced, ops=[])
    cpu_before = 0.0
    for i, (stage, args, outputs) in enumerate(stagewise_commands(seed)):
        spans = out / f"spans_{i}.json"
        if traced:
            argv = [sys.executable, str(WORKLOAD_PY), "stage", "--trace", spans.name, "--", *args]
        else:
            argv = [sys.executable, "-m", "skattr", *args]
        if i == 1:
            cpu_before = children_cpu_s()
        code, info, start, end, err = launch(argv, out)
        op = Op(stage, code == 0, note=err if code else "")
        if op.ok:
            check_outputs(op, out, outputs)
        rep.ops.append(op)
        if stage == "generate":
            rep.setup.append((start, end))
        else:
            rep.body.append((start, end))
            rep.stages.append(stage)
        if "import_s" in info:
            rep.import_s.append(info["import_s"])
        if traced:
            rep.trace_docs += load_trace(spans)
    rep.cpu_s = children_cpu_s() - cpu_before
    return rep


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_rep(workload: str, work: Path, seed: int, users: int, traced: bool) -> Rep:
    if workload == "stagewise":
        return stagewise_rep(work, seed, users, traced)
    return process_rep(workload, work, seed, users, traced)


def gate(reps: list[Rep], expected: dict[str, str] | None) -> list[str]:
    """Mark failed every op whose outputs differ from the reference.

    The reference is the recorded hashes on the pinned seed, otherwise the
    first repetition's. Returns the failure notes.
    """
    reference = dict(expected or {})
    if expected is None:
        for op in reps[0].ops:
            reference.update(op.outputs)
    notes = []
    for n, rep in enumerate(reps):
        for op in rep.ops:
            wrong = [label for label, digest in op.outputs.items()
                     if reference.get(label) != digest]
            if op.ok and wrong:
                op.ok = False
                op.note = f"output hash mismatch: {', '.join(wrong)}"
            if not op.ok:
                notes.append(f"rep {n} {op.name}: {op.note}")
    return notes


def layer_values(rep: Rep, names: list[str],
                 samples: list[tuple[float, float]]) -> dict[str, float]:
    """Per-layer metric values of one traced repetition (all its processes).

    Span times are the processes' own wall times; stage wall times are
    scaled to the reference core speed like the end-to-end times.
    """
    times: defaultdict[str, Counter] = defaultdict(Counter)
    counts: Counter[str] = Counter()
    schemas: set[str] = set()
    for doc in rep.trace_docs:
        for name, entry in span_times(doc["spans"]).items():
            times[name].update(entry)
        counts.update(doc["counts"])
        schemas.update(doc["schemas_run"])
    values = {}
    for name in names:
        prefix, _, stat = name.rpartition(".")
        if prefix in SPANNED and stat in ("busy_s", "self_s", "calls"):
            values[name] = times[prefix][stat]
        elif prefix in COUNTED and stat == "calls":
            values[name] = counts[prefix]
        elif name in DERIVED:
            values[name] = counts[name]
        elif name == "pipeline.run_schema.useful_ratio":
            calls = times["pipeline.run_schema"]["calls"]
            values[name] = len(schemas) / calls if calls else 0.0
        elif prefix.startswith("cli.") and stat == "wall_s":
            values[name] = ref_s([iv for iv, stage in zip(rep.body, rep.stages)
                                  if stage == prefix[4:]], samples)
        elif name == "cli.import_s":
            values[name] = statistics.median(rep.import_s) if rep.import_s else 0.0
        elif name == "proc.cpu_s":
            values[name] = rep.cpu_s
        elif name != "trace.overhead_s":
            raise KeyError(f"no source for per-layer metric {name!r}")
    return values


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    commit, dirty = git_state()
    return {
        "python": platform.python_version(),
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def git_state() -> tuple[str | None, bool | None]:
    """HEAD and dirty flag when the repository root is a git work tree."""
    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return None, None
    status = git("status", "--porcelain")
    return git("rev-parse", "HEAD"), None if status is None else bool(status)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 users: int | None, spec: dict, expected: dict) -> dict:
    size = USERS[workload] if users is None else users
    pinned = seed == expected["pinned_seed"] and users is None
    recorded = expected.get(workload, {}) if pinned else {}
    if pinned and recorded.get("users") != size:
        raise SystemExit(f"perfbench/expected.json has no record for {workload} at {size} users")
    work = ROOT / ".perfbench_work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    started = clock()
    reps: list[Rep] = []
    with Probe(work / "probe.txt") as probe:
        if trace:
            reps.append(run_rep(workload, work, seed, size, traced=False))
        walls: list[float] = []
        while True:
            rep_start = clock()
            reps.append(run_rep(workload, work, seed, size, traced=trace))
            walls.append(clock() - rep_start)
            # Start no repetition that would end past the run length.
            if len(walls) >= (MIN_TRACED_REPS if trace else MIN_REPS) and \
                    clock() - started + statistics.median(walls) > seconds:
                break
    samples = probe.samples()
    setup_s = [ref_s(r.setup, samples) for r in reps]
    run_s = [ref_s(r.body, samples) for r in reps]

    notes = gate(reps, recorded.get("hashes") if pinned else None)
    attempted = sum(len(r.ops) for r in reps)
    failed = sum(not op.ok for r in reps for op in r.ops)

    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        traced = [layer_values(r, names, samples) for r in reps if r.traced]
        values = {n: statistics.median(v[n] for v in traced) for n in traced[0]}
        values["trace.overhead_s"] = statistics.median(run_s[1:]) - run_s[0]
        # Stage wall and CPU times come from the untraced run: the tracer
        # would inflate them.
        untraced = [n for n in names if n.startswith(("cli.", "proc.")) and n != "cli.import_s"]
        values |= layer_values(reps[0], untraced, samples)
        # The count check is one more operation of the run.
        for name in names:
            if units[name] != "s" and len({v[name] for v in traced}) > 1:
                seen = [v[name] for v in traced]
                notes.append(f"count {name} differs across traced runs: {seen}")
        for name, count in recorded.get("counts", {}).items():
            if values[name] != count:
                notes.append(f"count {name} is {values[name]}, recorded {count}")
        attempted += 1
        failed += any(note.startswith("count ") for note in notes)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": rss_kb / 1024,
        }

    record = {
        "workload": workload, "seed": seed, "users": size, "trace": int(trace),
        "pinned": pinned, "env": environment(),
        "failed_share": failed / attempted, "notes": notes,
        "probe_samples": len(samples),
        "reps": [{"traced": r.traced, "setup_s": s, "run_s": b,
                  "setup_wall_s": wall_s(r.setup), "run_wall_s": wall_s(r.body),
                  "cpu_s": r.cpu_s,
                  "outputs": {k: v for op in r.ops for k, v in op.outputs.items()}}
                 for r, s, b in zip(reps, setup_s, run_s)],
    }
    print(json.dumps(record, sort_keys=True))
    for name, value in values.items():
        print(f"{workload}  {name:<44} {value:>16.6f} {units[name]}")
    print(f"{workload}  {'failed_share':<44} {failed / attempted:>16.6f} ratio "
          f"({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*USERS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--users", type=int, default=None,
                        help="override the cohort size (skips the pinned-seed hash check)")
    args = parser.parse_args()

    if not (ROOT / "src" / "skattr" / "__init__.py").is_file():
        print(f"error: no skattr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

    if args.workload == "all":
        # One process per workload, so peak memory is each workload's own.
        codes = []
        for workload in USERS:
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.users is not None:
                argv += ["--users", str(args.users)]
            codes.append(subprocess.run(argv, check=False).returncode)
        return max(codes)
    # The workload's processes and the speed probe share one CPU, so the
    # probe sees the speed the workload runs at.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.users, spec, expected)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
