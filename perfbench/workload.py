"""One workload process of the skattr benchmark.

    workload.py grid  --seed S --users N --out DIR [--trace SPANS.json]
    workload.py sweep --seed S --users N --out DIR [--trace SPANS.json]
    workload.py stage --trace SPANS.json -- <skattr command line>

``grid`` writes the run config and calls ``skattr benchmark``. ``sweep``
generates a cohort in memory and runs the trend-schema grid and the D7-RR
window curve as library calls, then writes their canonical errors to
``DIR/sweep.json`` after the timed body. ``stage`` runs one CLI stage under
the tracer. The last stdout line is a JSON object with the body's start and
end on the system-wide monotonic clock, which the parent compares with its
own launch time, plus the import time and the body's CPU seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SWEEP_SCHEMAS = (
    "kind=PV;layout=VVVVVV;horizon=30",
    "kind=RR;layout=TTTVVV;horizon=7",
    "kind=RI;layout=TTTCCC;horizon=7",
    "kind=RR;layout=TVVVVV;horizon=1",
    "kind=RI;layout=TCCCCC;horizon=1",
    "kind=EV;layout=CCCCCC",
    "kind=UD",
)
WINDOWS = ((7, 14), (14, 30), (30, 60), (60, 90))


def clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's timestamps
    # compare with the parent's; perf_counter makes no such promise.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def gen_config(users: int, seed: int) -> dict:
    return {"n_users": users, "n_weeks": 12, "event_horizon_days": 90, "seed": seed}


def grid_config(users: int, seed: int) -> dict:
    """The README run config: default schemas, p, estimators and windows."""
    return {
        "gen": gen_config(users, seed),
        "p_values": [0, 2, 10, 100],
        "g_modes": ["plain", "null_uniform", "null_empirical"],
        "t": 30,
        "windows": [list(w) for w in WINDOWS],
        "seed": seed,
    }


def sweep_body(skattr, users, seed: int) -> dict:
    """The shape of scripts/sweep_seeds.py for one seed, canonicalised."""
    schemas = [skattr.schema.schema_from_text(s) for s in SWEEP_SCHEMAS]
    prepared = skattr.schema.prepare_users(users)
    report = skattr.metrics.benchmark_matrix(
        users, schemas, [0], ["plain"], 30, seed=seed, prepared=prepared
    )
    curve = skattr.metrics.window_error_curve(
        users, schemas[1], 0, "plain", WINDOWS, seed=seed, prepared=prepared
    )
    return {
        "cells": [[c.schema, c.level, c.aggregate_error] for c in report.cells],
        "curve": [[w.lo_day, w.hi_day, w.error] for w in curve],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("grid", "sweep", "stage"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--users", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", type=Path, help="write spans and counts here")
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    stage_argv = argv[cut + 1:]

    start = clock()
    import skattr.cli

    import_s = clock() - start
    tracer = None
    if args.trace is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    result = None
    if args.kind == "grid":
        args.out.mkdir(parents=True, exist_ok=True)
        config = args.out / "run.json"
        config.write_text(json.dumps(grid_config(args.users, args.seed)), encoding="utf-8")
        cli_argv = ["benchmark", "--config", str(config), "--out", str(args.out)]
    elif args.kind == "sweep":
        gen = skattr.config.gen_config_from_dict(gen_config(args.users, args.seed))
        users, _ = skattr.synthgen.generate_dataset(gen)
    else:
        cli_argv = stage_argv

    cpu_start = time.process_time()
    body_start = clock()
    if args.kind == "sweep":
        result = sweep_body(skattr, users, args.seed)
        code = 0
    else:
        code = skattr.cli.main(cli_argv)
    body_end = clock()
    cpu_s = time.process_time() - cpu_start

    if result is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "sweep.json").write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps({"body_start": body_start, "body_end": body_end,
                      "import_s": import_s, "cpu_s": cpu_s}))
    return code


if __name__ == "__main__":
    sys.exit(main())
