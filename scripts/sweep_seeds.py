#!/usr/bin/env python3
"""Multi-seed trend study: schema error ordering and window-curve growth.

For each seed, generates a cohort, computes the campaign-level aggregate
error of every stock schema at p=0, and the window error curve for the
seven-day rolling-revenue schema. Writes one CSV row per (seed, schema) and
per (seed, window), then prints how often the expected ordering
PV <= D7 <= D1 <= EV <= UD held and the mean curve.

Usage:
    python scripts/sweep_seeds.py --seeds 10 --users 20000 --out out/sweep
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from skattr.metrics import benchmark_matrix, window_error_curve  # noqa: E402
from skattr.schema import prepare_users, schema_from_text  # noqa: E402
from skattr.synthgen import GenConfig, generate_dataset  # noqa: E402

SCHEMAS = [
    "kind=PV;layout=VVVVVV;horizon=30",
    "kind=RR;layout=TTTVVV;horizon=7",
    "kind=RI;layout=TTTCCC;horizon=7",
    "kind=RR;layout=TVVVVV;horizon=1",
    "kind=RI;layout=TCCCCC;horizon=1",
    "kind=EV;layout=CCCCCC",
    "kind=UD",
]
WINDOWS = [(7, 14), (14, 30), (30, 60), (60, 90)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--users", type=int, default=20_000)
    parser.add_argument("--weeks", type=int, default=12)
    parser.add_argument("--out", default="out/sweep")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    schemas = [schema_from_text(s) for s in SCHEMAS]

    error_rows = []
    curve_rows = []
    ordered = 0
    curves = []
    for seed in range(1, args.seeds + 1):
        cfg = GenConfig(n_users=args.users, n_weeks=args.weeks,
                        event_horizon_days=90, seed=seed)
        users, _ = generate_dataset(cfg)
        prepared = prepare_users(users)
        report = benchmark_matrix(users, schemas, [0], ["plain"], 30,
                                  seed=seed, prepared=prepared)
        e = {c.schema: c.aggregate_error / 100 for c in report.cells
             if c.level == "campaign"}
        for schema, err in e.items():
            error_rows.append((seed, schema, f"{err:.2f}"))
        ok = (
            e["D30 PV"] <= min(e["D7 RR"], e["D7 RI"])
            and max(e["D7 RR"], e["D7 RI"]) <= min(e["D1 RR"], e["D1 RI"])
            and max(e["D1 RR"], e["D1 RI"]) <= e["EV"] <= e["UD"]
        )
        ordered += ok
        curve = window_error_curve(users, schemas[1], 0, "plain", WINDOWS, seed=seed,
                                   prepared=prepared)
        curves.append([w.error / 100 for w in curve])
        for w in curve:
            curve_rows.append((seed, f"{w.lo_day}-{w.hi_day}", f"{w.error / 100:.2f}"))
        print(f"seed {seed}: ordering {'holds' if ok else 'violated'}; "
              + " ".join(f"{k}={v:.0f}" for k, v in e.items()))

    with open(out / "schema_errors.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("seed", "schema", "aggregate_error_usd"))
        writer.writerows(error_rows)
    with open(out / "window_errors.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("seed", "window", "error_usd"))
        writer.writerows(curve_rows)

    means = [sum(c[i] for c in curves) / len(curves) for i in range(len(WINDOWS))]
    print(f"\nordering held in {ordered}/{args.seeds} seeds")
    print("mean window curve:", " ".join(f"{m:.0f}" for m in means),
          "(non-decreasing)" if all(a <= b for a, b in zip(means, means[1:]))
          else "(NOT monotone)")
    print(f"per-seed values in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
