#!/usr/bin/env python3
"""Run the full attribution benchmark on a synthetic cohort.

Generates a seeded dataset, runs every stock schema through the privacy and
estimator grid, and writes report.json / grid.csv / window_curve.csv. The
console shows the campaign-level normalized scores in a Table-3-shaped
layout (rows: schemas; columns: privacy levels and estimators).

Usage:
    python scripts/run_benchmark.py --out out/benchmark --users 20000 --seed 0
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from skattr.attribution import ATTRIBUTION_MODES  # noqa: E402
from skattr.cli import main as skattr_main  # noqa: E402


def build_config(users: int, seed: int, weeks: int) -> dict:
    return {
        "gen": {
            "n_users": users,
            "n_weeks": weeks,
            "event_horizon_days": 90,
            "seed": seed,
        },
        "p_values": [0, 2, 10, 100],
        "g_modes": ["plain", "null_uniform", "null_empirical"],
        "t": 30,
        "windows": [[7, 14], [14, 30], [30, 60], [60, 90]],
        "seed": seed,
    }


def print_grid(report: dict) -> None:
    cells = [c for c in report["cells"] if c["level"] == "campaign"]
    p_values = sorted({c["p"] for c in cells})
    schemas = list(dict.fromkeys(c["schema"] for c in cells))
    columns = []
    for p in p_values:
        modes = sorted({(c["mode"], c["lambda"]) for c in cells if c["p"] == p},
                       key=lambda m: (ATTRIBUTION_MODES.index(m[0]),
                                      m[1] if m[1] is not None else -1))
        columns.extend((p, mode, lam) for mode, lam in modes)
    short = {"plain": "eq3", "null_uniform": "U", "null_empirical": "N", "null_convex": "C"}
    header = ["schema"] + [f"p{p}:{short[m]}" for p, m, _ in columns]
    widths = [max(10, len(h) + 1) for h in header]
    print("".join(h.ljust(w) for h, w in zip(header, widths)))
    for schema in schemas:
        row = [schema]
        for p, mode, lam in columns:
            match = [
                c for c in cells
                if c["schema"] == schema and c["p"] == p and c["mode"] == mode
                and (c["lambda"] == lam or (c["lambda"] is None and lam is None))
            ]
            score = match[0]["normalized_score"] if match else None
            row.append("-" if score is None else f"{score:.0f}")
        print("".join(str(v).ljust(w) for v, w in zip(row, widths)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/benchmark")
    parser.add_argument("--users", type=int, default=20_000)
    parser.add_argument("--weeks", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "run.json"
    cfg_path.write_text(json.dumps(build_config(args.users, args.seed, args.weeks), indent=2))

    code = skattr_main(["benchmark", "--config", str(cfg_path), "--out", str(out)])
    if code != 0:
        return code

    report = json.loads((out / "report.json").read_text())
    print(f"\nnormalized scores vs D30 PV + U (campaign level), seed {args.seed}:")
    print_grid(report)
    if report.get("window_curve"):
        print("\nwindow curve (USD error per revenue window):")
        for w in report["window_curve"]:
            print(f"  days {w['lo_day']:>2}-{w['hi_day']:<3} {w['error_usd']:>12.2f}")
    print(f"\nfull outputs in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
