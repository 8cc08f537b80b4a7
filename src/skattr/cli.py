"""Batch command-line interface over the full pipeline.

Stage commands (generate, simulate, privatize, attribute, evaluate) and the
one-shot `benchmark` share the same library calls and seed substreams:
`attribute` runs the grid's `metrics.attribute_cells`, and `evaluate` builds
truth with `model.ground_truth` and scores with `metrics.score_level`. A
pipeline split into stages therefore reproduces the benchmark's numbers
exactly. `attribute` passes `--g`/`--lambda` straight to
`AttributionFunction`, which resolves the lambda the estimator uses (or
rejects one the mode contradicts), and records that lambda in the file.
The stages that need only the cohort (`simulate`, and the rebuilds inside
`attribute` and `evaluate`) read the dataset with `io_files.load_cohort`;
`benchmark` on dataset paths reads `UserRecord`s with `load_users`.
Any failure exits nonzero with a one-line JSON error on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from datetime import datetime
from pathlib import Path

from .attribution import ATTRIBUTION_MODES, AttributionFunction, estimate_bucket_means
from .config import load_gen_config, load_run_config
from .errors import ConfigError, SkattrError
from .io_files import (
    column_keys,
    config_hash,
    load_attribution,
    load_cohort,
    load_counts,
    load_users,
    save_attribution,
    save_counts,
    save_dataset,
    save_grid_csv,
    save_report,
    save_window_csv,
)
from .metrics import (
    attribute_cells,
    benchmark_matrix,
    score_level,
    window_error_curve,
)
from .model import CampaignKey, ground_truth, usd
from .pipeline import developer_totals, resolve_schema, run_schema, simulate_postbacks
from .postback import PostbackTable
from .privacy import PrivacyConfig, apply_threshold
from .schema import prepare_users, schema_from_text, schema_to_text
from .synthgen import generate_dataset


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _dataset_paths(source: str, events: str | None) -> tuple[Path, Path | None]:
    """Resolve a users path or dataset directory to (users_csv, events_csv)."""
    p = Path(source)
    if events is not None:
        epath = Path(events)
    elif p.is_dir():
        epath = p / "events.csv"
    else:
        epath = p.with_name("events.csv")
    return (p / "users.csv" if p.is_dir() else p), epath


def _parse_horizon(text: str | None) -> datetime | None:
    if text is None:
        return None
    try:
        horizon = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ConfigError(f"bad horizon timestamp {text!r}") from exc
    if horizon.utcoffset() is not None:
        raise ConfigError(f"horizon timestamp {text!r} has a UTC offset; skattr times are naive")
    return horizon


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = load_gen_config(args.config)
    users, meta = generate_dataset(cfg)
    meta["config_hash"] = config_hash(meta | {"kind": "generate"})
    paths = save_dataset(args.out, users, meta)
    print(json.dumps({"users": str(paths["users"]), "events": str(paths["events"])}))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    schema = schema_from_text(args.schema)
    horizon = _parse_horizon(args.horizon)
    users_csv, events_csv = _dataset_paths(args.users, args.events)
    cohort = load_cohort(users_csv, events_csv, args.organic_alpha)
    artifacts = run_schema(cohort, schema, args.seed, horizon)
    meta = {
        "kind": "counts",
        "schema": schema_to_text(artifacts.schema),
        "seed": args.seed,
        "horizon": args.horizon,
    }
    meta["config_hash"] = config_hash(meta)
    save_counts(args.out, artifacts.matrices, meta)
    print(json.dumps({"counts": str(args.out), "cells": len(artifacts.matrices)}))
    return 0


def cmd_privatize(args: argparse.Namespace) -> int:
    matrices, meta = load_counts(args.counts)
    cfg = PrivacyConfig(args.p)
    out = {cell: apply_threshold(m, cfg) for cell, m in matrices.items()}
    meta = dict(meta)
    meta["p"] = args.p
    meta["privacy_applied"] = True
    meta["config_hash"] = config_hash(meta)
    save_counts(args.out, out, meta)
    print(json.dumps({"counts": str(args.out), "p": args.p}))
    return 0


def _resimulate(
    meta: dict, users_csv: Path, events_csv: Path | None, organic_alpha: int | None
) -> PostbackTable:
    """Rebuild the postback view a counts/attr file was produced from."""
    if "schema" not in meta or "seed" not in meta:
        raise ConfigError("file meta lacks schema/seed; cannot rebuild the postback view")
    horizon = _parse_horizon(meta.get("horizon"))
    cohort = load_cohort(users_csv, events_csv, organic_alpha)
    schema = resolve_schema(schema_from_text(meta["schema"]), cohort, meta["seed"])
    return simulate_postbacks(cohort, schema, meta["seed"], horizon)


def cmd_attribute(args: argparse.Namespace) -> int:
    fn = AttributionFunction(args.g, args.lam)
    matrices, cmeta = load_counts(args.counts)
    users_csv, events_csv = _dataset_paths(args.profile_from, args.events)
    postbacks = _resimulate(dict(cmeta), users_csv, events_csv, cmeta.get("organic_alpha"))
    profile = estimate_bucket_means(postbacks, args.t)
    cells = attribute_cells(matrices, {None: profile}, developer_totals(postbacks), fn)
    attributed = {
        (group, week, key): cents
        for (group, week), res in cells.items()
        for key, cents in res.items()
    }

    meta = {
        "kind": "attribution",
        "schema": cmeta.get("schema"),
        "seed": cmeta.get("seed"),
        "horizon": cmeta.get("horizon"),
        "organic_alpha": cmeta.get("organic_alpha"),
        "columns": cmeta.get("columns"),
        "p": cmeta.get("p", 0),
        "g": args.g,
        "lambda": fn.lam,
        "t": args.t,
    }
    meta["config_hash"] = config_hash(meta)
    save_attribution(args.out, attributed, meta)
    print(json.dumps({"attribution": str(args.out), "rows": len(attributed)}))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    attributed, ameta = load_attribution(args.attr)
    if ameta.get("columns") is None:
        raise ConfigError("attribution file meta lacks the column list")
    columns = column_keys(ameta)
    by_alpha = {k.alpha: k for k in columns}
    attr_weekly: dict[str, dict[CampaignKey, int]] = {}
    for (_, week, alpha), cents in attributed.items():
        key = by_alpha.get(alpha)
        if key is None:
            raise ConfigError(f"attributed alpha {alpha} is not in the declared columns")
        acc = attr_weekly.setdefault(week, {})
        acc[key] = acc.get(key, 0) + cents

    users_csv, events_csv = _dataset_paths(args.truth_from, args.events)
    postbacks = _resimulate(dict(ameta), users_csv, events_csv, ameta.get("organic_alpha"))
    truth = ground_truth(postbacks, 0, args.t)
    stray = sorted({key for week_truth in truth.values() for key in week_truth} - set(columns))
    if stray:
        raise ConfigError(
            f"true origin {stray[0].alpha} is not in the declared columns; "
            "was the attribution produced from this dataset?"
        )

    weekly, agg = score_level(attr_weekly, truth, columns, include_organic=True, level="campaign")
    report = {
        "metadata": dict(ameta) | {"t": args.t, "kind": "evaluation"},
        "weekly_errors_usd": {w: e / 100.0 for w, e in weekly},
        "aggregate_error_usd": agg / 100.0,
        "total_truth_usd": usd(sum(sum(w.values()) for w in truth.values())),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"report": str(args.out), "aggregate_error_usd": agg / 100.0}))
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_hash = config_hash(cfg.to_jsonable() | {"seed": seed})

    if cfg.gen is not None:
        users, dmeta = generate_dataset(replace(cfg.gen, seed=seed))
        dmeta["config_hash"] = run_hash
        save_dataset(out_dir / "dataset", users, dmeta)
    else:
        users, _ = load_users(cfg.users_csv, cfg.events_csv, cfg.organic_alpha)

    schemas = cfg.parsed_schemas()
    # One cohort for the grid and the curve, so the curve reuses the grid's
    # simulation of the window schema when it is one of the grid's schemas.
    prepared = prepare_users(users)
    report = benchmark_matrix(
        users,
        schemas,
        cfg.p_values,
        cfg.g_modes,
        cfg.t,
        seed=seed,
        lambda_grid=cfg.lambda_grid,
        include_organic=cfg.include_organic_in_error,
        profile_per_group=cfg.profile_per_group,
        prepared=prepared,
    )
    report.metadata["config_hash"] = run_hash
    if cfg.windows:
        window_schema = cfg.parsed_window_schema()
        report.window_curve = window_error_curve(
            users,
            window_schema,
            cfg.window_p,
            cfg.window_g,
            cfg.windows,
            seed=seed,
            include_organic=cfg.include_organic_in_error,
            profile_per_group=cfg.profile_per_group,
            prepared=prepared,
        )
        save_window_csv(
            out_dir / "window_curve.csv",
            report.window_curve,
            {"seed": seed, "config_hash": run_hash, "schema": schema_to_text(window_schema)},
        )
    save_report(out_dir / "report.json", report)
    save_grid_csv(out_dir / "grid.csv", report)
    print(json.dumps({"report": str(out_dir / "report.json"), "cells": len(report.cells)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="skattr", description="Conversion-value revenue attribution pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="simulate traces and postback counts")
    p.add_argument("--users", required=True, help="users CSV or dataset directory")
    p.add_argument("--events", default=None, help="events CSV (default: sibling events.csv)")
    p.add_argument("--schema", required=True, help='e.g. "kind=RR;layout=TTTVVV;horizon=7"')
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--horizon", default=None,
                   help="naive ISO timestamp; postbacks after it are dropped")
    p.add_argument("--organic-alpha", type=int, default=None, dest="organic_alpha")
    p.add_argument("--out", required=True, help="output counts CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("privatize", help="apply the privacy threshold to counts")
    p.add_argument("--counts", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_privatize)

    p = sub.add_parser("attribute", help="attribute revenue from counts")
    p.add_argument("--counts", required=True)
    p.add_argument("--profile-from", required=True, dest="profile_from",
                   help="users CSV or dataset directory for the revenue profile")
    p.add_argument("--events", default=None)
    p.add_argument("--t", type=int, required=True, help="revenue window in days")
    p.add_argument("--g", required=True, choices=ATTRIBUTION_MODES)
    p.add_argument("--lambda", type=float, default=None, dest="lam",
                   help="null_convex weight in [0, 1] (default 0); the other modes fix it")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("evaluate", help="score an attribution file against ground truth")
    p.add_argument("--attr", required=True)
    p.add_argument("--truth-from", required=True, dest="truth_from",
                   help="users CSV or dataset directory with true origins")
    p.add_argument("--events", default=None)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="run the full grid and window curve")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SkattrError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    except Exception as exc:  # unexpected; still machine-readable
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
