"""Batch command-line interface over the full pipeline.

Stage commands (generate, simulate, privatize, attribute, evaluate) and the
one-shot `benchmark` share the same library calls and seed substreams:
`attribute` fits its means with `estimate_bucket_means_window(postbacks, 0,
t)` and runs `metrics.attribute_cells`, as the grid does, and saves the map
the grid scores, `{(group, week): res.cents(lam)}`, one row per cell and
declared column. `evaluate` passes that map, as `io_files.load_attribution`
reads it (a missing row is 0 cents; no `columns`, or an undeclared alpha,
fails the load), to the grid's `metrics.score_cells`. A pipeline split into
stages therefore reproduces the benchmark's numbers exactly. Both reach
their file's simulation through `_postback_table`, which refuses a file
whose declared `columns` are not the dataset's origin alphas, in order,
with a `ConfigError` naming both. `attribute` passes `--g`/`--lambda` to
`AttributionFunction`, which resolves the lambda the estimator uses (or
rejects one the mode contradicts), and records that lambda in the file.
Below the counts file's p=2 (0 unprivatized) every mode writes `plain`'s
rows; `metrics.check_estimator` refuses `plain` from p=2 up before the
dataset is read.
`evaluate` scores over the window `t` that file records: a file without
one, or a different `--t`, is a `ConfigError` before the dataset is read.
`simulate` reads the dataset with `io_files.load_cohort` and writes the
postback table it simulated beside the dataset, as a postback view
(`postback_view.save_postback_view`): per user, the final value, delivery
instant, cell week and purchases, keyed by the users file's name, schema
text, seed, horizon and organic alpha, with the sha256 of both dataset
files. The organic alpha is the users file's own sentinel, from its meta
line, also when no user is organic; no option overrides it, and the view's
key checks that the counts file agrees. `attribute` and `evaluate` read
that view and neither the events file nor the replay. When the view is
missing, or its key or hashes do not match the files, they read the
dataset and run `simulate`'s `run_schema` call again, which gives the same
table. A view that cannot be written (a read-only dataset directory, say)
does not fail `simulate`; the later stages then simulate again.
`--horizon` (and the horizon a counts file records) is naive ISO text: a
UTC offset is refused before any file is read, and the pipeline gets it
once converted, as microseconds on the model's clock.
`simulate` that counts no postback (every one after `--horizon`, or no
users) is a `ConfigError` and writes nothing. `benchmark` on dataset paths
resolves them as the stages do and reads `UserRecord`s with `load_users`
before it makes the output directory, so a missing file leaves none. Its
organic sentinel is the users' meta's, as for the stages, and its window
curve runs `RunConfig.parsed_window_schema()` at the p and g of
`config.FIXED_SETTINGS`.
A users file that lists a user needs its events file: both dataset
loaders name a missing one in a `ConfigError`, for every command.
Any failure exits nonzero with a one-line JSON error on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime
from pathlib import Path

from .attribution import ATTRIBUTION_MODES, AttributionFunction, estimate_bucket_means_window
from .config import FIXED_SETTINGS, load_gen_config, load_run_config
from .errors import ConfigError, SkattrError
from .io_files import (
    config_hash,
    load_attribution,
    load_cohort,
    load_counts,
    load_users,
    save_attribution,
    save_counts,
    save_dataset,
    save_grid_csv,
    save_json,
    save_report,
    save_window_csv,
)
from .metrics import (
    attribute_cells,
    benchmark_matrix,
    check_estimator,
    check_window_days,
    score_cells,
    window_error_curve,
)
from .model import datetime_to_us, ground_truth, usd
from .pipeline import developer_totals, run_schema
from .postback import PostbackTable
from .postback_view import dataset_hashes, load_postback_view, save_postback_view
from .privacy import PrivacyConfig, apply_threshold
from .schema import prepare_users, schema_from_text, schema_to_text
from .synthgen import generate_dataset

EVENTS_HELP = "events CSV, an existing file (default: the events.csv beside the users CSV)"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _dataset_paths(source: str, events: str | None) -> tuple[Path, Path | None]:
    """Resolve a users path or dataset directory to (users_csv, events_csv).

    An explicit ``--events`` path must be an existing file: a mistyped one
    is a ``ConfigError`` naming it, not a dataset without events.
    """
    p = Path(source)
    if events is not None:
        epath = Path(events)
        if not epath.exists():
            raise ConfigError(f"input file {epath} does not exist")
    elif p.is_dir():
        epath = p / "events.csv"
    else:
        epath = p.with_name("events.csv")
    return (p / "users.csv" if p.is_dir() else p), epath


def _parse_horizon(text: str | None) -> int | None:
    """A naive ISO horizon as microseconds on the model's clock (``model.datetime_to_us``)."""
    if text is None:
        return None
    try:
        horizon = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ConfigError(f"bad horizon timestamp {text!r}") from exc
    if horizon.utcoffset() is not None:
        raise ConfigError(f"horizon timestamp {text!r} has a UTC offset; skattr times are naive")
    return datetime_to_us(horizon)


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
    # Hashed before the read, so a file edited during it cannot match the view.
    hashes = dataset_hashes(users_csv, events_csv)
    cohort = load_cohort(users_csv, events_csv)
    artifacts = run_schema(cohort, schema, args.seed, horizon)
    if not artifacts.matrices:
        # A counts file without cells has no column list, so no later stage could read it.
        after = f" before the horizon {args.horizon}" if args.horizon is not None else ""
        raise ConfigError(f"no postback was counted{after}; no counts file is written")
    meta = {
        "kind": "counts",
        "schema": schema_to_text(artifacts.schema),
        "seed": args.seed,
        "horizon": args.horizon,
    }
    meta["config_hash"] = config_hash(meta)
    save_counts(args.out, artifacts.matrices, meta)
    try:
        save_postback_view(users_csv, meta, hashes, artifacts.postbacks)
    except OSError:
        pass  # e.g. a read-only dataset directory: later stages simulate again
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


def _postback_table(meta: dict, source: str, events: str | None) -> PostbackTable:
    """The postback table of the dataset ``source`` that a counts or attribution ``meta`` came from.

    It is the view ``simulate`` wrote beside the dataset when that view's
    key and dataset hashes match; otherwise the dataset is read and given
    ``simulate``'s own ``run_schema`` call, which gives the same table. A
    file whose ``columns`` are not the dataset's origin alphas, in order,
    is a ``ConfigError`` naming both lists.
    """
    users_csv, events_csv = _dataset_paths(source, events)
    if "schema" not in meta or "seed" not in meta:
        raise ConfigError("file meta lacks schema/seed; cannot rebuild the postback view")
    horizon = _parse_horizon(meta.get("horizon"))
    postbacks = load_postback_view(users_csv, events_csv, meta)
    if postbacks is None:
        cohort = load_cohort(users_csv, events_csv)
        schema = schema_from_text(meta["schema"])
        postbacks = run_schema(cohort, schema, meta["seed"], horizon).postbacks
    origins = [k.alpha for k in postbacks.cohort.origins]
    if meta["columns"] != origins:
        what = "the counts file" if meta.get("kind") == "counts" else "the attribution"
        raise ConfigError(
            f"declared columns {meta['columns']} differ from the dataset's origin columns "
            f"{origins}; was {what} produced from this dataset?"
        )
    return postbacks


def cmd_attribute(args: argparse.Namespace) -> int:
    check_window_days(args.t)
    fn = AttributionFunction(args.g, args.lam)
    matrices, cmeta = load_counts(args.counts)
    check_estimator(fn, cmeta.get("p", 0))  # before the dataset or the view is read
    postbacks = _postback_table(cmeta, args.profile_from, args.events)
    means = estimate_bucket_means_window(postbacks, 0, args.t)
    cells = attribute_cells(matrices, means, developer_totals(postbacks))
    cents = {cell: res.cents(fn.lam) for cell, res in cells.items()}

    meta = {
        "kind": "attribution",
        "schema": cmeta.get("schema"),
        "seed": cmeta.get("seed"),
        "horizon": cmeta.get("horizon"),
        "organic_alpha": cmeta.get("organic_alpha"),
        "columns": cmeta["columns"],
        "p": cmeta.get("p", 0),
        "g": args.g,
        "lambda": fn.lam,
        "t": args.t,
    }
    meta["config_hash"] = config_hash(meta)
    save_attribution(args.out, cents, meta)
    print(json.dumps({"attribution": str(args.out), "rows": sum(map(len, cents.values()))}))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    check_window_days(args.t)
    cents, ameta = load_attribution(args.attr)
    if "t" not in ameta:
        raise ConfigError("attribution file meta lacks the window t")
    if ameta["t"] != args.t:
        # Truth over another window than the attribution's would score the wrong target.
        raise ConfigError(f"--t {args.t} differs from the attribution file's t {ameta['t']}")

    postbacks = _postback_table(ameta, args.truth_from, args.events)
    truth = ground_truth(postbacks, 0, args.t)
    weekly, agg = score_cells(cents, truth, postbacks.cohort.origins, ("campaign",))["campaign"]
    report = {
        "metadata": dict(ameta) | {"t": args.t, "kind": "evaluation"},
        "weekly_errors_usd": {w: e / 100.0 for w, e in weekly},
        "aggregate_error_usd": agg / 100.0,
        "total_truth_usd": usd(sum(map(sum, truth.values()))),
    }
    save_json(args.out, report)
    print(json.dumps({"report": str(args.out), "aggregate_error_usd": agg / 100.0}))
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    out_dir = Path(args.out)
    run_hash = config_hash(cfg.to_jsonable())

    if cfg.gen is not None:
        users, dmeta = generate_dataset(cfg.gen._replace(seed=cfg.seed))
        dmeta["config_hash"] = run_hash
        save_dataset(out_dir / "dataset", users, dmeta)
    else:
        users_csv, events_csv = _dataset_paths(cfg.users_csv, cfg.events_csv)
        users, dmeta = load_users(users_csv, events_csv)
        out_dir.mkdir(parents=True, exist_ok=True)

    schemas = cfg.parsed_schemas()
    # One cohort for the grid and the curve, so the curve reuses the grid's
    # simulation of the window schema when it is one of the grid's schemas.
    prepared = prepare_users(users, dmeta.get("organic_alpha"))
    report = benchmark_matrix(
        users,
        schemas,
        cfg.p_values,
        cfg.g_modes,
        cfg.t,
        seed=cfg.seed,
        lambda_grid=cfg.lambda_grid,
        prepared=prepared,
    )
    report.metadata["config_hash"] = run_hash
    if cfg.windows:
        window_schema = cfg.parsed_window_schema()
        report.window_curve = window_error_curve(
            users,
            window_schema,
            FIXED_SETTINGS["window_p"],
            FIXED_SETTINGS["window_g"],
            cfg.windows,
            seed=cfg.seed,
            prepared=prepared,
        )
        save_window_csv(
            out_dir / "window_curve.csv",
            report.window_curve,
            {"seed": cfg.seed, "config_hash": run_hash, "schema": schema_to_text(window_schema)},
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
    p.add_argument("--events", default=None, help=EVENTS_HELP)
    p.add_argument("--schema", required=True, help='e.g. "kind=RR;layout=TTTVVV;horizon=7"')
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--horizon", default=None,
                   help="naive ISO timestamp; postbacks after it are dropped")
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
    p.add_argument("--events", default=None, help=EVENTS_HELP)
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
    p.add_argument("--events", default=None, help=EVENTS_HELP)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="run the full grid and window curve")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", required=True, help="output directory")
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
