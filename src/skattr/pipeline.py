"""Shared orchestration: final values -> postbacks -> matrices -> attribution inputs.

Both the stage-wise CLI commands and the benchmark grid go through these
helpers, so splitting a run into stages and running it end to end produce
identical numbers for the same seed. Every step takes the cohort
(``schema.prepare_users``, a ``model.Cohort``), which fixes the users, the
organic key and the matrix columns, and works in integers: a postback is
delivered at registration midnight + last commit + delay microseconds,
dropped when that is after the horizon, and counted in the (group, ISO
week) cell of its delivery. A cell id is arithmetic on the delivery
instant: whole weeks since the Monday on or before the cohort's first
registration, times the group count, plus the group index. Postback delay
randomness is one Uniform[0, 1) draw per user from the substream (seed,
"postback", user_id); it does not depend on the schema, so it is drawn
once per (seed, user) and kept on the cohort as microseconds.
``simulate_postbacks`` returns a ``PostbackTable``, and the developer
totals, count matrices, bucket means and ground truth aggregate its lists
by cell id and origin column. UD schemas without an explicit seed get the
derived substream seed (seed, "ud").
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from datetime import date, datetime

from .errors import ConfigError
from .model import MICROSECOND, US_PER_DAY, US_PER_WEEK, Cohort
from .postback import (
    CellKey,
    CountMatrix,
    PostbackTable,
    build_counts,
    cell_of,
    empty_matrix,
    estimate_organic,
    postback_delay_us,
)
from .rng import hash64, substream
from .schema import VALUE_RANGE, SchemaSpec, fit_buckets, simulate_traces


def resolve_schema(schema: SchemaSpec, cohort: Cohort, seed: int) -> SchemaSpec:
    """Fit bucket boundaries and inject the derived UD seed where needed.

    Boundaries are fitted on the cohort's ``[0, horizon)`` revenue memo.
    """
    if schema.kind == "UD" and schema.seed is None:
        schema = replace(schema, seed=hash64(seed, "ud") & 0x7FFFFFFF)
    if schema.needs_boundaries() and schema.bucket_boundaries is None:
        schema = fit_buckets(cohort.window_revenue(0, schema.horizon_days), schema)
    return schema


def horizon_us(horizon: datetime) -> int:
    """A naive horizon instant in microseconds on the cohort's clock.

    The clock counts from midnight of date ordinal 0, so registration
    midnight is ``date.toordinal() * US_PER_DAY``.
    """
    if horizon.utcoffset() is not None:
        raise ConfigError(
            f"horizon {horizon.isoformat()!r} has a UTC offset; skattr times are naive"
        )
    return (horizon - datetime.min) // MICROSECOND + US_PER_DAY


def simulate_postbacks(
    cohort: Cohort, schema: SchemaSpec, seed: int, horizon: datetime | None = None
) -> PostbackTable:
    """One postback per user (organic users included: the developer's view).

    ``simulate_traces`` gives each user's final value and last commit as
    microseconds since registration midnight; the postback is delivered
    ``postback_delay_us`` later. Users whose postback would land after
    ``horizon`` get cell -1: they count neither in matrices nor in ground
    truth. The delay per (seed, user) is memoised on the cohort; the table's
    ``cell_keys`` name each cell id it uses, one ``cell_of`` call per id.
    """
    finals = simulate_traces(cohort, schema)
    delays = cohort.delays.get(seed)
    if delays is None:
        delays = cohort.delays[seed] = [
            postback_delay_us(substream(seed, "postback", uid).random()) for uid in cohort.ids
        ]
    limit = horizon_us(horizon) if horizon is not None else None
    labels = cohort.group_labels
    n_groups = len(labels)
    first_day = min(cohort.midnight_us, default=0) // US_PER_DAY
    week0_day = first_day - (first_day - 1) % 7  # date ordinal 1 is a Monday
    week0 = week0_day * US_PER_DAY
    values: list[int] = []
    cells: list[int] = []
    sent_us: list[int] = []
    for (value, last_us), midnight, delay, group in zip(
        finals.values(), cohort.midnight_us, delays, cohort.group
    ):
        sent = midnight + last_us + delay
        values.append(value)
        sent_us.append(sent)
        if limit is not None and sent > limit:
            cells.append(-1)
            continue
        cells.append((sent - week0) // US_PER_WEEK * n_groups + group)
    keys: dict[int, CellKey] = {}
    for cell in sorted(set(cells) - {-1}):
        week, group = divmod(cell, n_groups)
        keys[cell] = cell_of(labels[group], date.fromordinal(week0_day + 7 * week))
    return PostbackTable(cohort, values, cells, sent_us, keys)


def developer_totals(postbacks: PostbackTable) -> dict[CellKey, dict[int, int]]:
    """Per-(group, week) user counts per conversion value, all origins.

    Every cell carries entries for all 64 values (zeros included) so the
    null-aware estimator can distinguish "no users" from "missing data".
    """
    rows: dict[int, list[int]] = {}
    for cell, value in zip(postbacks.cells, postbacks.values):
        if cell < 0:
            continue
        row = rows.get(cell)
        if row is None:
            row = rows[cell] = [0] * VALUE_RANGE
        row[value] += 1
    keys = postbacks.cell_keys
    return {keys[cell]: dict(enumerate(row)) for cell, row in rows.items()}


def build_cell_matrices(
    postbacks: PostbackTable, totals: Mapping[CellKey, Mapping[int, int]]
) -> dict[CellKey, CountMatrix]:
    """Pre-privacy matrices over the cohort's columns, one per (group, week).

    ``totals`` are ``developer_totals(postbacks)``.
    """
    cohort = postbacks.cohort
    paid = build_counts(postbacks)
    out: dict[CellKey, CountMatrix] = {}
    for cell in sorted(totals):
        matrix = paid.get(cell)
        if matrix is None:
            matrix = empty_matrix(cell[0], cell[1], cohort.campaigns)
        out[cell] = estimate_organic(matrix, totals[cell], cohort.organic)
    return out


@dataclass(frozen=True)
class SimArtifacts:
    """Everything downstream stages need from one schema simulation.

    The matrix columns are ``postbacks.cohort.origins``.
    """

    schema: SchemaSpec
    postbacks: PostbackTable
    matrices: dict[CellKey, CountMatrix]
    cell_totals: dict[CellKey, dict[int, int]]


def run_schema(
    cohort: Cohort, schema: SchemaSpec, seed: int, horizon: datetime | None = None
) -> SimArtifacts:
    """Fit, simulate and aggregate one schema over the cohort."""
    fitted = resolve_schema(schema, cohort, seed)
    postbacks = simulate_postbacks(cohort, fitted, seed, horizon)
    totals = developer_totals(postbacks)
    return SimArtifacts(
        schema=fitted,
        postbacks=postbacks,
        matrices=build_cell_matrices(postbacks, totals),
        cell_totals=totals,
    )
