"""Attribution error metrics, the benchmark grid, and the window curve.

The weekly error is the Euclidean distance between attributed and actual
revenue vectors over campaigns, organic included (square root of the
summed squared gaps), so it carries money units. Weeks aggregate by a
revenue-weighted average and grids normalize against the omniscient-schema
baseline per privacy level: 100 * (1 - err / baseline_err), positive is
better than baseline.

Three functions are the only implementation of scoring, shared by the grid,
the window curve and the CLI's ``attribute`` and ``evaluate`` stages:
``attribute_cells`` (each cell's exact ``CellAttribution``, affine in
lambda), ``model.ground_truth`` (actual window revenue per postback week
and origin column) and ``score_cells`` (weekly and aggregate error per
level, the one caller of ``score_level``). The threshold, not the mode,
picks the kernel: below p=2 it folds no user, so every mode is the plain
estimator over the simulated matrices; from p=2 up ``attribute_with_null``
reads their thresholded copies and ``check_estimator`` refuses ``plain``.
The grid builds once per (schema, p) and scores once per (schema, p,
lambda), lambda read as 0 below p=2.

The scoring policy is fixed, not configured (``SCORING_POLICY``): the
paper's optimal estimator, count x bucket mean of one revenue profile per
schema and window pooled over groups, scored over every column in ISO
weeks that start Monday.

Scoring works on integer cents per column index, aligned with the cohort's
origins (an attribution file declares them): ``ground_truth`` returns such
lists per week, once per schema and window, and ``score_level`` maps each
column to its label index at the campaign or network level.
``CampaignKey`` maps are left to the file readers and writers. Bucket
means (``{value: Fraction}``, fitted per window and shared by every cell)
and truth aggregate a schema's ``PostbackTable`` by cell id and origin
column over the cohort's window-revenue memo, so each payer's revenue in a
window is computed once however many schemas and estimators use it, and
only the payers add cents (every other user's revenue is 0); each
cell's developer totals come from ``SimArtifacts.cell_totals`` and reach
the null-aware estimator as their own argument.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from typing import NamedTuple

from .attribution import (
    AttributionFunction,
    CellAttribution,
    attribute_plain,
    attribute_with_null,
    estimate_bucket_means_window,
)
from .errors import (
    AlignmentError,
    ConfigError,
    DegenerateBaselineError,
    GridCellError,
    SkattrError,
    UndefinedWeightsError,
)
# revenue_between is not called here but stays bound: perfbench's tracer test
# checks that the tracer patches this module's binding of it.
from .model import CampaignKey, Cohort, UserRecord, ground_truth, revenue_between  # noqa: F401
from .pipeline import CellKey, SimArtifacts, run_schema
from .postback import CountMatrix
from .privacy import PrivacyConfig, apply_threshold
from .schema import SchemaSpec, prepare_users

LEVELS = ("campaign", "network")

# Report metadata and run-config hashes record the fixed policy under these keys.
SCORING_POLICY = {
    "include_organic_in_error": True,
    "profile_per_group": False,
    "week_start": "monday",
}


def weekly_error(attributed: Mapping, truth: Mapping) -> float:
    """Euclidean attribution error for one week, in money units."""
    if set(attributed) != set(truth):
        raise AlignmentError("attributed and truth vectors cover different keys")
    acc = 0.0
    for k, a in attributed.items():
        d = a - truth[k]
        if d:
            acc += float(d) * float(d)
    return math.sqrt(acc)


def aggregate_error(weekly: Iterable[tuple[float, float]]) -> float:
    """Revenue-weighted average of (error, week_revenue) pairs."""
    num = 0.0
    den = 0.0
    for err, weight in weekly:
        if weight < 0:
            raise UndefinedWeightsError(f"negative week weight {weight}")
        num += err * weight
        den += weight
    if den == 0:
        raise UndefinedWeightsError("all week weights are zero")
    return num / den


def normalize_vs_baseline(err: float, baseline_err: float) -> float:
    """Percent score vs baseline: 0 at parity, negative when worse."""
    if baseline_err <= 0:
        raise DegenerateBaselineError(f"baseline error must be > 0, got {baseline_err}")
    return 100.0 * (1.0 - err / baseline_err)


class CellResult(NamedTuple):
    """One benchmark grid cell at one aggregation level."""

    schema: str
    p: int
    mode: str
    lam: float | None
    level: str
    weekly_errors: tuple[tuple[str, float], ...]
    aggregate_error: float  # cents
    normalized_score: float | None


class WindowPoint(NamedTuple):
    lo_day: int
    hi_day: int
    error: float  # cents


class AttributionReport:
    """Full benchmark output: grid cells, optional window curve, metadata.

    ``cmd_benchmark`` adds the window curve and the config hash after the
    grid is built.
    """

    __slots__ = ("cells", "metadata", "window_curve")

    def __init__(
        self,
        cells: list[CellResult],
        metadata: dict,
        window_curve: list[WindowPoint] | None = None,
    ) -> None:
        self.cells = cells
        self.metadata = metadata
        self.window_curve = window_curve


def _network_label(key: CampaignKey) -> str:
    return "organic" if key.organic else f"n{key.network}"


def cohort_of(users: Sequence[UserRecord], prepared: Cohort | None) -> Cohort:
    """``prepared`` when it digests exactly ``users``; a fresh digest when it is None.

    Only a cohort ``schema.prepare_users`` built from these records is
    taken: one ``io_files.load_cohort`` read has no records to compare.
    """
    if prepared is None:
        return prepare_users(users)
    if prepared.users != tuple(users):
        raise ConfigError("the prepared digest is of a different user list")
    return prepared


def _simulation(cohort: Cohort, schema: SchemaSpec, seed: int) -> SimArtifacts:
    """``run_schema`` memoised on the cohort by (input schema, seed)."""
    key = (schema, seed)
    artifacts = cohort.simulations.get(key)
    if artifacts is None:
        artifacts = cohort.simulations[key] = run_schema(cohort, schema, seed)
    return artifacts


def _level_index(columns: Sequence[CampaignKey], level: str) -> list[int]:
    """For each column, the index of its label at ``level``.

    A network's label index is the order in which its first column comes.
    """
    if level == "campaign":
        return list(range(len(columns)))
    labels: dict[str, int] = {}
    return [labels.setdefault(_network_label(k), len(labels)) for k in columns]


def score_level(
    attributed: Mapping[str, Sequence[int]],
    truth: Mapping[str, Sequence[int]],
    columns: Sequence[CampaignKey],
    level: str,
) -> tuple[tuple[tuple[str, float], ...], float]:
    """Weekly errors and their revenue-weighted aggregate at one level.

    Both sides map week -> cents per column, aligned with ``columns``, and
    every column is scored, organic included. Every week either side has
    is scored; a side without that week counts as zero revenue there.
    ``level`` is "campaign", or "network" to sum campaigns per network
    first. Each week's ``weekly_error`` sees both
    vectors keyed by label index.
    """
    label_of = _level_index(columns, level)
    width = max(label_of, default=-1) + 1
    zero = [0] * len(columns)
    weekly: list[tuple[str, float]] = []
    weights: list[float] = []
    for week in sorted(attributed.keys() | truth.keys()):
        att = attributed.get(week, zero)
        tru = truth.get(week, zero)
        a = dict.fromkeys(range(width), 0)
        y = dict.fromkeys(range(width), 0)
        for j, i in enumerate(label_of):
            a[i] += att[j]
            y[i] += tru[j]
        weekly.append((week, weekly_error(a, y)))
        weights.append(float(sum(y.values())))
    agg = aggregate_error(zip((e for _, e in weekly), weights))
    return tuple(weekly), agg


def check_estimator(fn: AttributionFunction, p: int) -> None:
    """Refuse ``plain``, which redistributes no null row, from p=2 up."""
    if fn.mode == "plain" and p >= 2:
        raise ConfigError("plain attribution requires p < 2; pick a null-aware mode")


def attribute_cells(
    matrices: Mapping[CellKey, CountMatrix],
    means: Mapping[int, Fraction],
    totals: Mapping[CellKey, Mapping[int, int]],
) -> dict[CellKey, CellAttribution]:
    """Every cell's exact attribution, affine in lambda, in cell order.

    The one place that picks an estimator kernel, by the matrix's p: below
    p=2, which folds no user, ``attribute_plain``, from p=2 up
    ``attribute_with_null``; callers refuse ``plain`` there first
    (``check_estimator``). ``CellAttribution.cents(lam)`` gives the cents
    per campaign that the attribution files hold, so a grid cell scores
    exactly what a stage-wise run writes. ``means`` are the bucket means
    every cell shares; ``totals`` maps each cell to the developer's
    per-value user counts in it.
    """
    out: dict[CellKey, CellAttribution] = {}
    for cell in sorted(matrices):
        matrix = matrices[cell]
        if cell not in totals:
            raise ConfigError(f"counts cell {cell} is absent from the dataset's postbacks")
        if matrix.p < 2:
            out[cell] = attribute_plain(matrix, means)
        else:
            out[cell] = attribute_with_null(matrix, means, totals[cell])
    return out


def _expand_modes(
    g_modes: Sequence[str], lambda_grid: Sequence[float], p: int
) -> list[tuple[str, float | None]]:
    """The grid's (mode, lambda) estimator coordinates at threshold ``p``.

    An endpoint mode has the lambda its ``AttributionFunction`` fixes and
    ``plain``, which runs only below p=2, has None. A ``null_convex`` lambda
    is checked when its cell builds the estimator, so a bad one fails with
    the cell's coordinates.
    """
    out: list[tuple[str, float | None]] = []
    for mode in g_modes:
        if mode == "null_convex":
            out.extend((mode, lam) for lam in lambda_grid)
        elif mode != "plain":
            out.append((mode, AttributionFunction(mode).lam))
        elif p < 2:
            out.append((mode, None))
    return out


def _estimator_matrices(artifacts: SimArtifacts, p: int) -> Mapping[CellKey, CountMatrix]:
    """The simulated matrices below p=2, which folds no user; from p=2 up, thresholded copies."""
    if p < 2:
        return artifacts.matrices
    cfg = PrivacyConfig(p)
    return {cell: apply_threshold(m, cfg) for cell, m in artifacts.matrices.items()}


def score_cells(
    cents: Mapping[CellKey, Sequence[int]],
    truth: Mapping[str, Sequence[int]],
    columns: Sequence[CampaignKey],
    levels: Sequence[str] = LEVELS,
) -> dict[str, tuple[tuple[tuple[str, float], ...], float]]:
    """Weekly and aggregate errors per level of cents per (group, week) cell and column.

    The cells are summed per week over groups, and each level is scored by
    ``score_level`` against ``truth``, ``ground_truth`` over the same columns.
    """
    by_week: dict[str, list[int]] = {}
    for (_, week), row in cents.items():
        acc = by_week.get(week)
        if acc is None:
            acc = by_week[week] = [0] * len(columns)
        for j, c in enumerate(row):
            acc[j] += c
    return {level: score_level(by_week, truth, columns, level) for level in levels}


def benchmark_matrix(
    users: Sequence[UserRecord],
    schemas: Sequence[SchemaSpec],
    p_values: Sequence[int],
    g_modes: Sequence[str],
    t: int,
    *,
    seed: int,
    lambda_grid: Sequence[float] = (0.0, 0.5, 1.0),
    prepared: Cohort | None = None,
) -> AttributionReport:
    """Run the full schema x threshold x estimator grid.

    Scores are normalized per privacy level against the omniscient
    full-horizon-revenue schema (PV) with the uniform estimator, which
    scores 0 by construction; the campaign and network aggregation levels
    are normalized against their own baselines. Any cell failure aborts the
    run with a GridCellError that carries the failing coordinates. Each
    schema's simulation, revenue profile and window truth are built once
    and shared by all of its cells. ``prepared`` is
    ``schema.prepare_users(users)`` when the caller shares one cohort across
    calls; the simulations stay memoised on it.
    """
    if not schemas or not p_values or not g_modes:
        raise ConfigError("benchmark needs at least one schema, p value, and g mode")
    check_window_days(t)
    for schema in schemas:
        _check_schema(schema)
    for p in p_values:
        PrivacyConfig(p)  # a negative threshold fails before anything is simulated
    check_grid_axes(schemas, p_values, g_modes, lambda_grid)

    cohort = cohort_of(users, prepared)
    artifacts: dict[str, SimArtifacts] = {}
    means: dict[str, dict[int, Fraction]] = {}
    truths: dict[str, dict[str, list[int]]] = {}
    for schema in schemas:
        label = schema.label
        try:
            art = _simulation(cohort, schema, seed)
        except SkattrError as exc:
            raise GridCellError(
                f"schema {label}: {type(exc).__name__}: {exc}", schema=label
            ) from exc
        artifacts[label] = art
        means[label] = estimate_bucket_means_window(art.postbacks, 0, t)
        truths[label] = ground_truth(art.postbacks, 0, t)
    labels = list(artifacts)

    baseline_label = next((lab for lab in labels if artifacts[lab].schema.kind == "PV"), None)

    # One build per (schema, p) serves every mode; one score per (schema, p,
    # lambda) every mode with that lambda, read as 0 below p=2, where b = 0.
    built: dict[tuple[str, int], dict[CellKey, CellAttribution]] = {}
    scored: dict[tuple[str, int, float], dict] = {}

    def cell_errors(label: str, p: int, mode: str, lam: float | None):
        try:
            fn = AttributionFunction(mode, lam)
            key = (label, p, fn.lam if p >= 2 else 0.0)
            if key not in scored:
                art = artifacts[label]
                if (label, p) not in built:
                    built[(label, p)] = attribute_cells(
                        _estimator_matrices(art, p), means[label], art.cell_totals
                    )
                cents = {cell: res.cents(fn.lam) for cell, res in built[(label, p)].items()}
                scored[key] = score_cells(cents, truths[label], art.postbacks.cohort.origins)
        except SkattrError as exc:
            raise GridCellError(
                f"grid cell (schema={label}, p={p}, g={mode}, lambda={lam}): "
                f"{type(exc).__name__}: {exc}",
                schema=label,
                p=p,
                g=mode,
                lam=lam,
            ) from exc
        return scored[key]

    baselines: dict[tuple[int, str], float] = {}
    if baseline_label is not None:
        for p in p_values:
            by_level = cell_errors(baseline_label, p, "null_uniform", None)
            for level in LEVELS:
                baselines[(p, level)] = by_level[level][1]

    cells: list[CellResult] = []
    for label in labels:
        for p in sorted(p_values):
            for mode, lam in _expand_modes(g_modes, lambda_grid, p):
                by_level = cell_errors(label, p, mode, lam)
                for level in LEVELS:
                    weekly, agg = by_level[level]
                    # A zero baseline error (possible on tiny datasets where
                    # the omniscient schema isolates every spender) leaves
                    # normalization undefined; report raw errors only.
                    base = baselines.get((p, level))
                    score = normalize_vs_baseline(agg, base) if base else None
                    cells.append(
                        CellResult(
                            schema=label,
                            p=p,
                            mode=mode,
                            lam=None if lam is None else float(lam),
                            level=level,
                            weekly_errors=weekly,
                            aggregate_error=agg,
                            normalized_score=score,
                        )
                    )

    metadata = {
        "seed": seed,
        "t": t,
        "beta": len(cohort.origins),
        "organic_alpha": cohort.organic.alpha,
        "p_values": sorted(p_values),
        "g_modes": list(g_modes),
        "lambda_grid": [float(x) for x in lambda_grid],
        "schemas": [lab for lab in labels],
        "baseline": baseline_label,
        "hypothetical_schemas": [lab for lab in labels if artifacts[lab].schema.kind == "PV"],
        "normalization": "aggregate",
        "substreams": ["campaigns", "user", "postback", "ud"],
        **SCORING_POLICY,
    }
    return AttributionReport(cells=cells, metadata=metadata)


def check_grid_axes(
    schemas: Sequence[SchemaSpec],
    p_values: Sequence[int],
    g_modes: Sequence[str],
    lambda_grid: Sequence[float],
) -> None:
    """Reject a schema label, p value, g mode or lambda listed twice, and an axis with no cell.

    A repeated coordinate would score and write the same cells again (the
    grid keys its rows by schema label); a ``null_convex`` without a
    lambda, or a p value at which no listed mode runs, would write none for
    a coordinate the run lists.
    """
    for i, schema in enumerate(schemas):
        if schema.label in [s.label for s in schemas[:i]]:
            raise ConfigError(f"duplicate schema {schema.label} in benchmark grid")
    for what, values in (("p value", p_values), ("g mode", g_modes), ("lambda", lambda_grid)):
        for i, x in enumerate(values):
            if x in values[:i]:
                raise ConfigError(f"duplicate {what} {x!r} in benchmark grid")
    if "null_convex" in g_modes and not lambda_grid:
        raise ConfigError("g mode null_convex needs at least one lambda in the benchmark grid")
    for p in p_values:
        if not _expand_modes(g_modes, lambda_grid, p):
            raise ConfigError(f"no g mode runs at p={p}: plain runs only below p=2")


def check_window_days(t: int) -> None:
    """Reject a revenue window ``t`` that is not a whole number of days, at least one.

    The grid and the ``attribute`` and ``evaluate`` stages check it before any work.
    """
    if type(t) is not int:
        raise ConfigError(f"revenue window t must be a whole number of days, got {t!r}")
    if t < 1:
        raise ConfigError("revenue window t must be at least one day")


def _check_schema(schema: SchemaSpec) -> None:
    if not isinstance(schema, SchemaSpec):
        raise ConfigError(f"schema must be a SchemaSpec, got {schema!r}")


def validate_windows(windows: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for lo, hi in windows:
        if not all(isinstance(d, int) and not isinstance(d, bool) for d in (lo, hi)):
            raise ConfigError(f"window bounds must be whole days, got [{lo!r}, {hi!r})")
        if lo < 0 or hi <= lo:
            raise ConfigError(f"invalid window [{lo}, {hi})")
        out.append((lo, hi))
    for (a_lo, a_hi), (b_lo, b_hi) in zip(out, out[1:]):  # the curve keeps this order
        if b_lo < a_hi:
            raise ConfigError(
                f"windows must ascend without overlap: [{a_lo},{a_hi}) then [{b_lo},{b_hi})"
            )
    return out


def window_error_curve(
    users: Sequence[UserRecord],
    schema: SchemaSpec,
    p: int,
    g: AttributionFunction | str,
    windows: Sequence[tuple[int, int]],
    *,
    seed: int,
    prepared: Cohort | None = None,
) -> list[WindowPoint]:
    """Campaign-level error of attributing revenue accrued per day window.

    The schema, counts and privacy stay fixed; only the revenue target and
    its per-window bucket means move, so the curve isolates how revenue
    maturing away from the early signal degrades attribution. With the
    ``prepared`` cohort a grid ran on, the grid's simulation of the schema
    is reused; otherwise the schema is simulated here. ``plain`` is
    refused from p=2 up (``check_estimator``).
    """
    _check_schema(schema)
    wins = validate_windows(windows)
    PrivacyConfig(p)
    g = g if isinstance(g, AttributionFunction) else AttributionFunction(g)
    check_estimator(g, p)
    artifacts = _simulation(cohort_of(users, prepared), schema, seed)
    matrices = _estimator_matrices(artifacts, p)
    points: list[WindowPoint] = []
    for lo, hi in wins:
        means = estimate_bucket_means_window(artifacts.postbacks, lo, hi)
        truth = ground_truth(artifacts.postbacks, lo, hi)
        cells = attribute_cells(matrices, means, artifacts.cell_totals)
        cents = {cell: res.cents(g.lam) for cell, res in cells.items()}
        try:
            by_level = score_cells(cents, truth, artifacts.postbacks.cohort.origins, ("campaign",))
        except UndefinedWeightsError as exc:
            raise UndefinedWeightsError(f"window [{lo}, {hi}): {exc}") from exc
        points.append(WindowPoint(lo_day=lo, hi_day=hi, error=by_level["campaign"][1]))
    return points
