"""Attribution error metrics, the benchmark grid, and the window curve.

The weekly error is the Euclidean distance between attributed and actual
revenue vectors over campaigns (square root of the summed squared gaps), so
it carries money units. Weeks aggregate by a revenue-weighted average and
grids normalize against the omniscient-schema baseline per privacy level:
100 * (1 - err / baseline_err), positive is better than baseline.

Three functions are the only implementation of scoring, shared by the grid,
the window curve and the CLI's ``attribute`` and ``evaluate`` stages:
``attribute_cells`` (estimator output in cents per cell and campaign, and
the one place that dispatches on the ``AttributionFunction``),
``model.ground_truth`` (actual window revenue per postback week and origin) and
``score_level`` (weekly and aggregate error at one level). Bucket means
(``{value: Fraction}``, fitted per window and shared by every cell) and
truth aggregate a schema's ``PostbackTable`` by cell id and origin column
over the cohort's window-revenue memo, so each user's revenue in a window
is computed once however many schemas and estimators use it; each cell's
developer totals come from ``SimArtifacts.cell_totals`` and reach the
null-aware estimator as their own argument.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .attribution import (
    AttributionFunction,
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
from .postback import CountMatrix, PostbackTable
from .privacy import PrivacyConfig, apply_threshold
from .schema import SchemaSpec, prepare_users

LEVELS = ("campaign", "network")


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


@dataclass(frozen=True)
class CellResult:
    """One benchmark grid cell at one aggregation level."""

    schema: str
    p: int
    mode: str
    lam: float | None
    level: str
    weekly_errors: tuple[tuple[str, float], ...]
    aggregate_error: float  # cents
    normalized_score: float | None


@dataclass(frozen=True)
class WindowPoint:
    lo_day: int
    hi_day: int
    error: float  # cents


@dataclass
class AttributionReport:
    """Full benchmark output: grid cells, optional window curve, metadata."""

    cells: list[CellResult]
    metadata: dict
    window_curve: list[WindowPoint] | None = None

    def cell(self, schema: str, p: int, mode: str, lam: float | None, level: str) -> CellResult:
        for c in self.cells:
            if (c.schema, c.p, c.mode, c.lam, c.level) == (schema, p, mode, lam, level):
                return c
        raise KeyError((schema, p, mode, lam, level))


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


def score_level(
    attributed: Mapping[str, Mapping[CampaignKey, int]],
    truth: Mapping[str, Mapping[CampaignKey, int]],
    columns: Sequence[CampaignKey],
    include_organic: bool,
    level: str,
) -> tuple[tuple[tuple[str, float], ...], float]:
    """Weekly errors and their revenue-weighted aggregate at one level.

    Both sides map week -> campaign -> cents. Every week either side has is
    scored; a side without that week counts as zero revenue there.
    ``level`` is "campaign", or "network" to sum campaigns per network first.
    """
    keys = [k for k in columns if include_organic or not k.organic]
    weekly: list[tuple[str, float]] = []
    weights: list[float] = []
    for week in sorted(attributed.keys() | truth.keys()):
        att = attributed.get(week, {})
        tru = truth.get(week, {})
        a: dict = {}
        y: dict = {}
        for k in keys:
            label = k if level == "campaign" else _network_label(k)
            a[label] = a.get(label, 0) + att.get(k, 0)
            y[label] = y.get(label, 0) + tru.get(k, 0)
        weekly.append((week, weekly_error(a, y)))
        weights.append(float(sum(y.values())))
    agg = aggregate_error(zip((e for _, e in weekly), weights))
    return tuple(weekly), agg


def attribute_cells(
    matrices: Mapping[CellKey, CountMatrix],
    profiles: Mapping[str | None, Mapping[int, Fraction]],
    totals: Mapping[CellKey, Mapping[int, int]],
    fn: AttributionFunction,
) -> dict[CellKey, dict[CampaignKey, int]]:
    """Attribute every cell, in cents rounded per (group, week, campaign).

    This is the one dispatch on the estimator: ``plain`` goes to
    ``attribute_plain``, every other mode to ``attribute_with_null``.
    ``profiles`` maps a group label to its bucket means, with None as the
    pooled fallback; ``totals`` maps each cell to the developer's per-value
    user counts in it, which the null-aware modes pass through as that
    cell's totals. Cents are the grain the attribution files hold, so a
    grid cell scores exactly what a stage-wise run writes.
    """
    out: dict[CellKey, dict[CampaignKey, int]] = {}
    for cell in sorted(matrices):
        matrix = matrices[cell]
        means = profiles.get(cell[0], profiles.get(None))
        if fn.mode == "plain":
            res = attribute_plain(matrix, means)
        else:
            if cell not in totals:
                raise ConfigError(f"counts cell {cell} is absent from the dataset's postbacks")
            res = attribute_with_null(matrix, means, totals[cell], fn)
        out[cell] = {k: round(val) for k, val in res.items()}
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


def _estimator_matrices(
    artifacts: SimArtifacts,
    p: int,
    fn: AttributionFunction,
    thresholded: dict[tuple[SchemaSpec, int], dict[CellKey, CountMatrix]],
) -> Mapping[CellKey, CountMatrix]:
    """The matrices ``fn`` reads at threshold ``p``.

    ``plain`` reads the simulated matrices; every other mode reads their
    copy thresholded at ``p``, memoised in ``thresholded`` per (schema, p).
    """
    if fn.mode == "plain":
        return artifacts.matrices
    key = (artifacts.schema, p)
    out = thresholded.get(key)
    if out is None:
        cfg = PrivacyConfig(p)
        out = thresholded[key] = {
            cell: apply_threshold(m, cfg) for cell, m in artifacts.matrices.items()
        }
    return out


def _group_profiles(
    postbacks: PostbackTable, lo_day: int, hi_day: int, per_group: bool
) -> dict[str | None, dict[int, Fraction]]:
    """Pooled bucket means, optionally split per group label."""
    profiles: dict[str | None, dict[int, Fraction]] = {
        None: estimate_bucket_means_window(postbacks, lo_day, hi_day)
    }
    if per_group:
        for group in postbacks.cohort.group_labels:
            profiles[group] = estimate_bucket_means_window(postbacks, lo_day, hi_day, group)
    return profiles


def _grid_error(
    artifacts: SimArtifacts,
    matrices: Mapping[CellKey, CountMatrix],
    profiles: Mapping[str | None, Mapping[int, Fraction]],
    fn: AttributionFunction,
    truth: Mapping[str, Mapping[CampaignKey, int]],
    include_organic: bool,
) -> dict[str, tuple[tuple[tuple[str, float], ...], float]]:
    """Weekly and aggregate errors at both levels for one estimator.

    ``truth`` is ``ground_truth`` over the artifacts' postbacks and the
    window the profiles were fitted on.
    """
    by_week: dict[str, dict[CampaignKey, int]] = {}
    for (_, week), res in attribute_cells(matrices, profiles, artifacts.cell_totals, fn).items():
        acc = by_week.setdefault(week, {})
        for k, cents in res.items():
            acc[k] = acc.get(k, 0) + cents
    return {
        level: score_level(
            by_week, truth, artifacts.postbacks.cohort.origins, include_organic, level
        )
        for level in LEVELS
    }


def benchmark_matrix(
    users: Sequence[UserRecord],
    schemas: Sequence[SchemaSpec],
    p_values: Sequence[int],
    g_modes: Sequence[str],
    t: int,
    *,
    seed: int,
    lambda_grid: Sequence[float] = (0.0, 0.5, 1.0),
    include_organic: bool = True,
    profile_per_group: bool = False,
    prepared: Cohort | None = None,
) -> AttributionReport:
    """Run the full schema x threshold x estimator grid.

    Scores are normalized per privacy level against the omniscient
    full-horizon-revenue schema (PV) with the uniform estimator, which
    scores 0 by construction; the campaign and network aggregation levels
    are normalized against their own baselines. Any cell failure aborts the
    run with a GridCellError that carries the failing coordinates. Each
    schema's simulation, revenue profiles and window truth are built once
    and shared by all of its cells. ``prepared`` is
    ``schema.prepare_users(users)`` when the caller shares one cohort across
    calls; the simulations stay memoised on it.
    """
    if not schemas or not p_values or not g_modes:
        raise ConfigError("benchmark needs at least one schema, p value, and g mode")
    if type(t) is not int:
        raise ConfigError(f"revenue window t must be a whole number of days, got {t!r}")
    if t < 1:
        raise ConfigError("revenue window t must be at least one day")
    for schema in schemas:
        _check_schema(schema)
    for p in p_values:
        PrivacyConfig(p)  # a negative threshold fails before anything is simulated

    cohort = cohort_of(users, prepared)
    artifacts: dict[str, SimArtifacts] = {}
    profiles: dict[str, dict[str | None, dict[int, Fraction]]] = {}
    truths: dict[str, dict[str, dict[CampaignKey, int]]] = {}
    for schema in schemas:
        label = schema.label
        if label in artifacts:
            raise ConfigError(f"duplicate schema {label} in benchmark grid")
        try:
            art = _simulation(cohort, schema, seed)
        except SkattrError as exc:
            raise GridCellError(
                f"schema {label}: {type(exc).__name__}: {exc}", schema=label
            ) from exc
        artifacts[label] = art
        profiles[label] = _group_profiles(art.postbacks, 0, t, profile_per_group)
        truths[label] = ground_truth(art.postbacks, 0, t)
    labels = list(artifacts)

    baseline_label = next((lab for lab in labels if artifacts[lab].schema.kind == "PV"), None)

    thresholded: dict[tuple[SchemaSpec, int], dict[CellKey, CountMatrix]] = {}
    scored: dict[tuple[str, int, str, float | None], dict] = {}

    def cell_errors(label: str, p: int, mode: str, lam: float | None):
        key = (label, p, mode, lam)
        if key not in scored:
            try:
                fn = AttributionFunction(mode, lam)
                scored[key] = _grid_error(
                    artifacts[label],
                    _estimator_matrices(artifacts[label], p, fn, thresholded),
                    profiles[label],
                    fn,
                    truths[label],
                    include_organic,
                )
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
            base_mode, base_lam = _expand_modes(["plain" if p < 2 else "null_uniform"], (), p)[0]
            by_level = cell_errors(baseline_label, p, base_mode, base_lam)
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
        "include_organic_in_error": include_organic,
        "profile_per_group": profile_per_group,
        "hypothetical_schemas": [lab for lab in labels if artifacts[lab].schema.kind == "PV"],
        "normalization": "aggregate",
        "week_start": "monday",
        "substreams": ["campaigns", "user", "postback", "ud"],
    }
    return AttributionReport(cells=cells, metadata=metadata)


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
    for (a_lo, a_hi), (b_lo, b_hi) in zip(out, out[1:]):
        if b_lo < a_hi:
            raise ConfigError(f"windows overlap: [{a_lo},{a_hi}) and [{b_lo},{b_hi})")
    return out


def window_estimator(g: AttributionFunction | str, p: int) -> AttributionFunction:
    """The window curve's estimator at threshold ``p``; ``plain`` needs p < 2."""
    PrivacyConfig(p)
    fn = g if isinstance(g, AttributionFunction) else AttributionFunction(g)
    if fn.mode == "plain" and p >= 2:
        raise ConfigError("plain attribution requires p < 2; pick a null-aware mode")
    return fn


def window_error_curve(
    users: Sequence[UserRecord],
    schema: SchemaSpec,
    p: int,
    g: AttributionFunction | str,
    windows: Sequence[tuple[int, int]],
    *,
    seed: int,
    include_organic: bool = True,
    profile_per_group: bool = False,
    prepared: Cohort | None = None,
) -> list[WindowPoint]:
    """Campaign-level error of attributing revenue accrued per day window.

    The schema, counts and privacy stay fixed; only the revenue target and
    its per-window bucket means move, so the curve isolates how revenue
    maturing away from the early signal degrades attribution. With the
    ``prepared`` cohort a grid ran on, the grid's simulation of the schema
    is reused; otherwise the schema is simulated here.
    """
    _check_schema(schema)
    wins = validate_windows(windows)
    g = window_estimator(g, p)
    artifacts = _simulation(cohort_of(users, prepared), schema, seed)
    matrices = _estimator_matrices(artifacts, p, g, {})
    points: list[WindowPoint] = []
    for lo, hi in wins:
        profiles = _group_profiles(artifacts.postbacks, lo, hi, profile_per_group)
        truth = ground_truth(artifacts.postbacks, lo, hi)
        try:
            by_level = _grid_error(artifacts, matrices, profiles, g, truth, include_organic)
        except UndefinedWeightsError as exc:
            raise UndefinedWeightsError(f"window [{lo}, {hi}): {exc}") from exc
        points.append(WindowPoint(lo_day=lo, hi_day=hi, error=by_level["campaign"][1]))
    return points
