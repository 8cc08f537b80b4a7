"""Revenue attribution from conversion-value counts.

The plain estimator credits each campaign with count times the bucket's mean
revenue; it is the expected last-click revenue when users within a bucket
are exchangeable, and it minimizes expected squared attribution error. When
privacy suppression hides rows, the suppressed mass is redistributed by a
per-campaign weight that mixes a uniform share (1/beta over all campaign
columns, organic included) with the empirical distribution of the null row;
the mixing weight lambda spans the uniform (0) and null-based (1) endpoints,
and the optimal redistribution always lies on that segment.

The estimators read two developer-side inputs with different scopes. The
bucket means, ``{value: Fraction}`` from ``estimate_bucket_means``, are
fitted once over a whole window (pooled or per group) and shared by every
cell. The totals, the number of users with each value, belong to one
(group, week) cell and are an explicit argument of ``attribute_with_null``:
a suppressed row redistributes exactly the users that cell contains.

An ``AttributionFunction`` names one estimator, ``plain`` included, and
holds the lambda it uses; ``metrics.attribute_cells`` is the one place that
dispatches on it to ``attribute_plain`` or ``attribute_with_null``.

Computation is exact and integer-only. Per matrix, the bucket means in use
are scaled to one common denominator (the lcm of their denominators), each
campaign column accumulates one integer numerator, the null weights are
integer numerators over one shared denominator, and one Fraction is built
per column at the end; rounding happens only when reports are emitted. The
conservation identity sum_over_campaigns(attributed) ==
sum_over_values(mean * total) holds exactly, over the cell's totals, for
any lambda and any threshold.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

from .errors import ConfigError, MissingProfileError
# revenue_between is not called here but stays bound: perfbench's tracer test
# checks that the tracer patches this module's binding of it.
from .model import CampaignKey, revenue_between  # noqa: F401
from .postback import CountMatrix, PostbackTable
from .schema import VALUE_RANGE

ATTRIBUTION_MODES = ("plain", "null_uniform", "null_empirical", "null_convex")


def estimate_bucket_means_window(
    postbacks: PostbackTable, lo_day: int, hi_day: int, group: str | None = None
) -> dict[int, Fraction]:
    """Exact mean window revenue (cents) per final value of delivered postbacks.

    Every value with a delivered postback has an entry. ``group`` restricts
    the means to users of that group label.
    """
    cohort = postbacks.cohort
    labels = cohort.group_labels
    want = labels.index(group) if group in labels else -1  # -1 matches no user
    sums = [0] * VALUE_RANGE
    counts = [0] * VALUE_RANGE
    for cell, value, cents, g in zip(
        postbacks.cells, postbacks.values, cohort.window_revenue(lo_day, hi_day), cohort.group
    ):
        if cell >= 0 and (group is None or g == want):
            sums[value] += cents
            counts[value] += 1
    return {v: Fraction(sums[v], counts[v]) for v in range(VALUE_RANGE) if counts[v]}


def estimate_bucket_means(postbacks: PostbackTable, t: int) -> dict[int, Fraction]:
    """Bucket means over the first ``t`` days (the developer-side table)."""
    return estimate_bucket_means_window(postbacks, 0, t)


# The lambda each endpoint mode fixes; ``plain`` redistributes nothing.
_FIXED_LAMBDA = {"plain": 0.0, "null_uniform": 0.0, "null_empirical": 1.0}


@dataclass(frozen=True)
class AttributionFunction:
    """One estimator: its mode and the lambda it redistributes with.

    ``lam`` is resolved here, once: ``null_uniform`` fixes it at 0 and
    ``null_empirical`` at 1, ``plain`` has 0 because it redistributes
    nothing, and ``null_convex`` takes it from the caller, 0 when none is
    given. An explicit lambda that is not a real number (a ``bool`` is
    not), contradicts the mode, or lies outside [0, 1], is a
    ``ConfigError``. The uniform share is over the matrix's
    columns, organic included.
    """

    mode: str
    lam: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ATTRIBUTION_MODES:
            raise ConfigError(f"unknown attribution mode {self.mode!r}")
        fixed = _FIXED_LAMBDA.get(self.mode)
        lam = self.lam
        if lam is None:
            lam = 0.0 if fixed is None else fixed
        elif not isinstance(lam, Real) or isinstance(lam, bool):
            raise ConfigError(f"lambda must be a real number, got {lam!r}")
        elif fixed is not None and lam != fixed:
            raise ConfigError(f"{self.mode} fixes lambda at {fixed:g}, got {lam}")
        elif not 0.0 <= lam <= 1.0:
            raise ConfigError(f"lambda must be in [0, 1], got {lam}")
        object.__setattr__(self, "lam", float(lam))


def _scaled_means(
    means: Mapping[int, Fraction], values: Iterable[int], context: str
) -> tuple[dict[int, int], int]:
    """The means of ``values`` as integer numerators over their common denominator."""
    used: dict[int, Fraction] = {}
    for v in values:
        mean = means.get(v)
        if mean is None:
            raise MissingProfileError(f"no revenue profile for value {v} ({context})")
        used[v] = mean
    den = math.lcm(*(m.denominator for m in used.values()))
    return {v: m.numerator * (den // m.denominator) for v, m in used.items()}, den


def _visible_numerators(matrix: CountMatrix, scaled: Mapping[int, int]) -> list[int]:
    """Per column, the sum of count * scaled mean over the visible rows."""
    acc = [0] * len(matrix.columns)
    for v, mean in scaled.items():
        if v in matrix.suppressed:
            continue
        for j, count in enumerate(matrix.rows[v]):
            if count:
                acc[j] += count * mean
    return acc


def attribute_plain(
    matrix: CountMatrix, means: Mapping[int, Fraction]
) -> dict[CampaignKey, Fraction]:
    """Optimal attribution without suppression: count times bucket mean.

    Accepts a privatized matrix only when its null row carries no users
    (thresholds below 2 fold nothing), since a loaded null row would need
    the null-aware estimator. Suppressed rows of such a matrix are provably
    empty and are skipped.
    """
    if matrix.privacy_applied and sum(matrix.null_row) > 0:
        raise ConfigError("matrix has a loaded null row; use attribute_with_null")
    visible = [
        v for v in range(VALUE_RANGE) if v not in matrix.suppressed and any(matrix.rows[v])
    ]
    scaled, den = _scaled_means(means, visible, f"{matrix.group}, {matrix.week}")
    acc = _visible_numerators(matrix, scaled)
    return {k: Fraction(a, den) for k, a in zip(matrix.columns, acc)}


def attribute_with_null(
    matrix: CountMatrix,
    means: Mapping[int, Fraction],
    totals: Mapping[int, int],
    fn: AttributionFunction,
) -> dict[CampaignKey, Fraction]:
    """Null-aware attribution over a privatized matrix, for any mode but ``plain``.

    Visible cells contribute count times mean. Each suppressed value row
    contributes mean * weight_j * total users with that value, where the
    per-column weight is (1 - lambda)/beta + lambda * null_j / sum(null).
    An empty null row falls back to the uniform weight regardless of lambda.
    ``totals`` are the developer's per-value user counts of this matrix's
    (group, week) cell, not the counts behind ``means``; a value absent
    from the map has no users, and the map must cover at least the mass the
    null row proves was folded.
    """
    if fn.mode == "plain":
        raise ConfigError("plain attribution redistributes nothing; use attribute_plain")
    if not matrix.privacy_applied:
        raise ConfigError("matrix is not privatized; use attribute_plain")
    beta = len(matrix.columns)
    null_row = matrix.null_row
    null_sum = sum(null_row)
    # weight_j = weight_num[j] / weight_den
    if null_sum == 0:
        weight_num = [1] * beta
        weight_den = beta
    else:
        lam_num, lam_den = Fraction(fn.lam).as_integer_ratio()
        uniform = (lam_den - lam_num) * null_sum
        weight_num = [uniform + lam_num * beta * c for c in null_row]
        weight_den = lam_den * beta * null_sum

    for v in matrix.suppressed:
        if totals.get(v, 0) < 0:
            raise ConfigError(f"negative total for value {v}")
    covered = sum(totals.get(v, 0) for v in matrix.suppressed)
    if covered < null_sum:
        raise MissingProfileError(
            f"developer totals cover {covered} suppressed users but the null row "
            f"folded {null_sum} ({matrix.group}, {matrix.week})"
        )

    used = [
        v
        for v in range(VALUE_RANGE)
        if (totals.get(v, 0) if v in matrix.suppressed else any(matrix.rows[v]))
    ]
    scaled, den = _scaled_means(means, used, f"{matrix.group}, {matrix.week}")
    acc = _visible_numerators(matrix, scaled)
    folded = sum(scaled[v] * totals[v] for v in used if v in matrix.suppressed)
    return {
        k: Fraction(a * weight_den + folded * w, den * weight_den)
        for k, a, w in zip(matrix.columns, acc, weight_num)
    }
