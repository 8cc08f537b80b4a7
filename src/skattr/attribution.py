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
bucket means, ``{value: Fraction}`` from ``estimate_bucket_means_window``,
the one call by which the grid, the window curve and the ``attribute``
stage fit them, cover one window of days, pool every group and are shared
by every cell. The totals, the number of users with each value, belong to
one (group, week) cell and are an explicit argument of
``attribute_with_null``: a suppressed row redistributes exactly the users
that cell contains.

The kernels are lambda-free. ``attribute_plain`` and ``attribute_with_null``
each build one ``CellAttribution`` per cell: integer numerators ``a`` and
``b`` per column over one integer denominator ``D``, so that column j
attributes (a_j + lambda * b_j) / D cents. The plain estimator and an empty
null row have b = 0. Every lambda of one (cell, threshold) is therefore an
evaluation of one build: with lambda = ln / ld, column j is the integer
ld * a_j + ln * b_j over ld * D, rounded to cents half to even by integer
``divmod``, the rule ``round(Fraction)`` applies.

An ``AttributionFunction`` names one estimator, ``plain`` included, and
holds the lambda it uses; ``metrics.attribute_cells`` is the one place that
dispatches on it to ``attribute_plain`` or ``attribute_with_null``.

Computation is exact and integer-only. Per matrix, the bucket means in use
are scaled to one common denominator (the lcm of their denominators), each
campaign column accumulates one integer numerator, and the null weights
enter as integer numerators over the null row's sum; a Fraction is built
only when a caller asks for one. The conservation identity
sum_over_campaigns(attributed) == sum_over_values(mean * total) holds
exactly, over the cell's totals, for any lambda and any threshold: the
b_j sum to zero across the columns.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from numbers import Real
from typing import NamedTuple

from .errors import ConfigError, MissingProfileError
# revenue_between is not called here but stays bound: perfbench's tracer test
# checks that the tracer patches this module's binding of it.
from .model import CampaignKey, remake, revenue_between  # noqa: F401
from .postback import CountMatrix, PostbackTable
from .schema import VALUE_RANGE

ATTRIBUTION_MODES = ("plain", "null_uniform", "null_empirical", "null_convex")


def estimate_bucket_means_window(
    postbacks: PostbackTable, lo_day: int, hi_day: int
) -> dict[int, Fraction]:
    """Exact mean window revenue (cents) per final value of delivered postbacks.

    The means pool every group. Every value with a delivered postback has
    an entry.
    """
    sums = [0] * VALUE_RANGE
    counts = [0] * VALUE_RANGE
    revenue = postbacks.cohort.window_revenue(lo_day, hi_day)
    for cell, value, cents in zip(postbacks.cells, postbacks.values, revenue):
        if cell >= 0:
            sums[value] += cents
            counts[value] += 1
    return {v: Fraction(sums[v], counts[v]) for v in range(VALUE_RANGE) if counts[v]}


# The lambda each endpoint mode fixes; ``plain`` redistributes nothing.
_FIXED_LAMBDA = {"plain": 0.0, "null_uniform": 0.0, "null_empirical": 1.0}


class _AttributionFunctionFields(NamedTuple):
    mode: str
    lam: float | None = None


class AttributionFunction(_AttributionFunctionFields):
    """One estimator: its mode and the lambda it redistributes with.

    ``lam`` is resolved here, once: ``null_uniform`` fixes it at 0 and
    ``null_empirical`` at 1, ``plain`` has 0 because it redistributes
    nothing, and ``null_convex`` takes it from the caller, 0 when none is
    given. An explicit lambda that is not a real number (a ``bool`` is
    not), contradicts the mode, or lies outside [0, 1], is a
    ``ConfigError``. The uniform share is over the matrix's
    columns, organic included.
    """

    __slots__ = ()
    _make = classmethod(remake)

    def __new__(cls, mode: str, lam: float | None = None) -> AttributionFunction:
        if mode not in ATTRIBUTION_MODES:
            raise ConfigError(f"unknown attribution mode {mode!r}")
        fixed = _FIXED_LAMBDA.get(mode)
        if lam is None:
            lam = 0.0 if fixed is None else fixed
        elif not isinstance(lam, Real) or isinstance(lam, bool):
            raise ConfigError(f"lambda must be a real number, got {lam!r}")
        elif fixed is not None and lam != fixed:
            raise ConfigError(f"{mode} fixes lambda at {fixed:g}, got {lam}")
        elif not 0.0 <= lam <= 1.0:
            raise ConfigError(f"lambda must be in [0, 1], got {lam}")
        return tuple.__new__(cls, (mode, float(lam)))


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


def _round_half_even(num: int, den: int) -> int:
    """``round(Fraction(num, den))`` for ``den > 0``, without building the Fraction."""
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q & 1):
        q += 1
    return q


class CellAttribution(NamedTuple):
    """One cell's attribution, exact and affine in lambda.

    Column ``j`` attributes ``(a[j] + lam * b[j]) / den`` cents, with
    ``den > 0``. With ``lam = ln / ld`` in lowest terms that is the integer
    ``ld * a[j] + ln * b[j]`` over ``ld * den``. ``b`` is all zero for the
    plain estimator and for an empty null row, where lambda changes
    nothing.
    """

    columns: tuple[CampaignKey, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]
    den: int

    def _numerators(self, lam: Real) -> tuple[Sequence[int], int]:
        """The columns at ``lam`` as integer numerators over one denominator."""
        ln, ld = lam.as_integer_ratio()
        if ln == 0:
            return self.a, self.den
        return [ld * x + ln * y for x, y in zip(self.a, self.b)], ld * self.den

    def fractions(self, lam: Real = 0.0) -> dict[CampaignKey, Fraction]:
        """Exact attributed cents per column at ``lam``."""
        nums, den = self._numerators(lam)
        return {k: Fraction(n, den) for k, n in zip(self.columns, nums)}

    def cents(self, lam: Real = 0.0) -> list[int]:
        """Attributed cents per column at ``lam``, each rounded half to even."""
        nums, den = self._numerators(lam)
        return [_round_half_even(n, den) for n in nums]


def attribute_plain(matrix: CountMatrix, means: Mapping[int, Fraction]) -> CellAttribution:
    """Optimal attribution without suppression: count times bucket mean.

    Accepts a privatized matrix only when its null row carries no users
    (thresholds below 2 fold nothing), since a loaded null row would need
    the null-aware estimator. The result has ``b = 0``.
    """
    if matrix.privacy_applied and sum(matrix.null_row) > 0:
        raise ConfigError("matrix has a loaded null row; use attribute_with_null")
    visible = [v for v in range(VALUE_RANGE) if any(matrix.rows[v])]
    scaled, den = _scaled_means(means, visible, f"{matrix.group}, {matrix.week}")
    acc = _visible_numerators(matrix, scaled)
    return CellAttribution(matrix.columns, tuple(acc), (0,) * len(acc), den)


def attribute_with_null(
    matrix: CountMatrix,
    means: Mapping[int, Fraction],
    totals: Mapping[int, int],
) -> CellAttribution:
    """Null-aware attribution over a privatized matrix, for every lambda at once.

    Visible cells contribute count times mean. Each suppressed value row
    contributes mean * weight_j * total users with that value, where the
    per-column weight is (1 - lambda)/beta + lambda * null_j / sum(null).
    An empty null row falls back to the uniform weight regardless of lambda.
    ``totals`` are the developer's per-value user counts of this matrix's
    (group, week) cell, not the counts behind ``means``; a value absent
    from the map has no users, and the map must cover at least the mass the
    null row proves was folded.

    With acc_j the visible numerator over the means' denominator ``den``,
    F the folded numerator and N the null row's sum, column j is
    (a_j + lambda * b_j) / D with a_j = acc_j * beta * N + F * N,
    b_j = F * (beta * null_j - N) and D = den * beta * N. An empty null
    row has a_j = acc_j * beta + F, b_j = 0 and D = den * beta.
    """
    if not matrix.privacy_applied:
        raise ConfigError("matrix is not privatized; use attribute_plain")
    beta = len(matrix.columns)
    null_row = matrix.null_row
    null_sum = sum(null_row)

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
    if null_sum == 0:
        return CellAttribution(
            matrix.columns, tuple([x * beta + folded for x in acc]), (0,) * beta, den * beta
        )
    scale = beta * null_sum
    mass = folded * null_sum
    return CellAttribution(
        matrix.columns,
        tuple([x * scale + mass for x in acc]),
        tuple([folded * (beta * c - null_sum) for c in null_row]),
        den * scale,
    )
