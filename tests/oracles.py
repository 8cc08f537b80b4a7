"""Independent oracles the tests check library results against.

Everything here is deliberately brute force: sort-and-slice quantiles,
linear event scans, exhaustive enumeration of user-to-campaign assignments,
and attribution as a plain Fraction loop over every matrix cell.
None of it shares code with the implementation paths it verifies.
"""

from __future__ import annotations

import math
from fractions import Fraction

from skattr.attribution import AttributionFunction, RevenueProfile
from skattr.errors import ConfigError, MissingProfileError
from skattr.model import PURCHASE, CampaignKey, UserRecord
from skattr.postback import CountMatrix
from skattr.schema import VALUE_RANGE


def scan_revenue(user: UserRecord, t: int) -> int:
    """Linear scan: purchase cents strictly before registration midnight + t days."""
    total = 0
    midnight = user.registration_instant
    for e in user.events:
        if e.kind == PURCHASE and 0 <= (e.timestamp - midnight).total_seconds() < t * 86_400:
            total += e.amount
    return total


def scan_revenue_between(user: UserRecord, lo_day: int, hi_day: int) -> int:
    """Event walk: purchase cents from lo_day midnights up to hi_day midnights."""
    total = 0
    midnight = user.registration_instant
    for e in user.events:
        if e.kind == PURCHASE:
            seconds = (e.timestamp - midnight).total_seconds()
            if lo_day * 86_400 <= seconds < hi_day * 86_400:
                total += e.amount
    return total


def sort_slice_quantiles(spends: list[int], n_buckets: int) -> list[int]:
    """Boundaries that cut a sorted spender population into n_buckets slices."""
    s = sorted(spends)
    n = len(s)
    return [s[math.ceil(k * n / n_buckets) - 1] for k in range(1, n_buckets)]


def groupby_truth(users: list[UserRecord], t: int) -> dict[CampaignKey, int]:
    """Per-origin revenue by per-user summation (no week keying)."""
    out: dict[CampaignKey, int] = {}
    for u in users:
        out[u.origin] = out.get(u.origin, 0) + scan_revenue(u, t)
    return out


def distinct_permutations(labels: list):
    """Yield every distinct ordering of a multiset of labels."""
    labels = sorted(labels, key=repr)
    n = len(labels)
    out: list = [None] * n

    def rec(remaining: list):
        depth = n - len(remaining)
        if not remaining:
            yield tuple(out)
            return
        seen = set()
        for i, lab in enumerate(remaining):
            if lab in seen:
                continue
            seen.add(lab)
            out[depth] = lab
            yield from rec(remaining[:i] + remaining[i + 1:])

    yield from rec(labels)


def enumerate_assignments(
    buckets: dict[int, list[int]],
    counts: dict[int, dict[CampaignKey, int]],
):
    """All user-to-campaign assignments consistent with per-bucket counts.

    ``buckets`` maps conversion value -> revenues of its users (ordered);
    ``counts`` maps conversion value -> {campaign: how many of them}.
    Yields dicts campaign -> total revenue for each full assignment.
    """
    per_bucket: list[list[dict[CampaignKey, int]]] = []
    for v in sorted(buckets):
        revenues = buckets[v]
        labels: list[CampaignKey] = []
        for key in sorted(counts[v]):
            labels.extend([key] * counts[v][key])
        assert len(labels) == len(revenues)
        options: list[dict[CampaignKey, int]] = []
        for perm in distinct_permutations(labels):
            acc: dict[CampaignKey, int] = {}
            for key, r in zip(perm, revenues):
                acc[key] = acc.get(key, 0) + r
            options.append(acc)
        per_bucket.append(options)

    def rec(i: int, acc: dict[CampaignKey, int]):
        if i == len(per_bucket):
            yield dict(acc)
            return
        for opt in per_bucket[i]:
            merged = dict(acc)
            for k, r in opt.items():
                merged[k] = merged.get(k, 0) + r
            yield from rec(i + 1, merged)

    yield from rec(0, {})


def enumeration_mean(
    buckets: dict[int, list[int]],
    counts: dict[int, dict[CampaignKey, int]],
    campaigns: list[CampaignKey],
) -> dict[CampaignKey, Fraction]:
    """Exact mean attributed revenue over all consistent assignments."""
    totals = {k: Fraction(0) for k in campaigns}
    n = 0
    for assign in enumerate_assignments(buckets, counts):
        n += 1
        for k in campaigns:
            totals[k] += assign.get(k, 0)
    return {k: totals[k] / n for k in campaigns}


def enumeration_expected_sq_error(
    buckets: dict[int, list[int]],
    counts: dict[int, dict[CampaignKey, int]],
    campaigns: list[CampaignKey],
    estimate: dict[CampaignKey, Fraction],
) -> Fraction:
    """Exact E over assignments of sum_alpha (estimate - realized revenue)^2."""
    total = Fraction(0)
    n = 0
    for assign in enumerate_assignments(buckets, counts):
        n += 1
        for k in campaigns:
            d = estimate[k] - assign.get(k, 0)
            total += d * d
    return total / n


def _fraction_row_mean(profile: RevenueProfile, v: int, context: str) -> Fraction:
    mean = profile.means.get(v)
    if mean is None:
        raise MissingProfileError(f"no revenue profile for value {v} ({context})")
    return mean


def fraction_attribute_plain(
    matrix: CountMatrix, profile: RevenueProfile
) -> dict[CampaignKey, Fraction]:
    """Plain attribution as a Fraction loop over every (value, column) cell."""
    if matrix.privacy_applied and sum(matrix.null_row) > 0:
        raise ConfigError("matrix has a loaded null row; use attribute_with_null")
    out: dict[CampaignKey, Fraction] = {k: Fraction(0) for k in matrix.columns}
    for v in range(VALUE_RANGE):
        if v in matrix.suppressed:
            continue
        row = matrix.rows[v]
        if not any(row):
            continue
        mean = _fraction_row_mean(profile, v, f"{matrix.group}, {matrix.week}")
        for j, count in enumerate(row):
            if count:
                out[matrix.columns[j]] += count * mean
    return out


def fraction_attribute_with_null(
    matrix: CountMatrix,
    profile: RevenueProfile,
    fn: AttributionFunction,
) -> dict[CampaignKey, Fraction]:
    """Null-aware attribution with one Fraction weight per column, summed cell by cell."""
    if not matrix.privacy_applied:
        raise ConfigError("matrix is not privatized; use attribute_plain")
    if fn.mode == "plain":
        return fraction_attribute_plain(matrix, profile)
    n = len(matrix.columns)
    beta = fn.beta_count if fn.beta_count is not None else n
    lam = Fraction(fn.effective_lambda)
    null_row = matrix.null_row
    null_sum = sum(null_row)
    if null_sum == 0:
        weights = [Fraction(1, beta)] * n
    else:
        uniform = (1 - lam) / beta
        weights = [uniform + lam * Fraction(null_row[j], null_sum) for j in range(n)]

    covered = sum(profile.totals.get(v, 0) for v in matrix.suppressed)
    if covered < null_sum:
        raise MissingProfileError(
            f"developer totals cover {covered} suppressed users but the null row "
            f"folded {null_sum} ({matrix.group}, {matrix.week})"
        )

    out: dict[CampaignKey, Fraction] = {k: Fraction(0) for k in matrix.columns}
    context = f"{matrix.group}, {matrix.week}"
    for v in range(VALUE_RANGE):
        if v in matrix.suppressed:
            total = profile.totals.get(v, 0)
            if total == 0:
                continue
            mean = _fraction_row_mean(profile, v, context)
            for j in range(n):
                out[matrix.columns[j]] += mean * weights[j] * total
        else:
            row = matrix.rows[v]
            if not any(row):
                continue
            mean = _fraction_row_mean(profile, v, context)
            for j, count in enumerate(row):
                if count:
                    out[matrix.columns[j]] += count * mean
    return out
