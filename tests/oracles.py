"""Independent oracles the tests check library results against.

Everything here is deliberately brute force: sort-and-slice quantiles,
linear event scans, a conversion-value replay that rescans the events at
every instant and keeps every commit, exhaustive enumeration of user-to-campaign assignments,
attribution as a plain Fraction loop over every matrix cell, a CSV
loader that reads the whole file into a list and checks each field in turn,
and a cohort generator that builds every event from a ``datetime``. None
of it shares code with the implementation paths it verifies.

The reference attribution kernels (``reference_attribute_plain`` and
``reference_attribute_with_null``) are the integer kernels as they stood
before the lambda-free (a, b, D) form: the null-aware one rebuilds its
weights for each lambda. ``reference_grid_cells`` scores the benchmark grid
on them with ``CampaignKey``-keyed maps, one kernel call per (cell, mode,
lambda). ``optimal_lambda`` is the exact minimiser of one cell's squared
error over lambda in [0, 1], from the kernel's (a, b, D).
``reference_save_events`` is the events writer as it stood before rows
became text: a ``datetime`` per event and a row tuple for ``csv.writer``.
``reference_cohort`` digests checked records by rescanning each user's
events at every distinct instant, and names a user without a first open.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from fractions import Fraction
from itertools import chain
from pathlib import Path

from skattr.attribution import AttributionFunction, estimate_bucket_means_window
from skattr.errors import ConfigError, CsvFormatError, MissingProfileError, ReferentialError
from skattr.io_files import EVENT_FIELDS, META_PREFIX, USER_FIELDS, _write_csv
from skattr.metrics import CellResult, aggregate_error, normalize_vs_baseline, weekly_error
from skattr.model import (
    FLAG,
    MICROSECOND,
    PURCHASE,
    SESSION,
    US_PER_DAY,
    CampaignKey,
    Cohort,
    Event,
    UserRecord,
    check_event,
    encode_alpha,
    organic_key,
)
from skattr.pipeline import run_schema
from skattr.postback import CountMatrix, PostbackTable
from skattr.rng import substream, uniform_value
from skattr.schema import VALUE_RANGE, SchemaSpec
from skattr.synthgen import GenConfig, _pick, _segments


def registration_midnight(user: UserRecord) -> datetime:
    """The user's registration midnight as a naive ``datetime``."""
    return datetime.combine(user.registration_date, datetime.min.time())


def scan_revenue(user: UserRecord, t: int) -> int:
    """Linear scan: purchase cents strictly before registration midnight + t days."""
    total = 0
    midnight = registration_midnight(user)
    for e in user.events:
        if e.kind == PURCHASE and 0 <= (e.timestamp - midnight).total_seconds() < t * 86_400:
            total += e.amount
    return total


def scan_revenue_between(user: UserRecord, lo_day: int, hi_day: int) -> int:
    """Event walk: purchase cents from lo_day midnights up to hi_day midnights."""
    total = 0
    midnight = registration_midnight(user)
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


DAY_US = 86_400 * 10**6
COMMIT_WINDOW_US = DAY_US
_MICROSECOND = timedelta(microseconds=1)


def instant_us(ts: datetime) -> int:
    """A naive instant as an ``Event.us``: microseconds since midnight of date ordinal 0."""
    return (ts - datetime(1, 1, 1)) // _MICROSECOND + DAY_US


def candidate_value(user: UserRecord, schema: SchemaSpec, at: datetime) -> int:
    """The value the schema would assign at instant ``at``, by a fresh event scan.

    Considers events with timestamp <= ``at``. EV honors flags on the
    registration day only; RR/RI place the clamped day offset in the T bits
    and the revenue bucket / purchase count in the low bits; UD is the fixed
    per-user draw; PV is the full-horizon revenue bucket regardless of
    ``at``. A bucket is one plus the number of boundaries below the amount.
    """
    if at < registration_midnight(user):
        raise ConfigError("candidate instant precedes registration")
    kind = schema.kind
    if kind == "UD":
        if schema.seed is None:
            raise ConfigError("UD schema needs a seed")
        return uniform_value(schema.seed, "ud", user.id)
    if kind in ("RR", "PV") and schema.bucket_boundaries is None:
        raise ConfigError(f"schema {schema.label} has no fitted bucket boundaries")

    def bucket(amount: int) -> int:
        return 0 if amount <= 0 else 1 + sum(b < amount for b in schema.bucket_boundaries)

    if kind == "PV":
        return bucket(scan_revenue(user, schema.horizon_days))
    if kind == "EV":
        flags = 0
        for e in user.events:
            if e.timestamp > at:
                break
            if e.kind == FLAG and e.timestamp.date() == user.registration_date:
                flags |= 1 << e.flag_index
        return flags
    # RR / RI share the rolling structure.
    revenue = 0
    purchases = 0
    for e in user.events:
        if e.timestamp > at:
            break
        if e.kind == PURCHASE:
            revenue += e.amount
            purchases += 1
    n_t = schema.layout.n_t
    n_low = 6 - n_t
    day = (at.date() - user.registration_date).days
    day = max(0, min(day, schema.horizon_days, 2**n_t - 1))
    low = bucket(revenue) if kind == "RR" else purchases
    return (day << n_low) | min(low, 2**n_low - 1)


@dataclass(frozen=True)
class UpdateTrace:
    """Committed conversion-value updates for one user.

    Values are strictly increasing, consecutive commits are at most 24h
    apart (compared in whole microseconds), and the first entry is the
    first-open assignment.
    """

    user_id: int
    committed: tuple[tuple[datetime, int], ...]
    first_open: datetime

    def __post_init__(self) -> None:
        if not self.committed:
            raise ConfigError("a trace must contain the first-open commit")
        if self.committed[0][0] != self.first_open:
            raise ConfigError("first commit must be at first open")
        prev_ts, prev_v = self.committed[0]
        if not 0 <= prev_v < VALUE_RANGE:
            raise ConfigError(f"conversion value {prev_v} out of range")
        for ts, v in self.committed[1:]:
            if not 0 <= v < VALUE_RANGE:
                raise ConfigError(f"conversion value {v} out of range")
            if v <= prev_v:
                raise ConfigError("committed values must be strictly increasing")
            gap = (ts - prev_ts) // _MICROSECOND
            if gap < 0 or gap > COMMIT_WINDOW_US:
                raise ConfigError("consecutive commits must be at most 24h apart")
            prev_ts, prev_v = ts, v

    @property
    def final_value(self) -> int:
        return self.committed[-1][1]

    @property
    def last_commit(self) -> datetime:
        return self.committed[-1][0]


def simulate_updates(user: UserRecord, schema: SchemaSpec) -> UpdateTrace:
    """Replay a user's events through the platform update rules, keeping every commit.

    The candidate is re-evaluated from scratch at each distinct event
    instant (so simultaneous events are absorbed first and commit at most
    once); it commits at first open and afterwards only when strictly
    greater. The replay stops at the first instant more than 24h, in whole
    microseconds, after the previous commit.
    """
    if not user.events or user.events[0].kind != SESSION:
        raise ConfigError(f"user {user.id} lacks a first-open session event")
    instants = sorted({e.timestamp for e in user.events})
    committed: list[tuple[datetime, int]] = []
    for at in instants:
        if committed and (at - committed[-1][0]) // _MICROSECOND > COMMIT_WINDOW_US:
            break
        value = candidate_value(user, schema, at)
        if not committed or value > committed[-1][1]:
            committed.append((at, value))
    return UpdateTrace(user.id, tuple(committed), instants[0])


@dataclass(frozen=True, slots=True)
class Postback:
    """The single anonymized report for one user, as a datetime."""

    user_id: int
    final_value: int
    postback_time: datetime
    group: str


def finalize_postback(
    user_id: int, final_value: int, last_commit: datetime, draw: float, group: str
) -> Postback:
    """A postback sent 24h + ``draw`` * 24h after the last commit."""
    return Postback(user_id, final_value, last_commit + timedelta(seconds=86_400 + draw * 86_400),
                    group)


def oracle_postbacks(
    users: list[UserRecord], schema: SchemaSpec, seed: int, horizon: datetime | None = None
) -> dict[int, Postback]:
    """Postbacks from oracle traces, each user's delay drawn from a fresh substream.

    A postback sent after ``horizon`` is dropped.
    """
    out = {}
    for u in sorted(users, key=lambda u: u.id):
        trace = simulate_updates(u, schema)
        draw = substream(seed, "postback", u.id).random()
        pb = finalize_postback(u.id, trace.final_value, trace.last_commit, draw, u.group)
        if horizon is None or pb.postback_time <= horizon:
            out[u.id] = pb
    return out


def oracle_view(postbacks: dict[int, Postback]) -> dict[int, tuple[int, datetime, tuple[str, str]]]:
    """``{user id: (final value, delivery instant, (group, ISO week))}`` by the calendar."""
    out = {}
    for uid, pb in postbacks.items():
        year, week, _ = pb.postback_time.isocalendar()
        out[uid] = (pb.final_value, pb.postback_time, (pb.group, "%04d-W%02d" % (year, week)))
    return out


def by_user(table: PostbackTable) -> dict[int, tuple[int, datetime, tuple[str, str]]]:
    """``{user id: (final value, delivery instant, (group, week))}`` of a table's delivered postbacks.

    The instant is rebuilt as a ``datetime`` from the table's microseconds,
    which count from midnight of date ordinal 0.
    """
    keys = table.cell_keys
    return {
        uid: (value, datetime.min + timedelta(microseconds=sent - DAY_US), keys[cell])
        for uid, value, cell, sent in zip(table.cohort.ids, table.values, table.cells, table.sent_us)
        if cell >= 0
    }


def table_of(users: list[UserRecord], postbacks) -> PostbackTable:
    """Fixture: a library ``PostbackTable`` holding exactly the given postbacks.

    ``postbacks`` are ``Postback``s (or a mapping to them) of some of
    ``users``; the others get no postback (cell -1). No schema is replayed
    over the cohort, so each user's digest holds only its purchases, one
    entry per event. Cell ids number the distinct (group, ISO week by the
    calendar) keys in order of first use.
    """
    if isinstance(postbacks, dict):
        postbacks = postbacks.values()
    digests = [
        tuple(
            ((e.timestamp - registration_midnight(u)) // _MICROSECOND, e.amount, 1, 0)
            for e in u.events
            if e.kind == PURCHASE
        )
        for u in users
    ]
    cohort = Cohort(
        [u.id for u in users],
        [u.registration_date.toordinal() for u in users],
        [u.group for u in users],
        [(u.origin.organic, u.origin.alpha) for u in users],
        digests,
    )
    index = {uid: i for i, uid in enumerate(cohort.ids)}
    n = len(users)
    values, cells, sent_us = [0] * n, [-1] * n, [0] * n
    ids: dict[tuple[str, str], int] = {}
    for pb in postbacks:
        i = index[pb.user_id]
        assert cells[i] == -1 and pb.group == users[i].group
        day = pb.postback_time.toordinal()
        values[i] = pb.final_value
        sent_us[i] = day * DAY_US + (pb.postback_time - datetime.combine(
            pb.postback_time.date(), datetime.min.time())) // _MICROSECOND
        year, week, _ = pb.postback_time.isocalendar()
        cells[i] = ids.setdefault((pb.group, "%04d-W%02d" % (year, week)), len(ids))
    return PostbackTable(cohort, values, cells, sent_us, {i: key for key, i in ids.items()})


def reference_generate_dataset(cfg: GenConfig) -> list[UserRecord]:
    """The users ``synthgen.generate_dataset`` makes, built event by event from ``datetime``s.

    Each event is ``midnight + timedelta(seconds=...)``, and a user's events
    are sorted by (timestamp, kind rank) before the record is built. The
    draws are those of the library generator, call for call; the origin
    segments and the group and segment picks are the library's.
    """
    segments = _segments(cfg)
    return [_reference_user(cfg, segments, uid) for uid in range(cfg.n_users)]


def _reference_user(cfg: GenConfig, segments, uid: int) -> UserRecord:
    rng = substream(cfg.seed, "user", uid)
    seg = _pick(segments, rng.random())
    group = _pick(cfg.groups, rng.random())
    reg_day = rng.randrange(cfg.n_weeks * 7)
    reg_date = cfg.start_date + timedelta(days=reg_day)
    midnight = datetime.combine(reg_date, datetime.min.time())

    spender = rng.random() < min(1.0, cfg.spender_rate * seg.spender_mult)
    whale_shift = rng.gauss(0.0, cfg.whale_sigma) if spender else 0.0
    mu = cfg.amount_mu + seg.amount_shift + whale_shift
    continue_p = cfg.spender_retention_continue if spender else cfg.retention_continue
    lifetime = 0
    while lifetime < cfg.event_horizon_days - 1 and rng.random() < continue_p:
        lifetime += 1
    habit_sec = rng.randrange(28_800, 79_200)

    events: list[tuple[datetime, str, int | None, int | None]] = []
    for d in range(lifetime + 1):
        if d > 0 and rng.random() >= cfg.activity_rate:
            continue
        secs = sorted(
            d * 86_400 + rng.randrange(habit_sec, 86_400)
            for _ in range(rng.randint(0, cfg.max_sessions_per_day - 1))
        )
        if d == 0 or rng.random() < cfg.habit_prob:
            secs = sorted([d * 86_400 + habit_sec] + secs)
        if not secs:
            secs = [d * 86_400 + rng.randrange(habit_sec, 86_400)]
        for s in secs:
            events.append((midnight + timedelta(seconds=s), SESSION, None, None))
        if spender:
            ramp = min(1.0, d / 3) if d else 0.0
            p_buy = cfg.purchase_day0_prob + (cfg.purchase_prob - cfg.purchase_day0_prob) * ramp
            if rng.random() < p_buy:
                buy_sec = min(secs[-1] + rng.randrange(60, 1800), (d + 1) * 86_400 - 1)
                mu_d = mu + cfg.tenure_amount_slope * d
                amount = max(1, round(math.exp(rng.gauss(mu_d, cfg.amount_sigma))))
                events.append((midnight + timedelta(seconds=buy_sec), PURCHASE, amount, None))
    boost = cfg.flag_spender_boost if spender else 1.0
    for i, p in enumerate(cfg.flag_probs):
        if rng.random() < min(1.0, p * boost):
            fsec = min(habit_sec + 30 * (i + 1), 86_399)
            events.append((midnight + timedelta(seconds=fsec), FLAG, None, i))

    kind_rank = {SESSION: 0, PURCHASE: 1, FLAG: 2}
    events.sort(key=lambda e: (e[0], kind_rank[e[1]]))
    return UserRecord(
        id=uid,
        registration_date=reg_date,
        origin=seg.key,
        events=tuple(Event(instant_us(ts), kind, amount, flag) for ts, kind, amount, flag
                     in events),
        group=group,
    )


def homogeneous_fixture(
    n_buckets: int,
    users_per_bucket: int,
    revenue_per_bucket: list[int] | tuple[int, ...] | None = None,
    n_campaigns: int = 3,
    start_date: date = date(2024, 1, 1),
) -> list[UserRecord]:
    """Fixture: users whose window revenue is exactly a per-bucket constant.

    Every user plays one day-0 session; users in bucket b > 0 make one day-0
    purchase of that bucket's constant, bucket 0 buys nothing. Origins cycle
    over ``n_campaigns`` paid campaigns plus organic, so attribution has
    something to disentangle while buckets stay revenue-homogeneous.
    """
    if users_per_bucket < 1:
        raise ConfigError("users_per_bucket must be at least 1")
    if n_buckets < 1 or n_buckets > 63:
        raise ConfigError("n_buckets must be in [1, 63]")
    if revenue_per_bucket is None:
        revenue_per_bucket = tuple(1000 * (b + 1) for b in range(n_buckets))
    if len(revenue_per_bucket) != n_buckets:
        raise ConfigError("revenue_per_bucket must have one constant per bucket")
    if len(set(revenue_per_bucket)) != n_buckets or any(r <= 0 for r in revenue_per_bucket):
        raise ConfigError("bucket constants must be positive and distinct")
    if start_date.isoweekday() != 1:
        raise ConfigError("start_date must be a Monday")

    origins = [encode_alpha(0, c) for c in range(n_campaigns)] + [organic_key(100)]
    midnight = datetime.combine(start_date, datetime.min.time())
    users: list[UserRecord] = []
    uid = 0
    for b in range(n_buckets + 1):  # bucket 0 = non-spenders
        amount = None if b == 0 else revenue_per_bucket[b - 1]
        for _ in range(users_per_bucket):
            opened = midnight + timedelta(seconds=3600 + 60 * uid)
            events = [Event(instant_us(opened), SESSION)]
            if amount is not None:
                bought = opened + timedelta(seconds=600)
                events.append(Event(instant_us(bought), PURCHASE, amount=amount))
            users.append(
                UserRecord(
                    id=uid,
                    registration_date=start_date,
                    origin=origins[uid % len(origins)],
                    events=tuple(events),
                    group="G",
                )
            )
            uid += 1
    return users


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


def _fraction_row_mean(means: dict[int, Fraction], v: int, context: str) -> Fraction:
    mean = means.get(v)
    if mean is None:
        raise MissingProfileError(f"no revenue profile for value {v} ({context})")
    return mean


def fraction_attribute_plain(
    matrix: CountMatrix, means: dict[int, Fraction]
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
        mean = _fraction_row_mean(means, v, f"{matrix.group}, {matrix.week}")
        for j, count in enumerate(row):
            if count:
                out[matrix.columns[j]] += count * mean
    return out


def fraction_attribute_with_null(
    matrix: CountMatrix,
    means: dict[int, Fraction],
    totals: dict[int, int],
    fn: AttributionFunction,
) -> dict[CampaignKey, Fraction]:
    """Null-aware attribution with one Fraction weight per column, summed cell by cell.

    ``totals`` are the cell's developer-side user counts per value.
    """
    if not matrix.privacy_applied:
        raise ConfigError("matrix is not privatized; use attribute_plain")
    if fn.mode == "plain":
        return fraction_attribute_plain(matrix, means)
    n = beta = len(matrix.columns)
    lam = Fraction(fn.lam)
    null_row = matrix.null_row
    null_sum = sum(null_row)
    if null_sum == 0:
        weights = [Fraction(1, beta)] * n
    else:
        uniform = (1 - lam) / beta
        weights = [uniform + lam * Fraction(null_row[j], null_sum) for j in range(n)]

    for v in matrix.suppressed:
        if totals.get(v, 0) < 0:
            raise ConfigError(f"negative total for value {v}")
    covered = sum(totals.get(v, 0) for v in matrix.suppressed)
    if covered < null_sum:
        raise MissingProfileError(
            f"developer totals cover {covered} suppressed users but the null row "
            f"folded {null_sum} ({matrix.group}, {matrix.week})"
        )

    out: dict[CampaignKey, Fraction] = {k: Fraction(0) for k in matrix.columns}
    context = f"{matrix.group}, {matrix.week}"
    for v in range(VALUE_RANGE):
        if v in matrix.suppressed:
            total = totals.get(v, 0)
            if total == 0:
                continue
            mean = _fraction_row_mean(means, v, context)
            for j in range(n):
                out[matrix.columns[j]] += mean * weights[j] * total
        else:
            row = matrix.rows[v]
            if not any(row):
                continue
            mean = _fraction_row_mean(means, v, context)
            for j, count in enumerate(row):
                if count:
                    out[matrix.columns[j]] += count * mean
    return out


def _reference_scaled_means(
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


def _reference_visible_numerators(matrix: CountMatrix, scaled: Mapping[int, int]) -> list[int]:
    """Per column, the sum of count * scaled mean over the visible rows."""
    acc = [0] * len(matrix.columns)
    for v, mean in scaled.items():
        if v in matrix.suppressed:
            continue
        for j, count in enumerate(matrix.rows[v]):
            if count:
                acc[j] += count * mean
    return acc


def reference_attribute_plain(
    matrix: CountMatrix, means: Mapping[int, Fraction]
) -> dict[CampaignKey, Fraction]:
    """The integer plain kernel that read no lambda form: one Fraction per column."""
    if matrix.privacy_applied and sum(matrix.null_row) > 0:
        raise ConfigError("matrix has a loaded null row; use attribute_with_null")
    visible = [
        v for v in range(VALUE_RANGE) if v not in matrix.suppressed and any(matrix.rows[v])
    ]
    scaled, den = _reference_scaled_means(means, visible, f"{matrix.group}, {matrix.week}")
    acc = _reference_visible_numerators(matrix, scaled)
    return {k: Fraction(a, den) for k, a in zip(matrix.columns, acc)}


def reference_attribute_with_null(
    matrix: CountMatrix,
    means: Mapping[int, Fraction],
    totals: Mapping[int, int],
    fn: AttributionFunction,
) -> dict[CampaignKey, Fraction]:
    """The integer null-aware kernel rebuilt for each lambda: weights over one denominator.

    The per-column weight is (1 - lambda)/beta + lambda * null_j / sum(null),
    uniform when the null row is empty.
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
    scaled, den = _reference_scaled_means(means, used, f"{matrix.group}, {matrix.week}")
    acc = _reference_visible_numerators(matrix, scaled)
    folded = sum(scaled[v] * totals[v] for v in used if v in matrix.suppressed)
    return {
        k: Fraction(a * weight_den + folded * w, den * weight_den)
        for k, a, w in zip(matrix.columns, acc, weight_num)
    }


def reference_threshold(matrix: CountMatrix, p: int) -> CountMatrix:
    """Fold every value row whose total is below ``p`` into the null row, row by row."""
    null_row = [0] * len(matrix.columns)
    rows = []
    suppressed = set()
    for v, row in enumerate(matrix.rows):
        if sum(row) < p:
            suppressed.add(v)
            null_row = [n + c for n, c in zip(null_row, row)]
            rows.append((0,) * len(row))
        else:
            rows.append(row)
    out = matrix._replace(rows=tuple(rows), p=p, null_row=tuple(null_row))
    assert out.suppressed == suppressed
    return out


def reference_score_level(
    attributed: Mapping[str, Mapping[CampaignKey, int]],
    truth: Mapping[str, Mapping[CampaignKey, int]],
    columns: Sequence[CampaignKey],
    level: str,
) -> tuple[tuple[tuple[str, float], ...], float]:
    """Weekly and aggregate errors over every column, both sides keyed by ``CampaignKey``."""
    weekly: list[tuple[str, float]] = []
    weights: list[float] = []
    for week in sorted(attributed.keys() | truth.keys()):
        att = attributed.get(week, {})
        tru = truth.get(week, {})
        a: dict = {}
        y: dict = {}
        for k in columns:
            label = k if level == "campaign" else network_label(k)
            a[label] = a.get(label, 0) + att.get(k, 0)
            y[label] = y.get(label, 0) + tru.get(k, 0)
        weekly.append((week, weekly_error(a, y)))
        weights.append(float(sum(y.values())))
    return tuple(weekly), aggregate_error(zip((e for _, e in weekly), weights))


def network_label(key: CampaignKey) -> str:
    return "organic" if key.organic else f"n{key.network}"


def reference_truth(
    postbacks: PostbackTable, lo_day: int, hi_day: int
) -> dict[str, dict[CampaignKey, int]]:
    """Window revenue per (postback week, true origin), summed one record at a time.

    Walks each delivered user's events (``scan_revenue_between``); the
    cohort must hold its ``UserRecord``s.
    """
    out: dict[str, dict[CampaignKey, int]] = {}
    for user, cell in zip(postbacks.cohort.users, postbacks.cells):
        if cell >= 0:
            by_origin = out.setdefault(postbacks.cell_keys[cell][1], {})
            cents = scan_revenue_between(user, lo_day, hi_day)
            by_origin[user.origin] = by_origin.get(user.origin, 0) + cents
    return out


def reference_grid_cells(
    cohort: Cohort,
    schemas: Sequence[SchemaSpec],
    p_values: Sequence[int],
    g_modes: Sequence[str],
    t: int,
    *,
    seed: int,
    lambda_grid: Sequence[float],
) -> list[CellResult]:
    """The benchmark grid's cells, one reference kernel call per (cell, mode, lambda).

    Pooled bucket means, organic columns scored, both levels normalized
    against D30 PV (plain below p = 2, null_uniform from p = 2).
    """
    def errors(art, p, mode, lam):
        fn = AttributionFunction(mode, lam)
        means = estimate_bucket_means_window(art.postbacks, 0, t)
        by_week: dict[str, dict[CampaignKey, int]] = {}
        for cell, matrix in sorted(art.matrices.items()):
            if mode == "plain":
                res = reference_attribute_plain(matrix, means)
            else:
                res = reference_attribute_with_null(
                    reference_threshold(matrix, p), means, art.cell_totals[cell], fn
                )
            acc = by_week.setdefault(cell[1], {})
            for k, val in res.items():
                acc[k] = acc.get(k, 0) + round(val)
        truth = reference_truth(art.postbacks, 0, t)
        return {
            level: reference_score_level(by_week, truth, cohort.origins, level)
            for level in ("campaign", "network")
        }

    def modes(p):
        out = []
        for mode in g_modes:
            if mode == "null_convex":
                out.extend((mode, float(lam)) for lam in lambda_grid)
            elif mode != "plain":
                out.append((mode, 0.0 if mode == "null_uniform" else 1.0))
            elif p < 2:
                out.append((mode, None))
        return out

    sims = [run_schema(cohort, schema, seed) for schema in schemas]
    pv = next(art for art in sims if art.schema.kind == "PV")
    cells = []
    for art in sims:
        for p in sorted(p_values):
            base = errors(pv, p, "plain", None) if p < 2 else errors(pv, p, "null_uniform", 0.0)
            for mode, lam in modes(p):
                by_level = errors(art, p, mode, lam)
                for level, (weekly, agg) in by_level.items():
                    base_agg = base[level][1]
                    score = normalize_vs_baseline(agg, base_agg) if base_agg else None
                    cells.append(CellResult(art.schema.label, p, mode, lam, level, weekly, agg,
                                            score))
    return cells


def optimal_lambda(a: Sequence[int], b: Sequence[int], den: int, y: Sequence[int]) -> Fraction:
    """The exact minimiser over [0, 1] of sum_j ((a_j + lambda * b_j) / den - y_j)^2.

    It is clamp(sum b * (den * y - a) / sum b^2, 0, 1), and 0 when every
    b_j is 0 (then every lambda is optimal).
    """
    bb = sum(x * x for x in b)
    if bb == 0:
        return Fraction(0)
    lam = Fraction(sum(bj * (den * yj - aj) for aj, bj, yj in zip(a, b, y)), bb)
    return min(max(lam, Fraction(0)), Fraction(1))


def squared_error(
    a: Sequence[int], b: Sequence[int], den: int, y: Sequence[int], lam: Fraction
) -> Fraction:
    """Exact sum_j ((a_j + lam * b_j) / den - y_j)^2, before any rounding to cents."""
    return sum(((Fraction(aj + lam * bj, den) - yj) ** 2 for aj, bj, yj in zip(a, b, y)),
               Fraction(0))


def by_network(columns: Sequence[CampaignKey], *vectors: Sequence) -> list[list]:
    """Each vector summed per network label, labels in order of first column."""
    labels: dict[str, int] = {}
    for k in columns:
        labels.setdefault(network_label(k), len(labels))
    out = []
    for vec in vectors:
        acc = [0] * len(labels)
        for k, x in zip(columns, vec):
            acc[labels[network_label(k)]] += x
        out.append(acc)
    return out


def _read_csv_rows(path: Path, expected_header) -> tuple[dict, list[tuple[int, list[str]]]]:
    """(meta, [(line_number, row), ...]) of a whole CSV, read into a list."""
    if not path.exists():
        raise ConfigError(f"input file {path} does not exist")
    meta: dict = {}
    rows: list[tuple[int, list[str]]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline()
        line_no = 1
        if first.startswith(META_PREFIX):
            try:
                meta = json.loads(first[len(META_PREFIX):])
            except json.JSONDecodeError as exc:
                raise CsvFormatError(f"{path}:1: bad meta line: {exc}") from exc
            header_line = fh.readline()
            line_no = 2
        else:
            header_line = first
        header = next(csv.reader([header_line])) if header_line else []
        if header != list(expected_header):
            raise CsvFormatError(
                f"{path}:{line_no}: expected header {','.join(expected_header)}, "
                f"got {','.join(header)}"
            )
        for row in csv.reader(fh):
            line_no += 1
            if row:
                rows.append((line_no, row))
    return meta, rows


def _parse_int(text: str, path: Path, line: int, field: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise CsvFormatError(f"{path}:{line}: {field} must be an integer, got {text!r}") from exc


def reference_load_users(user_csv, events_csv=None) -> tuple[list[UserRecord], dict]:
    """``io_files.load_users`` as a list-then-validate loader, every field checked in turn.

    A missing events file is a ``ConfigError`` when some user could have
    events. It does not reject timezone-aware timestamps, bytes that are
    not UTF-8 or fields over the csv module's size limit: those escape it
    as ``TypeError``, ``UnicodeDecodeError`` and ``csv.Error``.
    """
    upath = Path(user_csv)
    meta, rows = _read_csv_rows(upath, USER_FIELDS)
    organic_alpha = meta.get("organic_alpha")
    raw: dict[int, tuple[date, int, str]] = {}
    for line, row in rows:
        if len(row) != len(USER_FIELDS):
            raise CsvFormatError(f"{upath}:{line}: expected {len(USER_FIELDS)} columns")
        uid = _parse_int(row[0], upath, line, "id")
        try:
            reg = date.fromisoformat(row[1])
        except ValueError as exc:
            raise CsvFormatError(f"{upath}:{line}: bad registration_date {row[1]!r}") from exc
        alpha = _parse_int(row[2], upath, line, "alpha")
        if alpha < 0:
            raise CsvFormatError(f"{upath}:{line}: alpha must be >= 0")
        if organic_alpha is not None and alpha > organic_alpha:
            raise ReferentialError(
                f"{upath}:{line}: alpha {alpha} exceeds the organic sentinel {organic_alpha}"
            )
        if not row[3]:
            raise CsvFormatError(f"{upath}:{line}: group must be non-empty")
        if uid in raw:
            raise CsvFormatError(f"{upath}:{line}: duplicate user id {uid}")
        raw[uid] = (reg, alpha, row[3])

    events: dict[int, list[Event]] = {uid: [] for uid in raw}
    if events_csv is not None and (raw or Path(events_csv).exists()):
        epath = Path(events_csv)
        _, erows = _read_csv_rows(epath, EVENT_FIELDS)
        for line, row in erows:
            if len(row) != len(EVENT_FIELDS):
                raise CsvFormatError(f"{epath}:{line}: expected {len(EVENT_FIELDS)} columns")
            uid = _parse_int(row[0], epath, line, "user_id")
            if uid not in raw:
                raise ReferentialError(f"{epath}:{line}: event references unknown user {uid}")
            try:
                ts = datetime.fromisoformat(row[1])
            except ValueError as exc:
                raise CsvFormatError(f"{epath}:{line}: bad timestamp {row[1]!r}") from exc
            kind = row[2]
            if kind not in (SESSION, PURCHASE, FLAG):
                raise CsvFormatError(f"{epath}:{line}: unknown event kind {kind!r}")
            amount = _parse_int(row[3], epath, line, "amount_cents") if row[3] else None
            flag_index = _parse_int(row[4], epath, line, "flag_index") if row[4] else None
            try:
                check_event(kind, amount, flag_index)
            except ConfigError as exc:
                raise CsvFormatError(f"{epath}:{line}: {exc}") from exc
            events[uid].append(Event(instant_us(ts), kind, amount=amount, flag_index=flag_index))

    users: list[UserRecord] = []
    for uid in sorted(raw):
        reg, alpha, group = raw[uid]
        origin = organic_key(alpha) if alpha == organic_alpha else CampaignKey(alpha)
        try:
            users.append(
                UserRecord(
                    id=uid,
                    registration_date=reg,
                    origin=origin,
                    events=tuple(events[uid]),
                    group=group,
                )
            )
        except ConfigError as exc:
            raise CsvFormatError(f"{Path(events_csv)}: {exc}") from exc
    return users, meta


def reference_cohort(users: Sequence[UserRecord], organic_alpha: int | None = None) -> Cohort:
    """The ``Cohort`` of checked records, each digest made by rescanning the user's events.

    ``organic_alpha`` is the sentinel the records' users file declares.

    The first user in list order with no events, or whose first event is
    not a session, is a ``ConfigError``. A digest has one entry per
    distinct instant, in time order: (microseconds since registration
    midnight, the cents and the count of the purchases at that instant,
    the bits of its flags when it falls on day 0).
    """
    digests = []
    for u in users:
        if not u.events or u.events[0].kind != SESSION:
            raise ConfigError(f"user {u.id} lacks a first-open session event")
        midnight = instant_us(registration_midnight(u))
        digest = []
        for us in sorted({e.us for e in u.events}):
            at = [e for e in u.events if e.us == us]
            cents = [e.amount for e in at if e.kind == PURCHASE]
            bits = 0
            if us - midnight < DAY_US:
                for e in at:
                    if e.kind == FLAG:
                        bits |= 1 << e.flag_index
            digest.append((us - midnight, sum(cents), len(cents), bits))
        digests.append(tuple(digest))
    return Cohort(
        [u.id for u in users],
        [u.registration_date.toordinal() for u in users],
        [u.group for u in users],
        [(u.origin.organic, u.origin.alpha) for u in users],
        digests,
        organic_alpha=organic_alpha,
    )


def reference_save_events(path: str | Path, users: Sequence[UserRecord], meta: Mapping) -> None:
    """Write every user's events, in user id order.

    A timestamp is written as its ``datetime``'s ``isoformat()``: whole
    seconds as ``YYYY-MM-DDTHH:MM:SS`` (every generated event), and a
    sub-second instant with six fraction digits. Rows are made one user at
    a time as they are written, so the file is never held in memory as a
    list of rows.
    """
    epoch, tick = datetime.min, MICROSECOND  # model.us_to_datetime, inlined for the row loop
    rows = chain.from_iterable(
        [
            (
                u.id,
                (epoch + tick * (e.us - US_PER_DAY)).isoformat(),
                e.kind,
                e.amount if e.amount is not None else "",
                e.flag_index if e.flag_index is not None else "",
            )
            for e in u.events
        ]
        for u in sorted(users, key=lambda u: u.id)
    )
    _write_csv(Path(path), meta, EVENT_FIELDS, rows)
