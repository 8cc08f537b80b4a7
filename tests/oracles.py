"""Independent oracles the tests check library results against.

Everything here is deliberately brute force: sort-and-slice quantiles,
linear event scans, a conversion-value replay that rescans the events at
every instant and keeps every commit, exhaustive enumeration of user-to-campaign assignments,
attribution as a plain Fraction loop over every matrix cell, and a CSV
loader that reads the whole file into a list and checks each field in turn.
None of it shares code with the implementation paths it verifies.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from fractions import Fraction
from pathlib import Path

from skattr.attribution import AttributionFunction
from skattr.errors import ConfigError, CsvFormatError, MissingProfileError, ReferentialError
from skattr.io_files import EVENT_FIELDS, META_PREFIX, USER_FIELDS
from skattr.model import (
    FLAG,
    PURCHASE,
    SESSION,
    CampaignKey,
    Cohort,
    Event,
    UserRecord,
    organic_key,
)
from skattr.postback import CountMatrix, PostbackTable
from skattr.rng import substream, uniform_value
from skattr.schema import VALUE_RANGE, SchemaSpec


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


DAY_US = 86_400 * 10**6
COMMIT_WINDOW_US = DAY_US
_MICROSECOND = timedelta(microseconds=1)


def candidate_value(user: UserRecord, schema: SchemaSpec, at: datetime) -> int:
    """The value the schema would assign at instant ``at``, by a fresh event scan.

    Considers events with timestamp <= ``at``. EV honors flags on the
    registration day only; RR/RI place the clamped day offset in the T bits
    and the revenue bucket / purchase count in the low bits; UD is the fixed
    per-user draw; PV is the full-horizon revenue bucket regardless of
    ``at``. A bucket is one plus the number of boundaries below the amount.
    """
    if at < user.registration_instant:
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
            ((e.timestamp - u.registration_instant) // _MICROSECOND, e.amount, 1, 0)
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


def reference_load_users(
    user_csv, events_csv=None, organic_alpha: int | None = None
) -> tuple[list[UserRecord], dict]:
    """``io_files.load_users`` as a list-then-validate loader, every field checked in turn.

    It does not reject timezone-aware timestamps, bytes that are not UTF-8
    or fields over the csv module's size limit: those escape it as
    ``TypeError``, ``UnicodeDecodeError`` and ``csv.Error``.
    """
    upath = Path(user_csv)
    meta, rows = _read_csv_rows(upath, USER_FIELDS)
    if organic_alpha is None:
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
    if events_csv is not None and Path(events_csv).exists():
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
                events[uid].append(Event(ts, kind, amount=amount, flag_index=flag_index))
            except ConfigError as exc:
                raise CsvFormatError(f"{epath}:{line}: {exc}") from exc

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
