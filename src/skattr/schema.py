"""Conversion-value schemas and the replay of the platform update rules.

A schema maps a user's observable state to a 6-bit value in [0, 63]. Five
kinds are supported:

* EV -- six boolean action flags observed on the registration day only.
* RR -- time bits (most significant) plus quantile buckets of rolling revenue.
* RI -- time bits plus the clamped rolling purchase count.
* UD -- a fixed uniform draw per user, reproducible from (seed, user id).
* PV -- quantile bucket of the user's full-horizon revenue (omniscient; uses
  future data, flagged as hypothetical in reports).

Traces follow the platform update rules: the value is committed at first
open, a later event commits only a strictly greater value and only while it
arrives within 24h of the previous commit (each commit resets the timer;
non-commits do not). Once 24h pass without a commit the trace is final;
an event exactly 24h after the previous commit still commits.

Only the final value matters downstream, so ``simulate_traces`` keeps no
list of commits: it returns the final values and the last-commit instants,
as integer microseconds since registration midnight, in cohort order. Events
carry their instants on the model's integer clock (``Event.us``), so each
is digested by one subtraction in ``fold_events``, which builds, and
names the defects of, every replayable ``model.Cohort``. It takes
``(user id, events)`` runs: ``prepare_users`` passes each record's
``events`` tuple as one run, and ``io_files.load_cohort`` each block of
consecutive events rows of one user. So day
indices (calendar-day offsets from the registration date) and the 24h
timer are exact integer arithmetic, also for timestamps with sub-second
parts. PV values and fitted bucket boundaries read the cohort's
window-revenue memo.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, CsvFormatError, DegenerateFitError, LayoutError
from .model import FLAG, PURCHASE, SESSION, US_PER_DAY, Cohort, UserRecord, remake, us_to_datetime
from .rng import uniform_value

SCHEMA_KINDS = ("EV", "RR", "RI", "UD", "PV")
VALUE_RANGE = 64  # 6 bits
COMMIT_WINDOW_US = US_PER_DAY


class _BitLayoutFields(NamedTuple):
    bits: str


class BitLayout(_BitLayoutFields):
    """Six bit roles, most-significant first, from {T, V, C}.

    Time bits, when present, must form the most-significant prefix so that
    day increments always raise the value regardless of the low bits.
    """

    __slots__ = ()
    _make = classmethod(remake)

    def __new__(cls, bits: str) -> BitLayout:
        if len(bits) != 6:
            raise LayoutError(f"layout must have exactly 6 bits, got {bits!r}")
        if any(ch not in "TVC" for ch in bits):
            raise LayoutError(f"layout characters must be T, V or C, got {bits!r}")
        n_t = bits.count("T")
        if n_t and bits[:n_t] != "T" * n_t:
            raise LayoutError(f"T bits must be a most-significant prefix, got {bits!r}")
        return tuple.__new__(cls, (bits,))

    @property
    def n_t(self) -> int:
        return self.bits.count("T")

    @property
    def n_v(self) -> int:
        return self.bits.count("V")


def parse_layout(spec: str) -> BitLayout:
    """Parse a layout string such as 'TTTVVV'."""
    if not isinstance(spec, str):
        raise LayoutError(f"layout must be a string, got {type(spec).__name__}")
    return BitLayout(spec.upper())


class _SchemaSpecFields(NamedTuple):
    kind: str
    layout: BitLayout | None = None
    horizon_days: int = 0
    bucket_boundaries: tuple[int, ...] | None = None
    seed: int | None = None


class SchemaSpec(_SchemaSpecFields):
    """A conversion-value schema: kind, bit layout, fitted boundaries.

    ``bucket_boundaries`` (cents, one per inter-bucket cut) apply to the V
    bits; bucket 0 is reserved for non-spenders. ``horizon_days`` is the day
    span of the T bits for RR/RI and the revenue horizon for PV. ``seed``
    drives the per-user draw for UD only.
    """

    __slots__ = ()
    _make = classmethod(remake)

    def __new__(
        cls,
        kind: str,
        layout: BitLayout | None = None,
        horizon_days: int = 0,
        bucket_boundaries: Iterable[int] | None = None,
        seed: int | None = None,
    ) -> SchemaSpec:
        if kind not in SCHEMA_KINDS:
            raise ConfigError(f"unknown schema kind {kind!r}")
        if bucket_boundaries is not None:
            bucket_boundaries = bb = tuple(bucket_boundaries)
            if any(b <= 0 for b in bb):
                raise ConfigError("bucket boundaries must be positive cents")
            if any(b2 < b1 for b1, b2 in zip(bb, bb[1:])):
                raise ConfigError("bucket boundaries must be ascending")
        if kind == "EV":
            if layout is None:
                layout = BitLayout("CCCCCC")
            elif layout.bits != "CCCCCC":
                raise ConfigError("EV requires the CCCCCC layout")
        elif kind == "PV":
            if layout is None:
                layout = BitLayout("VVVVVV")
            elif layout.bits != "VVVVVV":
                raise ConfigError("PV requires the VVVVVV layout")
            if horizon_days < 1:
                raise ConfigError("PV requires a revenue horizon of at least one day")
        elif kind in ("RR", "RI"):
            if layout is None:
                raise ConfigError(f"{kind} requires an explicit layout")
            low = "V" if kind == "RR" else "C"
            if layout.n_t < 1 or layout.bits != "T" * layout.n_t + low * (6 - layout.n_t):
                raise ConfigError(
                    f"{kind} layout must be a T prefix followed by {low} bits, got {layout.bits!r}"
                )
            if horizon_days != 2 ** layout.n_t - 1:
                raise ConfigError(
                    f"{kind} horizon must be 2**n_t - 1 = {2 ** layout.n_t - 1} "
                    f"for {layout.bits!r}, got {horizon_days}"
                )
        # UD ignores layout and boundaries entirely.
        return tuple.__new__(cls, (kind, layout, horizon_days, bucket_boundaries, seed))

    @property
    def n_value_bits(self) -> int:
        return self.layout.n_v if self.layout is not None else 0

    @property
    def label(self) -> str:
        if self.kind in ("EV", "UD"):
            return self.kind
        return f"D{self.horizon_days} {self.kind}"

    def needs_boundaries(self) -> bool:
        return self.kind in ("RR", "PV")


def schema_from_text(text: str) -> SchemaSpec:
    """Parse 'kind=RR;layout=TTTVVV;horizon=7[;seed=N]' into a SchemaSpec."""
    fields: dict[str, str] = {}
    for part in text.strip().split(";"):
        if not part:
            continue
        if "=" not in part:
            raise LayoutError(f"schema text part {part!r} is not key=value")
        k, v = part.split("=", 1)
        fields[k.strip().lower()] = v.strip()
    if "kind" not in fields:
        raise LayoutError(f"schema text {text!r} lacks kind=")
    kind = fields.pop("kind").upper()
    layout = parse_layout(fields.pop("layout")) if "layout" in fields else None
    try:
        horizon = int(fields.pop("horizon", "0"))
        seed = int(fields.pop("seed")) if "seed" in fields else None
    except ValueError as exc:
        raise LayoutError(f"schema text {text!r}: {exc}") from exc
    if fields:
        raise LayoutError(f"schema text has unknown keys {sorted(fields)}")
    return SchemaSpec(kind=kind, layout=layout, horizon_days=horizon, seed=seed)


def schema_to_text(schema: SchemaSpec) -> str:
    """Canonical text form of a schema (inverse of schema_from_text)."""
    parts = [f"kind={schema.kind}"]
    if schema.kind != "UD" and schema.layout is not None:
        parts.append(f"layout={schema.layout.bits}")
    if schema.horizon_days:
        parts.append(f"horizon={schema.horizon_days}")
    if schema.seed is not None:
        parts.append(f"seed={schema.seed}")
    return ";".join(parts)


def bucket_of(amount: int, boundaries: Sequence[int]) -> int:
    """Spender bucket for a revenue amount; 0 is reserved for non-spenders.

    A value strictly greater than boundary k lands in bucket k+1, so ties
    fall into the lower bucket.
    """
    if amount <= 0:
        return 0
    return 1 + bisect_left(boundaries, amount)


def fit_buckets(revenues: Iterable[int], schema: SchemaSpec) -> SchemaSpec:
    """Fit the V-bit bucket boundaries to the spender revenue distribution.

    Boundaries are the k/(2**b - 1) quantiles (k = 1 .. 2**b - 2) of the
    positive ``revenues`` (cents, one per user), so spenders spread
    uniformly over the 2**b - 1 non-zero buckets and non-spenders map to
    bucket 0.
    """
    b = schema.n_value_bits
    if b < 1:
        raise ConfigError(f"schema {schema.label} has no value bits to fit")
    spends = sorted(r for r in revenues if r > 0)
    if not spends:
        raise DegenerateFitError("no spenders in population; buckets cannot be fitted")
    m = 2**b - 1
    n = len(spends)
    boundaries = tuple(spends[-(-k * n // m) - 1] for k in range(1, m))
    return schema._replace(bucket_boundaries=boundaries)


def _require_boundaries(schema: SchemaSpec) -> tuple[int, ...]:
    if schema.bucket_boundaries is None:
        raise ConfigError(f"schema {schema.label} has no fitted bucket boundaries")
    return schema.bucket_boundaries


def fold_events(
    ids: Sequence[int],
    ordinals: Sequence[int],
    runs: Iterable[tuple[int, Sequence[tuple[int, str, int | None, int | None]]]],
    source: Path | None = None,
) -> list[tuple[tuple[int, int, int, int], ...]]:
    """The replay digest of each user in ``ids``, registered on date ``ordinals``.

    ``runs`` are ``(user id, events)``, each event ``(instant, kind,
    amount, flag_index)`` as a ``model.Event`` holds it. A user's events may
    come in more than one run, other users' runs between them; a run goes
    on from where the user's last one stopped. A digest has one
    (microseconds since registration midnight, purchase cents, purchase
    count, day-0 flag bits) entry per distinct instant. Defects are raised
    once every run is read, so after any error the runs raise: first the
    smallest user id whose first event precedes registration midnight or
    whose events go back in time, as a ``CsvFormatError`` naming
    ``source`` (a ``ConfigError`` without one); then the first user in
    ``ids`` with no event, or whose first event is not a session, as a
    ``ConfigError``.
    """
    digests: list[list[tuple[int, int, int, int]]] = [[] for _ in ids]
    slots, days = dict(zip(ids, digests)), dict(zip(ids, ordinals))
    if len(slots) != len(ids):
        raise ConfigError("a cohort lists some user id more than once")
    defects: dict[int, str] = {}  # each user's first order defect
    no_open: set[int] = set()
    session, purchase, day = SESSION, PURCHASE, US_PER_DAY  # locals, for speed
    for uid, events in runs:
        digest, start = slots[uid], days[uid] * day
        last, append = digest[-1][0] if digest else -1, digest.append
        if not digest and events and events[0][1] != session:
            no_open.add(uid)
        for us, kind, amount, flag_index in events:
            us -= start
            if us > last:
                last = us
                if kind == session:
                    append((us, 0, 0, 0))
                elif kind == purchase:
                    append((us, amount, 1, 0))
                else:  # a flag counts on day 0 only
                    append((us, 0, 0, 1 << flag_index if us < day else 0))
            elif us == last and digest:
                e = digest[-1]
                if kind == purchase:
                    digest[-1] = (us, e[1] + amount, e[2] + 1, e[3])
                elif kind == FLAG and us < day:
                    digest[-1] = (us, e[1], e[2], e[3] | 1 << flag_index)
            elif uid not in defects:
                defects[uid] = "event precedes registration" if not digest else (
                    f"events out of order at {us_to_datetime(us + start).isoformat()}"
                )
    if defects:
        message = f"user {min(defects)}: {defects[min(defects)]}"
        raise ConfigError(message) if source is None else CsvFormatError(f"{source}: {message}")
    for uid, digest in zip(ids, digests):
        if not digest or uid in no_open:
            raise ConfigError(f"user {uid} lacks a first-open session event")
    return list(map(tuple, digests))


def prepare_users(users: Iterable[UserRecord], organic_alpha: int | None = None) -> Cohort:
    """Digest a user list, each record's events one run of ``fold_events``, into its ``Cohort``.

    ``organic_alpha`` is the organic sentinel the records' dataset declares, if it has one.
    """
    users = tuple(users)
    ids = [u.id for u in users]
    ordinals = [u.registration_date.toordinal() for u in users]
    return Cohort(
        ids,
        ordinals,
        [u.group for u in users],
        [(u.origin.organic, u.origin.alpha) for u in users],
        fold_events(ids, ordinals, zip(ids, [u.events for u in users])),
        users,
        organic_alpha=organic_alpha,
    )


def simulate_traces(cohort: Cohort, schema: SchemaSpec) -> tuple[list[int], list[int]]:
    """Replay every cohort user's events through the platform update rules.

    Returns ``(values, last_commit_us)``, two lists in cohort order: the final
    values, and the last commits as microseconds since registration midnight.
    Simultaneous events are absorbed before the candidate is evaluated, so
    at most one commit happens per distinct instant, and a user's replay
    stops at the first instant more than 24h (in whole microseconds) after
    the previous commit: the value is final from there. UD and PV candidates
    do not change over time, so they are committed once at first open. A
    cohort read from a postback view holds no digests, and replaying it is
    a ``ConfigError``.
    """
    if cohort.digests is None:
        raise ConfigError("the cohort holds purchases only, read from a postback view; "
                          "its events cannot be replayed")
    kind = schema.kind
    if kind == "UD" and schema.seed is None:
        raise ConfigError("UD schema needs a seed")
    if kind in ("RR", "PV"):
        boundaries = _require_boundaries(schema)
    if kind in ("UD", "PV"):
        firsts = [groups[0][0] for groups in cohort.digests]
        if kind == "UD":
            return [uniform_value(schema.seed, "ud", uid) for uid in cohort.ids], firsts
        revenue = cohort.window_revenue(0, schema.horizon_days)
        values = [bucket_of(cents, boundaries) for cents in revenue]
        if max(values, default=0) >= VALUE_RANGE:
            raise ConfigError(f"conversion value {max(values)} out of range")
        return values, firsts
    rolling = kind in ("RR", "RI")
    if rolling:
        n_t = schema.layout.n_t
        n_low = 6 - n_t
        low_cap = 2**n_low - 1
        day_cap = min(schema.horizon_days, 2**n_t - 1)
        is_rr = kind == "RR"

    values: list[int] = []
    lasts: list[int] = []
    for groups in cohort.digests:
        last, revenue, purchases, value = groups[0]  # value: day-0 flag bits
        if rolling:
            low = bucket_of(revenue, boundaries) if is_rr else purchases
            if low > low_cap:
                low = low_cap
            day = last // US_PER_DAY
            value = ((day if day < day_cap else day_cap) << n_low) | low
            deadline = last + COMMIT_WINDOW_US
            for us, amount, n_purch, _ in groups[1:]:
                if us > deadline:
                    break
                if n_purch:
                    revenue += amount
                    purchases += n_purch
                    low = bucket_of(revenue, boundaries) if is_rr else purchases
                    if low > low_cap:
                        low = low_cap
                day = us // US_PER_DAY
                cand = ((day if day < day_cap else day_cap) << n_low) | low
                if cand > value:
                    value = cand
                    last = us
                    deadline = us + COMMIT_WINDOW_US
        else:  # EV
            for us, _, _, fbits in groups[1:]:
                # Flags count on day 0 only, so the candidate is final after
                # it; within day 0 every gap is under 24h.
                if us >= US_PER_DAY:
                    break
                if fbits | value != value:
                    value |= fbits
                    last = us
        values.append(value)
        lasts.append(last)
    return values, lasts
