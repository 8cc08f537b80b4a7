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
list of commits: per user it returns (final value, last-commit instant),
the instant as integer microseconds since registration midnight. Event
times are digested into the same integers by ``fold_event``, one event at
a time, for both builders of the ``model.Cohort`` that ``simulate_traces``
and every later pipeline step take: ``prepare_users`` per user list and
``io_files.load_cohort`` per dataset. So day indices (calendar-day offsets
from the registration date) and the 24h timer are exact integer
arithmetic, also for timestamps with sub-second parts. PV values and
fitted bucket boundaries read the cohort's window-revenue memo.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

from .errors import ConfigError, DegenerateFitError, LayoutError
from .model import FLAG, MICROSECOND, PURCHASE, SESSION, US_PER_DAY, Cohort, UserRecord
from .rng import uniform_value

SCHEMA_KINDS = ("EV", "RR", "RI", "UD", "PV")
VALUE_RANGE = 64  # 6 bits
COMMIT_WINDOW_US = US_PER_DAY


@dataclass(frozen=True, slots=True)
class BitLayout:
    """Six bit roles, most-significant first, from {T, V, C}.

    Time bits, when present, must form the most-significant prefix so that
    day increments always raise the value regardless of the low bits.
    """

    bits: str

    def __post_init__(self) -> None:
        if len(self.bits) != 6:
            raise LayoutError(f"layout must have exactly 6 bits, got {self.bits!r}")
        if any(ch not in "TVC" for ch in self.bits):
            raise LayoutError(f"layout characters must be T, V or C, got {self.bits!r}")
        n_t = self.bits.count("T")
        if n_t and self.bits[:n_t] != "T" * n_t:
            raise LayoutError(f"T bits must be a most-significant prefix, got {self.bits!r}")

    @property
    def n_t(self) -> int:
        return self.bits.count("T")

    @property
    def n_v(self) -> int:
        return self.bits.count("V")

    @property
    def n_c(self) -> int:
        return self.bits.count("C")

    def __str__(self) -> str:
        return self.bits


def parse_layout(spec: str) -> BitLayout:
    """Parse a layout string such as 'TTTVVV'."""
    if not isinstance(spec, str):
        raise LayoutError(f"layout must be a string, got {type(spec).__name__}")
    return BitLayout(spec.upper())


@dataclass(frozen=True)
class SchemaSpec:
    """A conversion-value schema: kind, bit layout, fitted boundaries.

    ``bucket_boundaries`` (cents, one per inter-bucket cut) apply to the V
    bits; bucket 0 is reserved for non-spenders. ``horizon_days`` is the day
    span of the T bits for RR/RI and the revenue horizon for PV. ``seed``
    drives the per-user draw for UD only.
    """

    kind: str
    layout: BitLayout | None = None
    horizon_days: int = 0
    bucket_boundaries: tuple[int, ...] | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in SCHEMA_KINDS:
            raise ConfigError(f"unknown schema kind {self.kind!r}")
        if self.bucket_boundaries is not None:
            bb = tuple(self.bucket_boundaries)
            object.__setattr__(self, "bucket_boundaries", bb)
            if any(b <= 0 for b in bb):
                raise ConfigError("bucket boundaries must be positive cents")
            if any(b2 < b1 for b1, b2 in zip(bb, bb[1:])):
                raise ConfigError("bucket boundaries must be ascending")
        if self.kind == "EV":
            if self.layout is None:
                object.__setattr__(self, "layout", BitLayout("CCCCCC"))
            elif self.layout.bits != "CCCCCC":
                raise ConfigError("EV requires the CCCCCC layout")
        elif self.kind == "PV":
            if self.layout is None:
                object.__setattr__(self, "layout", BitLayout("VVVVVV"))
            elif self.layout.bits != "VVVVVV":
                raise ConfigError("PV requires the VVVVVV layout")
            if self.horizon_days < 1:
                raise ConfigError("PV requires a revenue horizon of at least one day")
        elif self.kind in ("RR", "RI"):
            lay = self.layout
            if lay is None:
                raise ConfigError(f"{self.kind} requires an explicit layout")
            low = "V" if self.kind == "RR" else "C"
            if lay.n_t < 1 or lay.bits != "T" * lay.n_t + low * (6 - lay.n_t):
                raise ConfigError(
                    f"{self.kind} layout must be a T prefix followed by {low} bits, got {lay.bits!r}"
                )
            if self.horizon_days != 2 ** lay.n_t - 1:
                raise ConfigError(
                    f"{self.kind} horizon must be 2**n_t - 1 = {2 ** lay.n_t - 1} "
                    f"for {lay.bits!r}, got {self.horizon_days}"
                )
        # UD ignores layout and boundaries entirely.

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
    return replace(schema, bucket_boundaries=boundaries)


def _require_boundaries(schema: SchemaSpec) -> tuple[int, ...]:
    if schema.bucket_boundaries is None:
        raise ConfigError(f"schema {schema.label} has no fitted bucket boundaries")
    return schema.bucket_boundaries


def fold_event(
    digest: list, us: int, kind: str, amount: int | None, flag_index: int | None
) -> bool:
    """Fold one event, ``us`` microseconds after registration midnight, into a digest.

    A digest has one entry per distinct instant: (microseconds since
    registration midnight, purchase cents, purchase count, day-0 flag bits)
    summed over the events at that instant. Returns False, leaving the
    digest as it was, for an event that cannot come next: a first event
    that is not a session at or after midnight, or one earlier than the
    entry before it.
    """
    if kind == PURCHASE:
        cents, n_purch, flags = amount, 1, 0
    elif kind == FLAG and us < US_PER_DAY:
        cents, n_purch, flags = 0, 0, 1 << flag_index
    else:
        cents = n_purch = flags = 0
    if digest:
        last = digest[-1]
        if us > last[0]:
            digest.append((us, cents, n_purch, flags))
        elif us == last[0]:
            digest[-1] = (us, last[1] + cents, last[2] + n_purch, last[3] | flags)
        else:
            return False
    elif kind == SESSION and us >= 0:
        digest.append((us, cents, n_purch, flags))
    else:
        return False
    return True


def prepare_user(user: UserRecord) -> tuple[tuple[int, int, int, int], ...]:
    """One user's event digest, each event folded in by ``fold_event``.

    ``UserRecord`` keeps the events in order from registration midnight on,
    so the fold refuses only a first event that is not a session.
    """
    start = user.registration_instant
    digest: list[tuple[int, int, int, int]] = []
    for e in user.events:
        us = (e.timestamp - start) // MICROSECOND
        if not fold_event(digest, us, e.kind, e.amount, e.flag_index):
            break
    else:
        if digest:
            return tuple(digest)
    raise ConfigError(f"user {user.id} lacks a first-open session event")


def prepare_users(users: Iterable[UserRecord]) -> Cohort:
    """Digest a user list into the ``Cohort`` every schema run over it takes.

    ``io_files.load_cohort`` builds the same cohort straight from the
    dataset CSVs, with the same ``fold_event``.
    """
    users = tuple(users)
    return Cohort(
        [u.id for u in users],
        [u.registration_date.toordinal() for u in users],
        [u.group for u in users],
        [(u.origin.organic, u.origin.alpha) for u in users],
        [prepare_user(u) for u in users],
        users,
    )


def simulate_traces(cohort: Cohort, schema: SchemaSpec) -> dict[int, tuple[int, int]]:
    """Replay every cohort user's events through the platform update rules.

    Returns ``{user_id: (final value, last-commit microseconds since
    registration midnight)}`` in cohort order. Simultaneous events are
    absorbed before the candidate is evaluated, so at most one commit
    happens per distinct instant, and a user's replay stops at the first
    instant more than 24h (in whole microseconds) after the previous
    commit: the value is final from there. UD and PV candidates do not
    change over time, so they are committed once at first open.
    """
    kind = schema.kind
    if kind == "UD" and schema.seed is None:
        raise ConfigError("UD schema needs a seed")
    if kind in ("RR", "PV"):
        boundaries = _require_boundaries(schema)
    out: dict[int, tuple[int, int]] = {}
    if kind == "UD":
        for uid, groups in zip(cohort.ids, cohort.digests):
            out[uid] = (uniform_value(schema.seed, "ud", uid), groups[0][0])
        return out
    if kind == "PV":
        revenue = cohort.window_revenue(0, schema.horizon_days)
        for uid, groups, cents in zip(cohort.ids, cohort.digests, revenue):
            value = bucket_of(cents, boundaries)
            if value >= VALUE_RANGE:
                raise ConfigError(f"conversion value {value} out of range")
            out[uid] = (value, groups[0][0])
        return out
    rolling = kind in ("RR", "RI")
    if rolling:
        n_t = schema.layout.n_t
        n_low = 6 - n_t
        low_cap = 2**n_low - 1
        day_cap = min(schema.horizon_days, 2**n_t - 1)
        is_rr = kind == "RR"

    for uid, groups in zip(cohort.ids, cohort.digests):
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
        out[uid] = (value, last)
    return out
