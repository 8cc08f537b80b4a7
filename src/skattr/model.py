"""Core domain types: campaign keys, users, events, ground truth.

Money is integer USD cents everywhere. Revenue windows are half-open in
whole days from the registration date: a purchase exactly ``t`` days after
registration midnight falls outside ``[0, t)``. Weeks are ISO year-weeks
(Monday start), memoised per date because a cohort spans a few hundred
dates. All types are immutable after construction; operations are pure
functions. Each user's purchases are digested on first use into
``UserRecord.purchases``, (day offset, cents) pairs, so window revenue
walks only purchases and a user without any costs one empty loop however
many schemas and windows ask for it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from datetime import date, datetime, time
from functools import cached_property, lru_cache

from .errors import ConfigError, InvalidCampaignError, OrganicKeyError

SECONDS_PER_DAY = 86_400

SESSION = "session"
PURCHASE = "purchase"
FLAG = "flag"
EVENT_KINDS = (SESSION, PURCHASE, FLAG)


@dataclass(frozen=True, slots=True, order=True)
class CampaignKey:
    """Combined network/campaign id, or the organic sentinel.

    Paid keys satisfy ``alpha = 100 * network + campaign`` with the campaign
    part restricted to [0, 99]. The organic sentinel is a distinct key that
    decodes to neither a network nor a campaign.
    """

    alpha: int
    organic: bool = False

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise InvalidCampaignError(f"alpha must be >= 0, got {self.alpha}")

    @property
    def network(self) -> int:
        if self.organic:
            raise OrganicKeyError("organic key has no network id")
        return self.alpha // 100

    @property
    def campaign(self) -> int:
        if self.organic:
            raise OrganicKeyError("organic key has no campaign id")
        return self.alpha % 100

    def __str__(self) -> str:
        return f"{self.alpha}*" if self.organic else str(self.alpha)


def encode_alpha(network: int, campaign: int) -> CampaignKey:
    """Combine a network id and a campaign id into one key.

    Each network carries at most 100 campaigns, so the campaign part must
    lie in [0, 99].
    """
    if not 0 <= campaign <= 99:
        raise InvalidCampaignError(f"campaign id must be in [0, 99], got {campaign}")
    if network < 0:
        raise InvalidCampaignError(f"network id must be >= 0, got {network}")
    return CampaignKey(100 * network + campaign)


def decode_alpha(key: CampaignKey | int) -> tuple[int, int]:
    """Split a combined key back into (network, campaign)."""
    if isinstance(key, int):
        key = CampaignKey(key)
    return key.network, key.campaign


def organic_key(alpha: int) -> CampaignKey:
    """Build the organic sentinel key with the given numeric encoding."""
    return CampaignKey(alpha, organic=True)


@dataclass(frozen=True, slots=True)
class Event:
    """One user event: a session, a purchase (amount in cents), or a flag."""

    timestamp: datetime
    kind: str
    amount: int | None = None
    flag_index: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ConfigError(f"unknown event kind {self.kind!r}")
        if self.kind == PURCHASE:
            if self.amount is None or self.amount <= 0:
                raise ConfigError("purchase amount must be a positive cent count")
            if self.flag_index is not None:
                raise ConfigError("purchase events carry no flag_index")
        elif self.kind == FLAG:
            if self.flag_index is None or not 0 <= self.flag_index <= 5:
                raise ConfigError("flag_index must be in [0, 5]")
            if self.amount is not None:
                raise ConfigError("flag events carry no amount")
        else:
            if self.amount is not None or self.flag_index is not None:
                raise ConfigError("session events carry no amount or flag_index")


@dataclass(frozen=True)
class UserRecord:
    """One user: registration date, true origin, event stream, group label.

    Events must be non-decreasing in time and start no earlier than
    registration midnight. Origin is unique per user (last-click semantics).
    """

    id: int
    registration_date: date
    origin: CampaignKey
    events: tuple[Event, ...]
    group: str

    def __post_init__(self) -> None:
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))
        start = self.registration_instant
        prev = start
        for e in self.events:
            if e.timestamp < prev:
                raise ConfigError(
                    f"user {self.id}: events out of order at {e.timestamp.isoformat()}"
                )
            prev = e.timestamp
        if self.events and self.events[0].timestamp < start:
            raise ConfigError(f"user {self.id}: event precedes registration")

    @property
    def registration_instant(self) -> datetime:
        return datetime.combine(self.registration_date, time.min)

    @cached_property
    def purchases(self) -> tuple[tuple[int, int], ...]:
        """(day offset, cents) of each purchase in event order, built on first use."""
        reg = self.registration_date
        return tuple(
            ((e.timestamp.date() - reg).days, e.amount) for e in self.events if e.kind == PURCHASE
        )


def revenue_between(user: UserRecord, lo_day: int, hi_day: int) -> int:
    """Purchase cents with day offset in [lo_day, hi_day)."""
    if lo_day < 0 or hi_day < lo_day:
        raise ConfigError(f"invalid revenue window [{lo_day}, {hi_day})")
    total = 0
    for day, cents in user.purchases:
        if day >= hi_day:
            break
        if day >= lo_day:
            total += cents
    return total


def cumulative_revenue(user: UserRecord, t: int) -> int:
    """Revenue in the user's first ``t`` days (cents); 0 for no purchases."""
    if t < 0:
        raise ConfigError(f"window days must be >= 0, got {t}")
    return revenue_between(user, 0, t)


@lru_cache(maxsize=4096)
def iso_week(d: date) -> str:
    """ISO year-week key, Monday start, e.g. '2024-W05'."""
    y, w, _ = d.isocalendar()
    return f"{y:04d}-W{w:02d}"


def ground_truth(
    users: Iterable[UserRecord], weeks: Mapping[int, str], lo_day: int, hi_day: int
) -> dict[str, dict[CampaignKey, int]]:
    """Last-click revenue in ``[lo_day, hi_day)`` per (reporting week, true origin).

    ``weeks`` maps a user id to the week the user is reported in; users
    without a week are not counted. ``metrics.truth_by_week`` takes the
    weeks from postbacks and is what the grid and the CLI call.
    """
    out: dict[str, dict[CampaignKey, int]] = {}
    for u in users:
        week = weeks.get(u.id)
        if week is None:
            continue
        bucket = out.setdefault(week, {})
        bucket[u.origin] = bucket.get(u.origin, 0) + revenue_between(u, lo_day, hi_day)
    return out


def usd(cents: int | float) -> str:
    """Render integer cents as a USD decimal string."""
    c = round(cents)
    sign = "-" if c < 0 else ""
    c = abs(c)
    return f"{sign}{c // 100}.{c % 100:02d}"
