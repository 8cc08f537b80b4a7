"""Core domain types: campaign keys, users, events, cohorts, ground truth.

Money is integer USD cents everywhere. Revenue windows are half-open in
whole days from the registration date: a purchase exactly ``t`` days after
registration midnight falls outside ``[0, t)``. Weeks are ISO year-weeks
(Monday start). Campaign keys, users and events are immutable after
construction. ``check_event`` is the rule on an event's kind and fields,
kept by ``Event`` and by the dataset reader. Each user's purchases are
digested on first use into ``UserRecord.purchases``, (day offset, cents)
pairs, so window revenue walks only purchases.

A ``Cohort`` is the one handle the pipeline takes for a user list. It is
built from columns in cohort order (ids, registration date ordinals, group
labels, ``(organic, alpha)`` origins and the replay digests), either by
``schema.prepare_users`` from ``UserRecord``s or by ``io_files.load_cohort``
straight from the dataset CSVs, both folding each event in with
``schema.fold_event``, and holds the schema-independent facts as
plain integer lists: registration midnight in microseconds (date ordinal x
``US_PER_DAY``), group index and origin column. It fixes the count-matrix
columns (paid campaigns by alpha, then the organic key) and memoises, on
first use, window revenue per ``[lo, hi)``, postback delay per seed and each
schema's simulation. Window revenue reads each user's (day offset, cents)
purchase pairs, taken once from the digests' purchase entries. Every schema
simulated over the cohort reads these instead of recomputing them per user.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import ConfigError, InvalidCampaignError, OrganicKeyError

if TYPE_CHECKING:
    from .pipeline import SimArtifacts
    from .postback import PostbackTable

SECONDS_PER_DAY = 86_400
US_PER_DAY = SECONDS_PER_DAY * 1_000_000
US_PER_WEEK = 7 * US_PER_DAY
MICROSECOND = timedelta(microseconds=1)

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
        check_event(self.kind, self.amount, self.flag_index)


def check_event(kind: str, amount: int | None, flag_index: int | None) -> None:
    """Raise ``ConfigError`` unless ``kind`` carries exactly the fields it needs.

    A session carries neither field, a purchase a positive cent ``amount``
    and a flag a ``flag_index`` in [0, 5].
    """
    if kind == SESSION:
        if amount is not None or flag_index is not None:
            raise ConfigError("session events carry no amount or flag_index")
    elif kind == PURCHASE:
        if amount is None or amount <= 0:
            raise ConfigError("purchase amount must be a positive cent count")
        if flag_index is not None:
            raise ConfigError("purchase events carry no flag_index")
    elif kind == FLAG:
        if flag_index is None or not 0 <= flag_index <= 5:
            raise ConfigError("flag_index must be in [0, 5]")
        if amount is not None:
            raise ConfigError("flag events carry no amount")
    else:
        raise ConfigError(f"unknown event kind {kind!r}")


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
        if not self.events:
            return
        prev = self.events[0].timestamp
        if prev < self.registration_instant:
            raise ConfigError(f"user {self.id}: event precedes registration")
        for e in self.events:
            if e.timestamp < prev:
                raise ConfigError(
                    f"user {self.id}: events out of order at {e.timestamp.isoformat()}"
                )
            prev = e.timestamp

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


def revenue_between(purchases: Iterable[tuple[int, int]], lo_day: int, hi_day: int) -> int:
    """Cents of the (day offset, cents) pairs with day in [lo_day, hi_day).

    ``purchases`` are in day order, as ``UserRecord.purchases`` and
    ``Cohort.purchases`` hold them.
    """
    if lo_day < 0 or hi_day < lo_day:
        raise ConfigError(f"invalid revenue window [{lo_day}, {hi_day})")
    total = 0
    for day, cents in purchases:
        if day >= hi_day:
            break
        if day >= lo_day:
            total += cents
    return total


def cumulative_revenue(user: UserRecord, t: int) -> int:
    """Revenue in the user's first ``t`` days (cents); 0 for no purchases."""
    if t < 0:
        raise ConfigError(f"window days must be >= 0, got {t}")
    return revenue_between(user.purchases, 0, t)


def iso_week(d: date) -> str:
    """ISO year-week key, Monday start, e.g. '2024-W05'."""
    y, w, _ = d.isocalendar()
    return f"{y:04d}-W{w:02d}"


class Cohort:
    """Schema-independent facts of one user list, as lists in cohort order.

    The columns are one entry per user: ``ids``, registration date
    ``ordinals``, ``groups`` (labels), ``origins`` as ``(organic, alpha)``
    and ``digests``, the replay kernel's per-user event digests (see
    ``schema.fold_event``). ``users`` are the records the columns were
    taken from, when ``schema.prepare_users`` built the cohort, and None
    when ``io_files.load_cohort`` read it from files.

    ``origins`` becomes the count-matrix columns: the paid ``campaigns``
    sorted by alpha, then the ``organic`` key; ``column[i]`` indexes the
    origin of user ``i``. The organic key is the sentinel the organic users
    carry, or one past the largest paid alpha when there are none; a list
    mixing two sentinels is a ``ConfigError``. ``delays`` (seed -> delivery
    delay in microseconds per user) is filled by
    ``pipeline.simulate_postbacks`` on first use, and ``simulations``
    ((input schema, seed) -> ``pipeline.SimArtifacts``) by the metrics
    layer, so every schema and call over the cohort shares them.
    """

    def __init__(
        self,
        ids: Sequence[int],
        ordinals: Sequence[int],
        groups: Sequence[str],
        origins: Sequence[tuple[bool, int]],
        digests: Sequence[tuple[tuple[int, int, int, int], ...]],
        users: tuple[UserRecord, ...] | None = None,
    ) -> None:
        self.ids = list(ids)
        if not len(self.ids) == len(ordinals) == len(groups) == len(origins) == len(digests):
            raise ConfigError("cohort columns differ in length")
        if len(set(self.ids)) != len(self.ids):
            raise ConfigError("a cohort lists some user id more than once")
        self.users = users
        self.digests = digests
        self.midnight_us = [day * US_PER_DAY for day in ordinals]
        self.group_labels = tuple(sorted(set(groups)))
        group_index = {g: i for i, g in enumerate(self.group_labels)}
        self.group = [group_index[g] for g in groups]
        # Keyed by (organic, alpha) rather than by the key itself: the
        # dataclass hash runs in Python, once per user and lookup.
        distinct = set(origins)
        paid = sorted(alpha for organic, alpha in distinct if not organic)
        sentinels = sorted(alpha for organic, alpha in distinct if organic)
        if len(sentinels) > 1:
            raise ConfigError(f"dataset mixes organic sentinels: {sentinels}")
        self.campaigns = tuple(CampaignKey(alpha) for alpha in paid)
        self.organic = organic_key(sentinels[0] if sentinels else max(paid, default=-1) + 1)
        self.origins = self.campaigns + (self.organic,)
        column = {(False, alpha): j for j, alpha in enumerate(paid)}
        column[(True, self.organic.alpha)] = len(paid)
        self.column = [column[o] for o in origins]
        self.delays: dict[int, list[int]] = {}
        self.simulations: dict[tuple, SimArtifacts] = {}
        self._revenue: dict[tuple[int, int], list[int]] = {}

    @cached_property
    def purchases(self) -> list[tuple[tuple[int, int], ...]]:
        """Each user's (day offset, cents) purchase pairs, from the digests' purchase entries."""
        return [
            tuple((us // US_PER_DAY, cents) for us, cents, n_purch, _ in digest if n_purch)
            for digest in self.digests
        ]

    def window_revenue(self, lo_day: int, hi_day: int) -> list[int]:
        """Each user's purchase cents in ``[lo_day, hi_day)``, computed once per window."""
        key = (lo_day, hi_day)
        out = self._revenue.get(key)
        if out is None:
            out = self._revenue[key] = [
                revenue_between(pairs, lo_day, hi_day) for pairs in self.purchases
            ]
        return out


def ground_truth(
    postbacks: PostbackTable, lo_day: int, hi_day: int
) -> dict[str, dict[CampaignKey, int]]:
    """Last-click revenue in ``[lo_day, hi_day)`` per (postback week, true origin).

    Sums over groups; users without a postback are not counted. An origin
    with a postback in a week has an entry there even at zero revenue.
    """
    cohort = postbacks.cohort
    width = len(cohort.origins)
    acc: dict[int, int] = {}
    for cell, j, cents in zip(
        postbacks.cells, cohort.column, cohort.window_revenue(lo_day, hi_day)
    ):
        if cell >= 0:
            k = cell * width + j
            acc[k] = acc.get(k, 0) + cents
    out: dict[str, dict[CampaignKey, int]] = {}
    for k, cents in acc.items():
        cell, j = divmod(k, width)
        bucket = out.setdefault(postbacks.cell_keys[cell][1], {})
        origin = cohort.origins[j]
        bucket[origin] = bucket.get(origin, 0) + cents
    return out


def usd(cents: int | float) -> str:
    """Render integer cents as a USD decimal string."""
    c = round(cents)
    sign = "-" if c < 0 else ""
    c = abs(c)
    return f"{sign}{c // 100}.{c % 100:02d}"
