"""Seeded synthetic free-to-play cohorts with known last-click origins.

The generator is an explicit modeling choice standing in for confidential
production data, built on standard free-to-play stylized facts: the vast
majority of users never spend; spenders retain far longer than free users;
purchases are rare on the install day and ramp up as the game proves
itself; per-purchase spend is log-normal with a persistent per-user scale
(light spenders vs whales) and drifts up with tenure; day-0 actions (flags)
correlate with spending propensity; campaign quality varies.

Timeline model per user: registration is uniform over the cohort window; a
lifetime is drawn geometrically (daily continuation probability, higher for
spenders); on each alive day the user plays with the activity rate, with a
habitual fixed-time check-in plus extra sessions later in the day; spender
purchases land near the day's last session; flags fire on day 0 only. Every
draw comes from a per-user substream derived from the seed and the user id,
so generation is order-independent and a seed pins the dataset byte for
byte.

Times are drawn as integer seconds since registration midnight. A user's
events are sorted once, as integer keys, and each ``Event`` is built in
final order with its instant on the model's integer clock
(``model.Event.us``); no ``datetime`` is made per event. An ``Event`` is a
plain named tuple, the row ``save_events`` writes less the user id. Each
is built by ``tuple.__new__(Event, row)``, which is all the named tuple's
generated ``__new__`` does, without that Python frame; the ``UserRecord``
built from a user's events checks each of them once.
``tests/oracles.py`` keeps a generator that builds every event from a
``datetime`` and draws with ``randrange``, and checks that both make the
same users. Segments and groups are drawn by one weighted pick, ``_pick``.

Every integer draw in [0, n) is ``getrandbits(k)`` with k = n.bit_length(),
drawn again while it is n or more (``_below``, written out in the
per-session loop). That is the rejection loop CPython's ``randrange`` runs
(``Random._randbelow_with_getrandbits``), so the draws, and the generator
state after each, are ``randrange``'s, without its pure-Python frames.
Values that depend only on the config (origin segments, registration
dates) are computed once per dataset (``_tables``). How users behave is
fixed, not configured: ``MODEL`` is the only source of its values.
"""

from __future__ import annotations

import math
from datetime import date, timedelta
from typing import NamedTuple, TypeVar

from .errors import ConfigError
from .model import (
    FLAG,
    PURCHASE,
    SESSION,
    US_PER_DAY,
    CampaignKey,
    Event,
    UserRecord,
    encode_alpha,
    organic_key,
    remake,
)
from .rng import substream

T = TypeVar("T")

DEFAULT_GROUPS = (("US", 0.5), ("ROW", 0.5))

# The behaviour model. Retention and activity are per alive day, the habit
# check-in and a spender's purchase per played day; money is in log-cents.
MODEL = {
    "retention_continue": 0.72,
    "spender_retention_continue": 0.985,
    "activity_rate": 0.92,
    "habit_prob": 0.88,
    "max_sessions_per_day": 3,
    "purchase_prob": 0.30,
    "purchase_day0_prob": 0.08,
    "amount_mu": 5.8,
    "amount_sigma": 0.7,
    "whale_sigma": 0.6,
    "tenure_amount_slope": 0.012,
    "flag_probs": (0.55, 0.30, 0.16, 0.08, 0.04, 0.02),
    "flag_spender_boost": 2.0,
    "campaign_quality_sigma": 0.4,
}


class _GenConfigFields(NamedTuple):
    n_users: int = 50_000
    n_networks: int = 2
    campaigns_per_network: int = 5
    organic_share: float = 0.30
    spender_rate: float = 0.05
    n_weeks: int = 12
    event_horizon_days: int = 90
    start_date: date = date(2024, 1, 1)
    groups: tuple[tuple[str, float], ...] = DEFAULT_GROUPS
    organic_alpha: int | None = None
    seed: int = 0


class GenConfig(_GenConfigFields):
    """What the synthetic cohort generator makes: its users, origins, groups and days.

    ``organic_share`` and ``spender_rate`` are in [0, 1]. The cohort window
    spans ``n_weeks`` ISO weeks starting at ``start_date`` (must be a
    Monday); events are generated through ``event_horizon_days`` per user
    so long revenue windows stay observable. How users behave is fixed
    (``MODEL``).
    """

    __slots__ = ()
    _make = classmethod(remake)

    def __new__(cls, *args, **kwargs) -> GenConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.n_users < 1:
            raise ConfigError("n_users must be at least 1")
        if self.n_networks < 1 or not 1 <= self.campaigns_per_network <= 100:
            raise ConfigError("need >= 1 network and 1..100 campaigns per network")
        for name in ("organic_share", "spender_rate"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")
        if self.n_weeks < 1:
            raise ConfigError("n_weeks must be at least 1")
        if self.event_horizon_days < 1:
            raise ConfigError("event_horizon_days must be at least 1")
        if self.start_date.isoweekday() != 1:
            raise ConfigError("start_date must be a Monday (weeks start Monday)")
        # The last registration day plus the last event day of its user.
        last_day = self.start_date.toordinal() + 7 * self.n_weeks + self.event_horizon_days - 2
        if last_day > date.max.toordinal():
            raise ConfigError(
                f"start_date {self.start_date}, n_weeks {self.n_weeks} and event_horizon_days "
                f"{self.event_horizon_days} put events after {date.max}"
            )
        max_paid = 100 * (self.n_networks - 1) + self.campaigns_per_network - 1
        if self.organic_alpha is not None and self.organic_alpha <= max_paid:
            # The users file refuses any alpha above the organic sentinel.
            raise ConfigError(
                f"organic_alpha must exceed every paid alpha, the largest being {max_paid}, "
                f"got {self.organic_alpha}"
            )
        seen: set[str] = set()
        for label, weight in self.groups:
            # The dataset reader refuses an empty group label, and a
            # repeated label would merge two groups' users in every file.
            if not label:
                raise ConfigError(f"group {label!r}: label must be non-empty")
            if label in seen:
                raise ConfigError(f"group {label!r}: label listed twice")
            seen.add(label)
            if not 0.0 <= weight <= 1.0:
                raise ConfigError(f"group {label!r}: weight must be in [0, 1], got {weight}")
        if not self.groups or abs(sum(w for _, w in self.groups) - 1.0) > 1e-9:
            raise ConfigError("group weights must sum to 1")
        return self

    @property
    def campaigns(self) -> tuple[CampaignKey, ...]:
        return tuple(
            encode_alpha(n, c)
            for n in range(self.n_networks)
            for c in range(self.campaigns_per_network)
        )

    @property
    def organic(self) -> CampaignKey:
        if self.organic_alpha is not None:
            return organic_key(self.organic_alpha)
        # Default sentinel: one past the largest paid alpha.
        return organic_key(100 * (self.n_networks - 1) + self.campaigns_per_network)


class _Segment(NamedTuple):
    """One origin segment: its quality multipliers."""

    key: CampaignKey
    spender_mult: float
    amount_shift: float


def _segments(cfg: GenConfig) -> tuple[tuple[_Segment, float], ...]:
    """Origin segments with seeded quality multipliers, each with its draw weight.

    Multipliers are log-normal and then rescaled so the expected global
    spender rate equals ``spender_rate`` exactly, keeping the headline rate
    a real parameter instead of a noisy byproduct.
    """
    rng = substream(cfg.seed, "campaigns")
    keys = list(cfg.campaigns) + [cfg.organic]
    paid_w = (1.0 - cfg.organic_share) / len(cfg.campaigns)
    weights = [paid_w] * len(cfg.campaigns) + [cfg.organic_share]
    sigma = MODEL["campaign_quality_sigma"]
    raw = [math.exp(rng.gauss(0.0, sigma)) for _ in keys]
    shifts = [rng.gauss(0.0, 0.5 * sigma) for _ in keys]
    mean_mult = sum(w * m for w, m in zip(weights, raw))
    scale = 1.0 / mean_mult if mean_mult > 0 else 1.0
    return tuple(
        (_Segment(key=k, spender_mult=m * scale, amount_shift=s), w)
        for k, w, m, s in zip(keys, weights, raw, shifts)
    )


def _pick(choices: tuple[tuple[T, float], ...], x: float) -> T:
    """The first choice whose cumulative weight, summed in order, exceeds ``x``; else the last."""
    acc = 0.0
    for choice, weight in choices:
        acc += weight
        if x < acc:
            return choice
    return choices[-1][0]


# Draw ranges that do not depend on the config: the habitual check-in
# second (08:00 to 22:00), a purchase's delay after the day's last session
# (60 s to 30 min) and the count of extra sessions, each with its bit width
# for ``_below``.
_HABIT_FIRST, _HABIT_SPAN = 28_800, 79_200 - 28_800
_HABIT_BITS = _HABIT_SPAN.bit_length()
_BUY_DELAY_FIRST, _BUY_DELAY_SPAN = 60, 1_800 - 60
_BUY_DELAY_BITS = _BUY_DELAY_SPAN.bit_length()
_SESSION_BITS = MODEL["max_sessions_per_day"].bit_length()
# Purchase probability by tenure day 0, 1, 2 and 3, then constant: players
# buy once the game has proven itself, rarely on the install day.
_BUY_PROBS = tuple(
    MODEL["purchase_day0_prob"]
    + (MODEL["purchase_prob"] - MODEL["purchase_day0_prob"]) * (min(1.0, d / 3) if d else 0.0)
    for d in range(4)
)
# Per-flag firing thresholds ``min(1, p * boost)``, by spender (1) or not (0).
_FLAG_THRESHOLDS = tuple(
    tuple(min(1.0, p * boost) for p in MODEL["flag_probs"])
    for boost in (1.0, MODEL["flag_spender_boost"])
)


def _below(getrandbits, n: int, k: int) -> int:
    """A uniform integer in [0, n), drawn as ``Random.randrange(n)`` draws it.

    ``k`` must be ``n.bit_length()``. The rule is the rejection loop of
    CPython's ``Random._randbelow_with_getrandbits``, which ``randrange(n)``
    runs for n >= 1 (``randrange(a, b)`` is ``a + _randbelow(b - a)``), so
    the value and the generator state after it are ``randrange``'s.
    """
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class _Tables(NamedTuple):
    """What each user's draws need that depends only on the config."""

    segments: tuple[tuple[_Segment, float], ...]  # with their draw weights
    # Registration day -> (date, midnight in microseconds), and the bit
    # width of the day draw.
    registrations: tuple[tuple[date, int], ...]
    registration_bits: int


def _tables(cfg: GenConfig) -> _Tables:
    n_days = cfg.n_weeks * 7
    dates = [cfg.start_date + timedelta(days=d) for d in range(n_days)]
    return _Tables(
        segments=_segments(cfg),
        registrations=tuple((d, d.toordinal() * US_PER_DAY) for d in dates),
        registration_bits=n_days.bit_length(),
    )


def _generate_user(cfg: GenConfig, tables: _Tables, uid: int) -> UserRecord:
    rng = substream(cfg.seed, "user", uid)
    random = rng.random
    getrandbits = rng.getrandbits
    seg = _pick(tables.segments, random())
    group = _pick(cfg.groups, random())
    registrations = tables.registrations
    reg_date, midnight = registrations[
        _below(getrandbits, len(registrations), tables.registration_bits)
    ]

    spender = random() < min(1.0, cfg.spender_rate * seg.spender_mult)
    whale_shift = rng.gauss(0.0, MODEL["whale_sigma"]) if spender else 0.0
    mu = MODEL["amount_mu"] + seg.amount_shift + whale_shift

    # Lifetime: day 0 always; continue each following day geometrically.
    # Spenders retain much longer than free users, the core stylized fact
    # that concentrates late revenue in few long-lived payers.
    continue_p = MODEL["spender_retention_continue" if spender else "retention_continue"]
    last_day = cfg.event_horizon_days - 1
    lifetime = 0
    while lifetime < last_day and random() < continue_p:
        lifetime += 1

    # Habitual daily check-in at a fixed per-user second: routine play is
    # what keeps the strict 24h update chain alive across days (a gap of
    # exactly 24h still commits). The first open happens at that hour and
    # later sessions never precede it within a day, so the commit anchor
    # does not drift earlier over time.
    habit_sec = _HABIT_FIRST + _below(getrandbits, _HABIT_SPAN, _HABIT_BITS)
    # Extra sessions fall in [habit_sec, 86_400) of their day.
    span = 86_400 - habit_sec
    span_bits = span.bit_length()
    max_extra, extra_bits = MODEL["max_sessions_per_day"], _SESSION_BITS
    activity_rate, habit_prob = MODEL["activity_rate"], MODEL["habit_prob"]

    # Each event is drawn as one integer, second * 8 + rank, with rank 0
    # for a session, 1 for a purchase and 2 + i for flag i. Sorting these
    # keys orders events by second, then sessions before purchases before
    # flags. No two purchases (one a day at most) or flags share a second,
    # so a purchase's cents are taken in drawing order.
    keys: list[int] = []
    amounts: list[int] = []
    for d in range(lifetime + 1):
        # Day 0 is always played; later alive days at the activity rate.
        if d and random() >= activity_rate:
            continue
        day = d * 86_400
        first = day + habit_sec
        # The session draws are ``_below`` written out: they are most of
        # the generator's draws.
        n = getrandbits(extra_bits)
        while n >= max_extra:
            n = getrandbits(extra_bits)
        sessions = []  # the day's session keys
        for _ in range(n):
            r = getrandbits(span_bits)
            while r >= span:
                r = getrandbits(span_bits)
            sessions.append((first + r) << 3)
        if d == 0 or random() < habit_prob:
            sessions.append(first << 3)
        elif not sessions:
            sessions.append((first + _below(getrandbits, span, span_bits)) << 3)
        keys += sessions
        if spender and random() < _BUY_PROBS[d if d < 3 else 3]:
            # Purchases land near the day's last session; spend per
            # purchase drifts up with tenure as players progress.
            delay = _BUY_DELAY_FIRST + _below(getrandbits, _BUY_DELAY_SPAN, _BUY_DELAY_BITS)
            buy_sec = min((max(sessions) >> 3) + delay, day + 86_399)
            mu_d = mu + MODEL["tenure_amount_slope"] * d
            amounts.append(max(1, round(math.exp(rng.gauss(mu_d, MODEL["amount_sigma"])))))
            keys.append(buy_sec << 3 | 1)
    for i, threshold in enumerate(_FLAG_THRESHOLDS[spender]):
        if random() < threshold:
            keys.append(min(habit_sec + 30 * (i + 1), 86_399) << 3 | 2 + i)

    # The first-open session always sorts first: nothing is generated before
    # the earliest day-0 session second.
    keys.sort()
    cents = iter(amounts)
    events = []
    # ``Event(*row)`` without its Python frame; ``UserRecord`` checks each event.
    new = tuple.__new__
    for key in keys:
        us = midnight + (key >> 3) * 1_000_000
        rank = key & 7
        if rank == 0:
            events.append(new(Event, (us, SESSION, None, None)))
        elif rank == 1:
            events.append(new(Event, (us, PURCHASE, next(cents), None)))
        else:
            events.append(new(Event, (us, FLAG, None, rank - 2)))

    return UserRecord(
        id=uid,
        registration_date=reg_date,
        origin=seg.key,
        events=tuple(events),
        group=group,
    )


def generate_dataset(cfg: GenConfig) -> tuple[list[UserRecord], dict]:
    """Generate the cohort and provenance metadata, reproducible from seed."""
    tables = _tables(cfg)
    users = [_generate_user(cfg, tables, uid) for uid in range(cfg.n_users)]
    meta = {
        "generator": "skattr.synthgen",
        "seed": cfg.seed,
        "n_users": cfg.n_users,
        "organic_alpha": cfg.organic.alpha,
        "campaigns": [k.alpha for k in cfg.campaigns],
        "groups": [g for g, _ in cfg.groups],
        "start_date": cfg.start_date.isoformat(),
        "n_weeks": cfg.n_weeks,
        "event_horizon_days": cfg.event_horizon_days,
        "substreams": ["campaigns", "user"],
    }
    return users, meta
