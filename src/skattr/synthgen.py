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
(``model.Event.us``); no ``datetime`` is made per event. ``tests/oracles.py``
keeps a generator that builds every event from a ``datetime`` and checks
that both make the same users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta

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
)
from .rng import substream

DEFAULT_FLAG_PROBS = (0.55, 0.30, 0.16, 0.08, 0.04, 0.02)
DEFAULT_GROUPS = (("US", 0.5), ("ROW", 0.5))


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the synthetic cohort generator.

    Probabilities are in [0, 1]; money parameters are in log-cents. The
    cohort window spans ``n_weeks`` ISO weeks starting at ``start_date``
    (must be a Monday); events are generated through ``event_horizon_days``
    per user so long revenue windows stay observable.
    """

    n_users: int = 50_000
    n_networks: int = 2
    campaigns_per_network: int = 5
    organic_share: float = 0.30
    spender_rate: float = 0.05
    retention_continue: float = 0.72
    spender_retention_continue: float = 0.985
    activity_rate: float = 0.92
    habit_prob: float = 0.88
    max_sessions_per_day: int = 3
    purchase_prob: float = 0.30
    purchase_day0_prob: float = 0.08
    amount_mu: float = 5.8
    amount_sigma: float = 0.7
    whale_sigma: float = 0.6
    tenure_amount_slope: float = 0.012
    flag_probs: tuple[float, ...] = DEFAULT_FLAG_PROBS
    flag_spender_boost: float = 2.0
    campaign_quality_sigma: float = 0.4
    n_weeks: int = 12
    event_horizon_days: int = 90
    start_date: date = date(2024, 1, 1)
    groups: tuple[tuple[str, float], ...] = DEFAULT_GROUPS
    organic_alpha: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ConfigError("n_users must be at least 1")
        if self.n_networks < 1 or not 1 <= self.campaigns_per_network <= 100:
            raise ConfigError("need >= 1 network and 1..100 campaigns per network")
        for name in ("organic_share", "spender_rate", "retention_continue",
                     "spender_retention_continue", "activity_rate", "habit_prob",
                     "purchase_prob", "purchase_day0_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")
        if len(self.flag_probs) != 6 or any(not 0.0 <= p <= 1.0 for p in self.flag_probs):
            raise ConfigError("flag_probs must be six probabilities")
        if self.n_weeks < 1:
            raise ConfigError("n_weeks must be at least 1")
        if self.event_horizon_days < 1:
            raise ConfigError("event_horizon_days must be at least 1")
        if self.start_date.isoweekday() != 1:
            raise ConfigError("start_date must be a Monday (weeks start Monday)")
        if not self.groups or abs(sum(w for _, w in self.groups) - 1.0) > 1e-9:
            raise ConfigError("group weights must sum to 1")
        if self.max_sessions_per_day < 1:
            raise ConfigError("max_sessions_per_day must be at least 1")

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


@dataclass(frozen=True)
class _Segment:
    """One origin segment: its draw weight and quality multipliers."""

    key: CampaignKey
    weight: float
    spender_mult: float
    amount_shift: float


def _segments(cfg: GenConfig) -> tuple[_Segment, ...]:
    """Origin segments with seeded quality multipliers.

    Multipliers are log-normal and then rescaled so the expected global
    spender rate equals ``spender_rate`` exactly, keeping the headline rate
    a real parameter instead of a noisy byproduct.
    """
    rng = substream(cfg.seed, "campaigns")
    keys = list(cfg.campaigns) + [cfg.organic]
    paid_w = (1.0 - cfg.organic_share) / len(cfg.campaigns)
    weights = [paid_w] * len(cfg.campaigns) + [cfg.organic_share]
    raw = [math.exp(rng.gauss(0.0, cfg.campaign_quality_sigma)) for _ in keys]
    shifts = [rng.gauss(0.0, 0.5 * cfg.campaign_quality_sigma) for _ in keys]
    mean_mult = sum(w * m for w, m in zip(weights, raw))
    scale = 1.0 / mean_mult if mean_mult > 0 else 1.0
    return tuple(
        _Segment(key=k, weight=w, spender_mult=m * scale, amount_shift=s)
        for k, w, m, s in zip(keys, weights, raw, shifts)
    )


def _pick_segment(segments: tuple[_Segment, ...], x: float) -> _Segment:
    acc = 0.0
    for seg in segments:
        acc += seg.weight
        if x < acc:
            return seg
    return segments[-1]


def _pick_group(groups: tuple[tuple[str, float], ...], x: float) -> str:
    acc = 0.0
    for label, w in groups:
        acc += w
        if x < acc:
            return label
    return groups[-1][0]


def _generate_user(cfg: GenConfig, segments: tuple[_Segment, ...], uid: int) -> UserRecord:
    rng = substream(cfg.seed, "user", uid)
    seg = _pick_segment(segments, rng.random())
    group = _pick_group(cfg.groups, rng.random())
    reg_day = rng.randrange(cfg.n_weeks * 7)
    reg_date = cfg.start_date + timedelta(days=reg_day)

    spender = rng.random() < min(1.0, cfg.spender_rate * seg.spender_mult)
    whale_shift = rng.gauss(0.0, cfg.whale_sigma) if spender else 0.0
    mu = cfg.amount_mu + seg.amount_shift + whale_shift

    # Lifetime: day 0 always; continue each following day geometrically.
    # Spenders retain much longer than free users, the core stylized fact
    # that concentrates late revenue in few long-lived payers.
    continue_p = cfg.spender_retention_continue if spender else cfg.retention_continue
    lifetime = 0
    while lifetime < cfg.event_horizon_days - 1 and rng.random() < continue_p:
        lifetime += 1

    # Habitual daily check-in at a fixed per-user second: routine play is
    # what keeps the strict 24h update chain alive across days (a gap of
    # exactly 24h still commits). The first open happens at that hour and
    # later sessions never precede it within a day, so the commit anchor
    # does not drift earlier over time.
    habit_sec = rng.randrange(28_800, 79_200)  # between 08:00 and 22:00

    # Each event is drawn as one integer, second * 8 + rank, with rank 0
    # for a session, 1 for a purchase and 2 + i for flag i. Sorting these
    # keys orders events by second, then sessions before purchases before
    # flags. No two purchases (one a day at most) or flags share a second,
    # so a purchase's cents are taken in drawing order.
    keys: list[int] = []
    amounts: list[int] = []
    for d in range(lifetime + 1):
        # Day 0 is always played; later alive days at the activity rate.
        if d > 0 and rng.random() >= cfg.activity_rate:
            continue
        day = d * 86_400
        secs = [
            day + rng.randrange(habit_sec, 86_400)
            for _ in range(rng.randrange(cfg.max_sessions_per_day))
        ]
        if d == 0 or rng.random() < cfg.habit_prob:
            secs.append(day + habit_sec)
        elif not secs:
            secs.append(day + rng.randrange(habit_sec, 86_400))
        keys += [s << 3 for s in secs]
        if spender:
            # Spend ramps up over the first days: players buy once the game
            # has proven itself, rarely on the install day.
            ramp = min(1.0, d / 3) if d else 0.0
            p_buy = cfg.purchase_day0_prob + (cfg.purchase_prob - cfg.purchase_day0_prob) * ramp
            if rng.random() < p_buy:
                # Purchases land near the day's last session; spend per
                # purchase drifts up with tenure as players progress.
                buy_sec = min(max(secs) + rng.randrange(60, 1800), day + 86_399)
                mu_d = mu + cfg.tenure_amount_slope * d
                amounts.append(max(1, round(math.exp(rng.gauss(mu_d, cfg.amount_sigma)))))
                keys.append(buy_sec << 3 | 1)
    boost = cfg.flag_spender_boost if spender else 1.0
    for i, p in enumerate(cfg.flag_probs):
        if rng.random() < min(1.0, p * boost):
            keys.append(min(habit_sec + 30 * (i + 1), 86_399) << 3 | 2 + i)

    # The first-open session always sorts first: nothing is generated before
    # the earliest day-0 session second.
    keys.sort()
    midnight = reg_date.toordinal() * US_PER_DAY
    cents = iter(amounts)
    events = []
    for key in keys:
        us = midnight + (key >> 3) * 1_000_000
        rank = key & 7
        if rank == 0:
            events.append(Event(us, SESSION))
        elif rank == 1:
            events.append(Event(us, PURCHASE, next(cents)))
        else:
            events.append(Event(us, FLAG, None, rank - 2))

    return UserRecord(
        id=uid,
        registration_date=reg_date,
        origin=seg.key,
        events=tuple(events),
        group=group,
    )


def generate_dataset(cfg: GenConfig) -> tuple[list[UserRecord], dict]:
    """Generate the cohort and provenance metadata, reproducible from seed."""
    segments = _segments(cfg)
    users = [_generate_user(cfg, segments, uid) for uid in range(cfg.n_users)]
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
