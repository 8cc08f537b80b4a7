"""Shared orchestration: final values -> postbacks -> matrices -> attribution inputs.

Both the stage-wise CLI commands and the benchmark grid go through these
helpers, so splitting a run into stages and running it end to end produce
identical numbers for the same seed. Postback delay randomness is one
Uniform[0, 1) draw per user from the substream (seed, "postback", user_id);
it does not depend on the schema, so it is drawn once per (seed, user) and
kept on the shared ``prepare_users`` digest, which every schema simulated
from that digest reuses. UD schemas without an explicit seed get the
derived substream seed (seed, "ud").
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from datetime import datetime, timedelta

from .errors import ConfigError
from .model import CampaignKey, UserRecord, cumulative_revenue, organic_key
from .postback import (
    CellKey,
    CountMatrix,
    Postback,
    build_counts,
    cell_of,
    empty_matrix,
    estimate_organic,
    finalize_postback,
    paid_campaigns,
)
from .rng import hash64, substream
from .schema import (
    VALUE_RANGE,
    SchemaSpec,
    _PreppedUser,
    fit_buckets,
    prepare_users,
    simulate_traces,
)


def resolve_organic(users: Iterable[UserRecord], override: int | None = None) -> CampaignKey:
    """The dataset's organic sentinel key.

    Prefers the sentinel actually present on organic users; otherwise the
    override, and as a last resort one past the largest paid alpha.
    """
    organics = {u.origin for u in users if u.origin.organic}
    if len(organics) > 1:
        raise ConfigError(f"dataset mixes organic sentinels: {sorted(k.alpha for k in organics)}")
    if organics:
        found = next(iter(organics))
        if override is not None and override != found.alpha:
            raise ConfigError(
                f"organic sentinel {override} does not match the dataset's {found.alpha}"
            )
        return found
    if override is not None:
        return organic_key(override)
    max_alpha = max((u.origin.alpha for u in users), default=-1)
    return organic_key(max_alpha + 1)


def resolve_schema(schema: SchemaSpec, users: Sequence[UserRecord], seed: int) -> SchemaSpec:
    """Fit bucket boundaries and inject the derived UD seed where needed."""
    if schema.kind == "UD" and schema.seed is None:
        schema = replace(schema, seed=hash64(seed, "ud") & 0x7FFFFFFF)
    if schema.needs_boundaries() and schema.bucket_boundaries is None:
        horizon = schema.horizon_days
        schema = fit_buckets(users, schema, lambda u: cumulative_revenue(u, horizon))
    return schema


def simulate_postbacks(
    users: Sequence[UserRecord],
    schema: SchemaSpec,
    seed: int,
    horizon: datetime | None = None,
    prepared: dict[int, _PreppedUser] | None = None,
) -> dict[int, Postback]:
    """One postback per user (organic users included: the developer's view).

    ``simulate_traces`` gives each user's final value and last commit as
    integer microseconds since registration midnight; the postback is sent
    ``finalize_postback``'s delay after registration midnight plus those
    microseconds, the exact last-commit instant. Users whose postback would
    land after ``horizon`` are excluded entirely; they count neither in
    matrices nor in ground truth. A user's delay draw is memoised by seed
    on their ``prepared`` digest entry.
    """
    finals = simulate_traces(users, schema, prepared)
    users_by_id = {u.id: u for u in users}
    out: dict[int, Postback] = {}
    for uid in sorted(finals):
        value, last_us = finals[uid]
        user = users_by_id[uid]
        prepped = prepared.get(uid) if prepared is not None else None
        draws = prepped.postback_draws if prepped is not None else {}
        draw = draws.get(seed)
        if draw is None:
            draw = draws[seed] = substream(seed, "postback", uid).random()
        # timedelta(days, seconds, microseconds): positional is the cheaper call.
        last_commit = user.registration_instant + timedelta(0, 0, last_us)
        pb = finalize_postback(uid, value, last_commit, draw, user.group)
        if horizon is not None and pb.postback_time > horizon:
            continue
        out[uid] = pb
    return out


def developer_totals(postbacks: Mapping[int, Postback]) -> dict[CellKey, dict[int, int]]:
    """Per-(group, week) user counts per conversion value, all origins.

    Every cell carries entries for all 64 values (zeros included) so the
    null-aware estimator can distinguish "no users" from "missing data".
    """
    totals: dict[CellKey, dict[int, int]] = {}
    for pb in postbacks.values():
        cell = cell_of(pb)
        if cell not in totals:
            totals[cell] = dict.fromkeys(range(VALUE_RANGE), 0)
        totals[cell][pb.final_value] += 1
    return totals


def build_cell_matrices(
    users: Sequence[UserRecord],
    postbacks: Mapping[int, Postback],
    organic: CampaignKey | None = None,
    campaigns: Sequence[CampaignKey] | None = None,
    totals: Mapping[CellKey, Mapping[int, int]] | None = None,
) -> dict[CellKey, CountMatrix]:
    """Pre-privacy matrices with the organic column, one per (group, week).

    ``totals`` are ``developer_totals(postbacks)`` when the caller has them.
    """
    if organic is None:
        organic = resolve_organic(users)
    if campaigns is None:
        campaigns = paid_campaigns(users)
    if totals is None:
        totals = developer_totals(postbacks)
    paid = build_counts(postbacks.values(), users, campaigns)
    out: dict[CellKey, CountMatrix] = {}
    for cell in sorted(totals):
        matrix = paid.get(cell)
        if matrix is None:
            matrix = empty_matrix(cell[0], cell[1], campaigns)
        out[cell] = estimate_organic(matrix, totals[cell], organic)
    return out


@dataclass(frozen=True)
class SimArtifacts:
    """Everything downstream stages need from one schema simulation."""

    schema: SchemaSpec
    postbacks: dict[int, Postback]
    matrices: dict[CellKey, CountMatrix]
    cell_totals: dict[CellKey, dict[int, int]]
    organic: CampaignKey
    campaigns: tuple[CampaignKey, ...]

    @property
    def columns(self) -> tuple[CampaignKey, ...]:
        return self.campaigns + (self.organic,)


def run_schema(
    users: Sequence[UserRecord],
    schema: SchemaSpec,
    seed: int,
    horizon: datetime | None = None,
    prepared: dict[int, _PreppedUser] | None = None,
    organic: CampaignKey | None = None,
    campaigns: Sequence[CampaignKey] | None = None,
) -> SimArtifacts:
    """Fit, simulate and aggregate one schema over the dataset."""
    if organic is None:
        organic = resolve_organic(users)
    if campaigns is None:
        campaigns = paid_campaigns(users)
    if prepared is None:
        prepared = prepare_users(users)
    fitted = resolve_schema(schema, users, seed)
    postbacks = simulate_postbacks(users, fitted, seed, horizon, prepared)
    totals = developer_totals(postbacks)
    matrices = build_cell_matrices(users, postbacks, organic, campaigns, totals)
    return SimArtifacts(
        schema=fitted,
        postbacks=postbacks,
        matrices=matrices,
        cell_totals=totals,
        organic=organic,
        campaigns=tuple(campaigns),
    )
