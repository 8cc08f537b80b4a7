"""Postbacks and per-(group, week) count matrices.

Each user produces exactly one postback: the final committed value, delivered
at a random instant between 24h and 48h after the last commit. Counts are
aggregated per (group, ISO week of postback) over paid campaigns; the
organic column is estimated afterwards by subtracting paid counts from the
developer-side per-value totals.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from datetime import datetime, timedelta

from .errors import ConfigError, DuplicatePostbackError, InconsistentTotalsError, ReferentialError
from .model import CampaignKey, UserRecord, iso_week
from .schema import VALUE_RANGE

POSTBACK_QUIET_SECONDS = 86_400.0
POSTBACK_JITTER_SECONDS = 86_400.0

CellKey = tuple[str, str]  # (group, week)


@dataclass(frozen=True, slots=True)
class Postback:
    """The single anonymized report for one user."""

    user_id: int
    final_value: int
    postback_time: datetime
    group: str


def finalize_postback(
    user_id: int, final_value: int, last_commit: datetime, draw: float, group: str
) -> Postback:
    """Turn a user's final value and last-commit instant into their postback.

    The delivery time is last commit + 24h quiet period + ``draw`` * 24h,
    where ``draw`` is the user's Uniform[0, 1) postback draw (callers take
    it from a per-user substream so results do not depend on processing
    order).
    """
    delay = POSTBACK_QUIET_SECONDS + draw * POSTBACK_JITTER_SECONDS
    # Positional arguments: this runs once per user and schema, and keyword
    # arguments make each call measurably slower.
    return Postback(user_id, final_value, last_commit + timedelta(0, delay), group)


def cell_of(pb: Postback) -> CellKey:
    """The (group, ISO week of delivery) cell a postback is counted in."""
    return (pb.group, iso_week(pb.postback_time.date()))


@dataclass(frozen=True)
class CountMatrix:
    """Counts of conversion values per campaign for one (group, week).

    ``rows`` has one 64-entry-per-column tuple per conversion value. After
    privacy is applied, suppressed rows are zeroed with their indices listed
    in ``suppressed`` (their cells read as None) and the folded counts live
    in ``null_row``.
    """

    group: str
    week: str
    columns: tuple[CampaignKey, ...]
    rows: tuple[tuple[int, ...], ...]
    suppressed: frozenset[int] = frozenset()
    null_row: tuple[int, ...] | None = None
    privacy_applied: bool = False

    def __post_init__(self) -> None:
        rows = self.rows
        if len(rows) != VALUE_RANGE:
            raise ConfigError(f"count matrix must have {VALUE_RANGE} rows")
        if set(map(len, rows)) != {len(self.columns)}:
            raise ConfigError("row width must match the column count")
        if self.columns and min(map(min, rows)) < 0:
            raise ConfigError("counts must be non-negative")
        if self.privacy_applied != (self.null_row is not None):
            raise ConfigError("null row present iff privacy has been applied")
        if self.null_row is not None and len(self.null_row) != len(self.columns):
            raise ConfigError("null row width must match the column count")

    def cell(self, v: int, j: int) -> int | None:
        """Count at (value, column index); None when the cell is suppressed."""
        if v in self.suppressed:
            return None
        return self.rows[v][j]

    def row_total(self, v: int) -> int:
        return sum(self.rows[v])

    def column_sums(self) -> tuple[int, ...]:
        """Per-column totals over all value rows plus the null row."""
        sums = [0] * len(self.columns)
        for row in self.rows:
            for j, c in enumerate(row):
                sums[j] += c
        if self.null_row is not None:
            for j, c in enumerate(self.null_row):
                sums[j] += c
        return tuple(sums)

    def total(self) -> int:
        return sum(self.column_sums())


def empty_matrix(group: str, week: str, columns: Sequence[CampaignKey]) -> CountMatrix:
    cols = tuple(columns)
    zero = (0,) * len(cols)
    return CountMatrix(group=group, week=week, columns=cols, rows=(zero,) * VALUE_RANGE)


def paid_campaigns(users: Iterable[UserRecord]) -> tuple[CampaignKey, ...]:
    """All distinct paid origins in a dataset, sorted by alpha."""
    return tuple(sorted({u.origin for u in users if not u.origin.organic}))


def build_counts(
    postbacks: Iterable[Postback],
    users: Iterable[UserRecord],
    campaigns: Sequence[CampaignKey] | None = None,
) -> dict[CellKey, CountMatrix]:
    """Aggregate postbacks into per-(group, week) matrices over paid columns.

    Postbacks of organic-origin users are skipped here; their column is
    reconstructed by ``estimate_organic``. The column set defaults to every
    paid origin in ``users`` so all weeks share one matrix shape.
    """
    users_by_id = {u.id: u for u in users}
    if campaigns is None:
        campaigns = paid_campaigns(users_by_id.values())
    cols = tuple(campaigns)
    col_index = {k: j for j, k in enumerate(cols)}
    grids: dict[CellKey, list[list[int]]] = {}
    seen: set[int] = set()
    for pb in postbacks:
        if pb.user_id in seen:
            raise DuplicatePostbackError(f"user {pb.user_id} already produced a postback")
        seen.add(pb.user_id)
        user = users_by_id.get(pb.user_id)
        if user is None:
            raise ReferentialError(f"postback references unknown user {pb.user_id}")
        if user.origin.organic:
            continue
        key = cell_of(pb)
        grid = grids.get(key)
        if grid is None:
            grid = [[0] * len(cols) for _ in range(VALUE_RANGE)]
            grids[key] = grid
        grid[pb.final_value][col_index[user.origin]] += 1
    return {
        key: CountMatrix(
            group=key[0],
            week=key[1],
            columns=cols,
            rows=tuple(tuple(row) for row in grid),
        )
        for key, grid in sorted(grids.items())
    }


def estimate_organic(
    matrix: CountMatrix,
    developer_totals: Mapping[int, int],
    organic: CampaignKey,
) -> CountMatrix:
    """Append the organic column as developer totals minus paid counts.

    ``developer_totals`` are the developer-side per-value user counts for the
    same (group, week); a negative residual means the inputs disagree.
    """
    if matrix.privacy_applied:
        raise ConfigError("organic estimation must happen before privacy is applied")
    if any(k.organic for k in matrix.columns):
        raise ConfigError("matrix already has an organic column")
    new_rows = []
    for v in range(VALUE_RANGE):
        paid = matrix.row_total(v)
        total = developer_totals.get(v, 0)
        residual = total - paid
        if residual < 0:
            raise InconsistentTotalsError(
                f"value {v} in ({matrix.group}, {matrix.week}): developer total "
                f"{total} is below the paid count {paid}"
            )
        new_rows.append(matrix.rows[v] + (residual,))
    return replace(matrix, columns=matrix.columns + (organic,), rows=tuple(new_rows))
