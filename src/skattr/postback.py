"""Postbacks and per-(group, week) count matrices.

Each user produces exactly one postback: the final committed value, delivered
at a random instant between 24h and 48h after the last commit. One schema's
postbacks form a ``PostbackTable``, the developer's view as integer lists in
cohort order: final value, cell id (the (group, ISO week of delivery) the
postback is counted in, named by the table's ``cell_keys``; -1 when it was
delivered after the horizon) and delivery instant in microseconds. Counts
are aggregated per cell over paid campaigns by origin column index; the
organic column is estimated afterwards by subtracting paid counts from the
developer-side per-value totals.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta

from .errors import ConfigError, InconsistentTotalsError
from .model import MICROSECOND, US_PER_DAY, CampaignKey, Cohort, iso_week
from .schema import VALUE_RANGE

POSTBACK_QUIET_SECONDS = 86_400.0
POSTBACK_JITTER_SECONDS = 86_400.0

CellKey = tuple[str, str]  # (group, week)


def postback_delay_us(draw: float) -> int:
    """Delivery delay after the last commit, in microseconds: 24h + ``draw`` * 24h.

    ``draw`` is the user's Uniform[0, 1) postback draw. The float seconds
    round to whole microseconds as ``timedelta`` rounds them.
    """
    delay = POSTBACK_QUIET_SECONDS + draw * POSTBACK_JITTER_SECONDS
    return timedelta(0, delay) // MICROSECOND


def cell_of(group: str, day: date) -> CellKey:
    """The (group, ISO week) cell of a postback delivered on ``day``."""
    return (group, iso_week(day))


@dataclass(frozen=True, eq=False)
class PostbackTable:
    """One schema's postbacks: the developer's view, as lists in cohort order.

    ``values[i]`` is user ``i``'s final conversion value, ``sent_us[i]`` the
    delivery instant in microseconds on the cohort's clock (date ordinal x
    ``US_PER_DAY`` + time of day) and ``cells[i]`` the id of the cell it
    is counted in, or -1 when the postback came after the horizon and counts
    nowhere. ``cell_keys`` maps each id in ``cells`` to its (group, week).
    """

    cohort: Cohort
    values: list[int]
    cells: list[int]
    sent_us: list[int]
    cell_keys: dict[int, CellKey]

    def __len__(self) -> int:
        """The number of postbacks delivered by the horizon."""
        return len(self.cells) - self.cells.count(-1)

    def by_user(self) -> dict[int, tuple[int, datetime, CellKey]]:
        """``{user id: (final value, delivery instant, (group, week))}`` of delivered postbacks."""
        keys = self.cell_keys
        return {
            uid: (value, datetime.min + timedelta(microseconds=sent - US_PER_DAY), keys[cell])
            for uid, value, cell, sent in zip(self.cohort.ids, self.values, self.cells, self.sent_us)
            if cell >= 0
        }


@dataclass(frozen=True)
class CountMatrix:
    """Counts of conversion values per campaign for one (group, week).

    ``rows`` has one 64-entry-per-column tuple per conversion value. After
    privacy is applied, suppressed rows are zeroed with their indices listed
    in ``suppressed`` (their cells read as None) and the folded counts live
    in ``null_row``, which is None before.
    """

    group: str
    week: str
    columns: tuple[CampaignKey, ...]
    rows: tuple[tuple[int, ...], ...]
    suppressed: frozenset[int] = frozenset()
    null_row: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        rows = self.rows
        if len(rows) != VALUE_RANGE:
            raise ConfigError(f"count matrix must have {VALUE_RANGE} rows")
        if set(map(len, rows)) != {len(self.columns)}:
            raise ConfigError("row width must match the column count")
        if self.columns and min(map(min, rows)) < 0:
            raise ConfigError("counts must be non-negative")
        if self.null_row is not None:
            if len(self.null_row) != len(self.columns):
                raise ConfigError("null row width must match the column count")
            if self.columns and min(self.null_row) < 0:
                raise ConfigError("null row counts must be non-negative")

    @property
    def privacy_applied(self) -> bool:
        return self.null_row is not None

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


def build_counts(postbacks: PostbackTable) -> dict[CellKey, CountMatrix]:
    """Aggregate postbacks into per-(group, week) matrices over paid columns.

    The columns are every paid origin of the cohort, so all weeks share one
    matrix shape. Postbacks of organic-origin users are skipped here; their
    column is reconstructed by ``estimate_organic``.
    """
    cohort = postbacks.cohort
    cols = cohort.campaigns
    width = len(cols)  # also the organic origin's column in ``cohort.origins``
    grids: dict[int, list[list[int]]] = {}
    for cell, value, j in zip(postbacks.cells, postbacks.values, cohort.column):
        if j == width or cell < 0:
            continue
        grid = grids.get(cell)
        if grid is None:
            grid = grids[cell] = [[0] * width for _ in range(VALUE_RANGE)]
        grid[value][j] += 1
    keys = postbacks.cell_keys
    return {
        keys[cell]: CountMatrix(
            group=keys[cell][0],
            week=keys[cell][1],
            columns=cols,
            rows=tuple(tuple(row) for row in grid),
        )
        for cell, grid in sorted(grids.items(), key=lambda item: keys[item[0]])
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
