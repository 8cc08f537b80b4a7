"""Postbacks and per-(group, week) count matrices.

Each user produces exactly one postback: the final committed value, delivered
at a random instant between 24h and 48h after the last commit. One schema's
postbacks form a ``PostbackTable``, the developer's view as integer lists in
cohort order: final value, cell id (the (group, ISO week of delivery) the
postback is counted in, named by the table's ``cell_keys``; -1 when it was
delivered after the horizon) and delivery instant in microseconds, which a
simulated table, or one read from a postback view, computes on first
read. A user's delay lies in ``[DELAY_MIN_US, DELAY_MAX_US]``, both ends
reachable, and is drawn from the substream (seed, "postback", user id) by
``draw_delay_us`` only when some reader needs it, once per (seed, user)
per cohort (``delay_memo``). Counts are aggregated per cell over paid
campaigns by origin column index; the organic column is estimated
afterwards by subtracting paid counts from the developer-side per-value
totals. Every matrix carries its threshold p, 0 as simulated, and its
null row, all zero below p=2; its suppressed values are derived from its
rows, not stored.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from datetime import date, timedelta
from functools import cached_property
from typing import NamedTuple

from .errors import ConfigError, InconsistentTotalsError
from .model import MICROSECOND, CampaignKey, Cohort, iso_week, remake
from .rng import substream
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


# The delay's bounds: the draw 0.0 gives the first, and the largest draw
# below 1, 1 - 2**-53, rounds to the second exactly.
DELAY_MIN_US = postback_delay_us(0.0)
DELAY_MAX_US = 2 * DELAY_MIN_US


def delay_memo(cohort: Cohort, seed: int) -> list[int | None]:
    """``cohort.delays[seed]``, made on first use: each user's delay once drawn, None before.

    Every schema and table over the cohort shares it, since the draw does
    not depend on the schema.
    """
    memo = cohort.delays.get(seed)
    if memo is None:
        memo = cohort.delays[seed] = [None] * len(cohort.ids)
    return memo


def draw_delay_us(seed: int, uid: int) -> int:
    """User ``uid``'s postback delay in microseconds, from ``substream(seed, "postback", uid)``."""
    return postback_delay_us(substream(seed, "postback", uid).random())


def cell_of(group: str, day: date) -> CellKey:
    """The (group, ISO week) cell of a postback delivered on ``day``."""
    return (group, iso_week(day))


class PostbackTable:
    """One schema's postbacks: the developer's view, as lists in cohort order.

    ``values[i]`` is user ``i``'s final conversion value, ``sent_us[i]`` the
    delivery instant in microseconds on the cohort's clock (date ordinal x
    ``US_PER_DAY`` + time of day) and ``cells[i]`` the id of the cell it
    is counted in, or -1 when the postback came after the horizon and counts
    nowhere. ``cell_keys`` maps each id in ``cells`` to its (group, week).

    A simulated table, and one ``postback_view.load_postback_view`` reads,
    is given the replay's ``last_us`` (last commits, microseconds since
    registration midnight) and the run ``seed``: its cells need a user's
    delay only where it can move the cell, and ``sent_us`` is computed on
    first read, drawing the delays still missing with ``draw_delay_us``.
    A table built from known delivery instants is given its ``sent_us``
    instead. A table is read-only and equal only to itself.
    """

    __slots__ = ("cohort", "values", "cells", "cell_keys", "_sent_us", "_last_us", "_seed")

    def __init__(
        self,
        cohort: Cohort,
        values: list[int],
        cells: list[int],
        sent_us: list[int] | None,
        cell_keys: dict[int, CellKey],
        *,
        last_us: list[int] | None = None,
        seed: int | None = None,
    ) -> None:
        if (sent_us is None) != (last_us is not None and seed is not None):
            raise ConfigError("a postback table takes either sent_us or last_us with a seed")
        fields = (cohort, values, cells, cell_keys, sent_us, last_us, seed)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to PostbackTable field {name!r}")

    def __len__(self) -> int:
        """The number of postbacks delivered by the horizon."""
        return len(self.cells) - self.cells.count(-1)

    @property
    def sent_us(self) -> list[int]:
        """Each user's delivery instant: registration midnight + last commit + delay."""
        sent = self._sent_us
        if sent is None:
            cohort, seed = self.cohort, self._seed
            delays = delay_memo(cohort, seed)
            for i, delay in enumerate(delays):
                if delay is None:
                    delays[i] = draw_delay_us(seed, cohort.ids[i])
            sent = [m + last + d for m, last, d in zip(cohort.midnight_us, self._last_us, delays)]
            object.__setattr__(self, "_sent_us", sent)
        return sent


class _CountMatrixFields(NamedTuple):
    group: str
    week: str
    columns: tuple[CampaignKey, ...]
    rows: tuple[tuple[int, ...], ...]
    p: int = 0
    null_row: tuple[int, ...] = ()


class CountMatrix(_CountMatrixFields):
    """Counts of conversion values per campaign for one (group, week).

    ``rows`` has one 64-entry-per-column tuple per conversion value. ``p``
    is the privacy threshold the counts went through, 0 for simulated ones,
    and ``null_row`` holds the counts it folded, one per column; an empty
    one reads as all zero. A value row below ``p`` holds no count, so the
    suppressed values are derived from the rows alone, and below p=2, which
    folds no user, the null row is all zero. A matrix keeps an instance
    ``__dict__`` for its cached ``row_sums`` and ``suppressed``.
    """

    _make = classmethod(remake)

    def __new__(cls, *args, **kwargs) -> CountMatrix:
        self = super().__new__(cls, *args, **kwargs)
        if not self.null_row:
            self = self._derive(null_row=(0,) * len(self.columns))
        rows, p, null_row = self.rows, self.p, self.null_row
        if len(rows) != VALUE_RANGE:
            raise ConfigError(f"count matrix must have {VALUE_RANGE} rows")
        if set(map(len, rows)) != {len(self.columns)}:
            raise ConfigError("row width must match the column count")
        if self.columns and min(map(min, rows)) < 0:
            raise ConfigError("counts must be non-negative")
        if type(p) is not int or p < 0:
            raise ConfigError(f"threshold p must be an integer >= 0, got {p!r}")
        if len(null_row) != len(self.columns):
            raise ConfigError("null row width must match the column count")
        if self.columns and min(null_row) < 0:
            raise ConfigError("null row counts must be non-negative")
        if p < 2:
            if any(null_row):
                raise ConfigError(f"null row holds {sum(null_row)} users, but p={p} folds none")
        else:
            low = next((v for v, n in enumerate(self.row_sums) if 0 < n < p), None)
            if low is not None:
                raise ConfigError(f"value {low} keeps {self.row_sums[low]} users, below p={p}")
        return self

    def _derive(self, **changes) -> CountMatrix:
        """A copy with ``changes``, without running the constructor's checks again.

        The caller derives ``changes`` from this checked matrix so that the
        copy passes them, as ``privacy.apply_threshold`` and
        ``estimate_organic`` do. Loaded and hand-built matrices, and
        ``_replace`` copies, go through the constructor, which keeps every
        check.
        """
        return tuple.__new__(CountMatrix, (self._asdict() | changes).values())

    @cached_property
    def row_sums(self) -> tuple[int, ...]:
        """Each value row's total over all columns, computed once per matrix."""
        return tuple(map(sum, self.rows))

    @cached_property
    def suppressed(self) -> frozenset[int]:
        """The values withheld by the threshold: once ``p >= 1``, the rows with no count."""
        if not self.p:
            return frozenset()
        zero = (0,) * len(self.columns)
        return frozenset(v for v, row in enumerate(self.rows) if row == zero)


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
    if matrix.p:
        raise ConfigError("organic estimation must happen before privacy is applied")
    if any(k.organic for k in matrix.columns):
        raise ConfigError("matrix already has an organic column")
    new_rows = []
    for v in range(VALUE_RANGE):
        paid = matrix.row_sums[v]
        total = developer_totals.get(v, 0)
        residual = total - paid
        if residual < 0:
            raise InconsistentTotalsError(
                f"value {v} in ({matrix.group}, {matrix.week}): developer total "
                f"{total} is below the paid count {paid}"
            )
        new_rows.append(matrix.rows[v] + (residual,))
    return matrix._derive(
        columns=matrix.columns + (organic,), rows=tuple(new_rows), null_row=matrix.null_row + (0,)
    )
