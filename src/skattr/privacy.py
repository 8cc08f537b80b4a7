"""Privacy threshold: fold low-population value rows into a null row.

A row is suppressed when its total count across all campaigns (organic
included) is below the threshold p; the suppressed counts are added to the
null row per campaign, so column sums are preserved exactly. Thresholds
below 2 change nothing observable: p=0 suppresses no row and p=1 only
relabels empty rows. The scope is one (group, week) matrix: country-level
protection with weekly reporting. The input is a matrix at p=0, as
simulated; the result records only p: its suppressed values, the rows
left without a count, are derived from it.

The mechanism deliberately does not give hide-in-the-crowd guarantees: a
singleton value ends up suppressed but still exposes its user through the
null row's single nonzero column. That behavior is asserted by tests, not
"fixed".
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ConfigError
from .model import remake
from .postback import CountMatrix


class _PrivacyConfigFields(NamedTuple):
    p: int


class PrivacyConfig(_PrivacyConfigFields):
    """Threshold p, enforced per (group, week) matrix."""

    __slots__ = ()
    _make = classmethod(remake)

    def __new__(cls, p: int) -> PrivacyConfig:
        if not isinstance(p, int) or isinstance(p, bool):
            raise ConfigError(f"privacy threshold must be an integer, got {p!r}")
        if p < 0:
            raise ConfigError(f"privacy threshold must be >= 0, got {p}")
        return tuple.__new__(cls, (p,))


def apply_threshold(matrix: CountMatrix, cfg: PrivacyConfig) -> CountMatrix:
    """Suppress every value row with total below p into the null row.

    The row totals are the source matrix's ``row_sums``, computed once
    however many thresholds read them, and the copy, which records ``p``,
    skips the checks the source's rows already passed.
    """
    if matrix.p:
        raise ConfigError(f"privacy threshold already applied to this matrix (p={matrix.p})")
    n = len(matrix.columns)
    zero = (0,) * n
    null_row = [0] * n
    new_rows: list[tuple[int, ...]] = []
    for row, total in zip(matrix.rows, matrix.row_sums):
        if total < cfg.p:
            if total:
                for j, c in enumerate(row):
                    null_row[j] += c
            new_rows.append(zero)
        else:
            new_rows.append(row)
    return matrix._derive(rows=tuple(new_rows), p=cfg.p, null_row=tuple(null_row))
