"""Privacy threshold: fold low-population value rows into a null row.

A row is suppressed when its total count across all campaigns (organic
included) is below the threshold p; the suppressed counts are added to the
null row per campaign, so column sums are preserved exactly. Thresholds
below 2 change nothing observable: p=0 suppresses no row and p=1 only
relabels empty rows. The scope is one (group, week) matrix: country-level
protection with weekly reporting.

The mechanism deliberately does not give hide-in-the-crowd guarantees: a
singleton value ends up suppressed but still exposes its user through the
null row's single nonzero column. That behavior is asserted by tests, not
"fixed".
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError
from .postback import CountMatrix
from .schema import VALUE_RANGE


@dataclass(frozen=True, slots=True)
class PrivacyConfig:
    """Threshold p, enforced per (group, week) matrix."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or isinstance(self.p, bool):
            raise ConfigError(f"privacy threshold must be an integer, got {self.p!r}")
        if self.p < 0:
            raise ConfigError(f"privacy threshold must be >= 0, got {self.p}")


def apply_threshold(matrix: CountMatrix, cfg: PrivacyConfig) -> CountMatrix:
    """Suppress every value row with total below p into the null row."""
    if matrix.privacy_applied:
        raise ConfigError("privacy threshold already applied to this matrix")
    n = len(matrix.columns)
    null_row = [0] * n
    suppressed: set[int] = set()
    new_rows: list[tuple[int, ...]] = []
    for v in range(VALUE_RANGE):
        row = matrix.rows[v]
        if sum(row) < cfg.p:
            suppressed.add(v)
            for j, c in enumerate(row):
                null_row[j] += c
            new_rows.append((0,) * n)
        else:
            new_rows.append(row)
    return replace(
        matrix,
        rows=tuple(new_rows),
        suppressed=frozenset(suppressed),
        null_row=tuple(null_row),
    )


@dataclass(frozen=True)
class SuppressionSummary:
    suppressed_rows: int
    suppressed_users: int
    total_users: int
    null_mass: tuple[int, ...]  # per column, aligned with matrix.columns

    @property
    def suppressed_fraction(self) -> float:
        if self.total_users == 0:
            return 0.0
        return self.suppressed_users / self.total_users


def suppression_report(matrix: CountMatrix, cfg: PrivacyConfig) -> SuppressionSummary:
    """Summarize what the threshold folds away.

    Works on a pre-privacy matrix (by evaluating the rule) or on an already
    privatized one (by reading its null row).
    """
    if matrix.privacy_applied:
        applied = matrix
    else:
        applied = apply_threshold(matrix, cfg)
    null = applied.null_row or ()
    return SuppressionSummary(
        suppressed_rows=len(applied.suppressed),
        suppressed_users=sum(null),
        total_users=applied.total(),
        null_mass=tuple(null),
    )
