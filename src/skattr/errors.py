"""Exception hierarchy.

Every error raised by the library derives from SkattrError so the CLI can
report failures as machine-readable JSON with the class name as the code.
"""

from __future__ import annotations


class SkattrError(ValueError):
    """Base class for all library errors."""


class InvalidCampaignError(SkattrError):
    """Campaign or network id outside the encodable range."""


class OrganicKeyError(SkattrError):
    """Attempt to decode the organic sentinel into (network, campaign)."""


class LayoutError(SkattrError):
    """Malformed bit-layout or schema text."""


class DegenerateFitError(SkattrError):
    """Bucket fitting is impossible (no spenders in the population)."""


class InconsistentTotalsError(SkattrError):
    """Developer-side totals disagree with the counts or attribution they should explain.

    Raised when the totals are smaller than the observed paid counts, and
    when an attribution file's cell does not conserve the dataset's revenue.
    """


class MissingProfileError(SkattrError):
    """A conversion value in a count matrix has no bucket mean."""


class AlignmentError(SkattrError):
    """Attributed and ground-truth vectors cover different key sets."""


class UndefinedWeightsError(SkattrError):
    """Weighted aggregation with all-zero weights."""


class DegenerateBaselineError(SkattrError):
    """Normalization against a zero baseline error."""


class ReferentialError(SkattrError):
    """A file row references an entity that does not exist."""


class CsvFormatError(SkattrError):
    """Malformed CSV row; message carries the line number."""


class ConfigError(SkattrError):
    """Invalid configuration or operation precondition."""


class GridCellError(SkattrError):
    """A benchmark grid cell failed; the cause is chained as ``__cause__``.

    Carries the cell's coordinates. ``p``, ``g`` and ``lam`` are None when
    the schema's simulation failed before any of its cells ran.
    """

    def __init__(
        self,
        message: str,
        *,
        schema: str | None = None,
        p: int | None = None,
        g: str | None = None,
        lam: float | None = None,
    ) -> None:
        super().__init__(message)
        self.schema = schema
        self.p = p
        self.g = g
        self.lam = lam
