"""skattr: conversion-value revenue attribution simulator and benchmark.

End-to-end pipeline: synthetic cohorts with known origins -> conversion-value
schemas -> postback simulation -> privacy thresholding -> revenue attribution
-> error benchmarking.
"""

from .attribution import (
    AttributionFunction,
    CellAttribution,
    attribute_plain,
    attribute_with_null,
)
from .errors import SkattrError
from .metrics import (
    AttributionReport,
    CellResult,
    WindowPoint,
    aggregate_error,
    benchmark_matrix,
    normalize_vs_baseline,
    weekly_error,
    window_error_curve,
)
from .model import (
    CampaignKey,
    Event,
    UserRecord,
    encode_alpha,
    organic_key,
)
from .postback import (
    CountMatrix,
    PostbackTable,
    build_counts,
    estimate_organic,
)
from .privacy import PrivacyConfig, apply_threshold
from .schema import (
    BitLayout,
    SchemaSpec,
    fit_buckets,
    parse_layout,
    schema_from_text,
    schema_to_text,
)
from .synthgen import GenConfig, generate_dataset

__version__ = "0.1.0"

__all__ = [
    "AttributionFunction",
    "AttributionReport",
    "BitLayout",
    "CampaignKey",
    "CellAttribution",
    "CellResult",
    "CountMatrix",
    "Event",
    "GenConfig",
    "PostbackTable",
    "PrivacyConfig",
    "SchemaSpec",
    "SkattrError",
    "UserRecord",
    "WindowPoint",
    "aggregate_error",
    "apply_threshold",
    "attribute_plain",
    "attribute_with_null",
    "benchmark_matrix",
    "build_counts",
    "encode_alpha",
    "estimate_organic",
    "fit_buckets",
    "generate_dataset",
    "normalize_vs_baseline",
    "organic_key",
    "parse_layout",
    "schema_from_text",
    "schema_to_text",
    "weekly_error",
    "window_error_curve",
]
