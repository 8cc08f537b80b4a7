"""skattr: conversion-value revenue attribution simulator and benchmark.

End-to-end pipeline: synthetic cohorts with known origins -> conversion-value
schemas -> postback simulation -> privacy thresholding -> revenue attribution
-> error benchmarking.
"""

from .attribution import (
    AttributionFunction,
    RevenueProfile,
    attribute_plain,
    attribute_with_null,
    estimate_bucket_means,
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
    cumulative_revenue,
    decode_alpha,
    encode_alpha,
    organic_key,
)
from .postback import (
    CountMatrix,
    PostbackTable,
    build_counts,
    estimate_organic,
)
from .privacy import PrivacyConfig, apply_threshold, suppression_report
from .schema import (
    BitLayout,
    SchemaSpec,
    fit_buckets,
    parse_layout,
    schema_from_text,
    schema_to_text,
)
from .synthgen import GenConfig, generate_dataset, homogeneous_fixture

__version__ = "0.1.0"

__all__ = [
    "AttributionFunction",
    "AttributionReport",
    "BitLayout",
    "CampaignKey",
    "CellResult",
    "CountMatrix",
    "Event",
    "GenConfig",
    "PostbackTable",
    "PrivacyConfig",
    "RevenueProfile",
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
    "cumulative_revenue",
    "decode_alpha",
    "encode_alpha",
    "estimate_bucket_means",
    "estimate_organic",
    "fit_buckets",
    "generate_dataset",
    "homogeneous_fixture",
    "normalize_vs_baseline",
    "organic_key",
    "parse_layout",
    "schema_from_text",
    "schema_to_text",
    "suppression_report",
    "weekly_error",
    "window_error_curve",
]
