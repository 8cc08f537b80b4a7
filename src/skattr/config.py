"""Run configuration for the batch pipeline."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from datetime import date
from pathlib import Path

from .attribution import AttributionFunction
from .errors import ConfigError
from .metrics import validate_windows, window_estimator
from .privacy import PrivacyConfig
from .schema import SchemaSpec, schema_from_text
from .synthgen import GenConfig

# The benchmark's stock schema set: the omniscient 30-day baseline, the
# day-0 action schema, rolling revenue/count at 1, 3 and 7 days, and the
# random pessimistic baseline.
DEFAULT_SCHEMAS = (
    "kind=PV;layout=VVVVVV;horizon=30",
    "kind=EV;layout=CCCCCC",
    "kind=RR;layout=TVVVVV;horizon=1",
    "kind=RI;layout=TCCCCC;horizon=1",
    "kind=RR;layout=TTVVVV;horizon=3",
    "kind=RI;layout=TTCCCC;horizon=3",
    "kind=RR;layout=TTTVVV;horizon=7",
    "kind=RI;layout=TTTCCC;horizon=7",
    "kind=UD",
)
DEFAULT_P_VALUES = (0, 2, 10, 100)
DEFAULT_G_MODES = ("plain", "null_uniform", "null_empirical")
DEFAULT_LAMBDA_GRID = (0.0, 0.5, 1.0)
DEFAULT_WINDOWS = ((7, 14), (14, 30), (30, 60), (60, 90))


@dataclass(frozen=True)
class RunConfig:
    """Everything a benchmark run needs, JSON-loadable.

    The dataset comes either from a generator config (``gen``) or from
    ``users_csv``/``events_csv`` paths. Weeks start Monday; that is the only
    supported origin and kept explicit so files record it. Every estimator,
    threshold and window is checked here, so a bad one fails before any
    dataset is generated or read.
    """

    gen: GenConfig | None = None
    users_csv: str | None = None
    events_csv: str | None = None
    schemas: tuple[str, ...] = DEFAULT_SCHEMAS
    p_values: tuple[int, ...] = DEFAULT_P_VALUES
    g_modes: tuple[str, ...] = DEFAULT_G_MODES
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    t: int = 30
    windows: tuple[tuple[int, int], ...] = DEFAULT_WINDOWS
    window_schema: str | None = None
    window_p: int = 0
    window_g: str = "plain"
    seed: int = 0
    organic_alpha: int | None = None
    include_organic_in_error: bool = True
    profile_per_group: bool = False
    week_start: str = "monday"

    def __post_init__(self) -> None:
        if self.gen is None and self.users_csv is None:
            raise ConfigError("config needs either a generator block or dataset paths")
        if self.gen is not None and self.users_csv is not None:
            raise ConfigError("config cannot mix a generator block with dataset paths")
        if self.users_csv is not None and not Path(self.users_csv).exists():
            raise ConfigError(f"users_csv {self.users_csv!r} does not exist")
        if self.events_csv is not None and not Path(self.events_csv).exists():
            raise ConfigError(f"events_csv {self.events_csv!r} does not exist")
        if not self.schemas or not self.p_values or not self.g_modes:
            raise ConfigError("need at least one schema, one p value and one g mode")
        if self.t < 1:
            raise ConfigError("t must be at least one day")
        if self.week_start.lower() != "monday":
            raise ConfigError("weeks start Monday; other origins are not supported")
        for text in self.schemas:
            schema_from_text(text)  # raises on bad grammar
        if self.window_schema is not None:
            schema_from_text(self.window_schema)
        for mode in (*self.g_modes, self.window_g):
            AttributionFunction(mode)
        for lam in self.lambda_grid:
            AttributionFunction("null_convex", lam)
        for p in (*self.p_values, self.window_p):
            PrivacyConfig(p)
        if self.windows:
            validate_windows(self.windows)
            window_estimator(self.window_g, self.window_p)

    def parsed_schemas(self) -> list[SchemaSpec]:
        return [schema_from_text(s) for s in self.schemas]

    def parsed_window_schema(self) -> SchemaSpec:
        if self.window_schema is not None:
            return schema_from_text(self.window_schema)
        for text in self.schemas:
            spec = schema_from_text(text)
            if spec.kind == "RR" and spec.horizon_days == 7:
                return spec
        return schema_from_text(self.schemas[0])

    def to_jsonable(self) -> dict:
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "gen" and value is not None:
                gen = {g.name: getattr(value, g.name) for g in fields(GenConfig)}
                gen["start_date"] = value.start_date.isoformat()
                out["gen"] = gen
            else:
                out[f.name] = value
        return out


def gen_config_from_dict(data: dict) -> GenConfig:
    known = {f.name for f in fields(GenConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown generator config keys: {sorted(unknown)}")
    kwargs = dict(data)
    if "start_date" in kwargs and isinstance(kwargs["start_date"], str):
        kwargs["start_date"] = date.fromisoformat(kwargs["start_date"])
    for key in ("flag_probs", "groups"):
        if key in kwargs:
            kwargs[key] = tuple(tuple(x) if isinstance(x, list) else x for x in kwargs[key])
    return GenConfig(**kwargs)


def run_config_from_dict(data: dict) -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown run config keys: {sorted(unknown)}")
    kwargs = dict(data)
    if kwargs.get("gen") is not None:
        kwargs["gen"] = gen_config_from_dict(kwargs["gen"])
    for key in ("schemas", "p_values", "g_modes", "lambda_grid"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    if "windows" in kwargs:
        kwargs["windows"] = tuple((int(lo), int(hi)) for lo, hi in kwargs["windows"])
    return RunConfig(**kwargs)


def load_run_config(path: str | Path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file {path} not found") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("run config must be a JSON object")
    return run_config_from_dict(data)


def load_gen_config(path: str | Path) -> GenConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file {path} not found") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("generator config must be a JSON object")
    return gen_config_from_dict(data)
