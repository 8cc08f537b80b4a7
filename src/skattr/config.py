"""Run configuration for the batch pipeline.

A config loaded from JSON is checked key by key against the field types of
``RunConfig`` and ``GenConfig`` before either is built: a value of the
wrong JSON type is a ``ConfigError`` naming the key, never a silent
conversion, so a valid config is stored (and hashed) exactly as written.
"""

from __future__ import annotations

import json
from datetime import date
from pathlib import Path
from typing import NamedTuple, get_args, get_origin, get_type_hints

from .attribution import AttributionFunction
from .errors import ConfigError
from .metrics import SCORING_POLICY, check_grid_axes, check_window_days, validate_windows
from .model import remake
from .privacy import PrivacyConfig
from .schema import SchemaSpec, schema_from_text
from .synthgen import MODEL, GenConfig

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

# Run inputs that no config sets. The users file's meta line names the
# organic sentinel; the window curve runs ``parsed_window_schema()`` at p=0
# with ``plain``. ``to_jsonable`` records them, so the config hash covers
# them as it covers every field.
FIXED_SETTINGS = {"organic_alpha": None, "window_g": "plain", "window_p": 0, "window_schema": None}


class _RunConfigFields(NamedTuple):
    gen: GenConfig | None = None
    users_csv: str | None = None
    events_csv: str | None = None
    schemas: tuple[str, ...] = DEFAULT_SCHEMAS
    p_values: tuple[int, ...] = DEFAULT_P_VALUES
    g_modes: tuple[str, ...] = DEFAULT_G_MODES
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    t: int = 30
    windows: tuple[tuple[int, int], ...] = DEFAULT_WINDOWS
    seed: int = 0


class RunConfig(_RunConfigFields):
    """Everything a benchmark run needs, JSON-loadable.

    The dataset comes either from a generator config (``gen``) or from
    ``users_csv``/``events_csv`` paths, which the loaders check. ``seed``
    seeds the run and its generator; a ``gen`` seed that differs is refused,
    unless it is ``GenConfig``'s default 0 (a JSON ``gen`` block that leaves
    its seed out). How a run is scored is fixed (``metrics.SCORING_POLICY``),
    not configured, and so are the organic sentinel and the window curve's
    schema, p and g (``FIXED_SETTINGS``) and the generator's behaviour model
    (``synthgen.MODEL``); ``to_jsonable`` records all three, so the config
    hash covers them. Every estimator, threshold and window is checked
    here, as are the grid's axes (``metrics.check_grid_axes``), so a bad
    one fails before any dataset is generated or read; with ``gen``, a
    window starting at or after its ``event_horizon_days`` holds no event
    and is rejected too.
    """

    __slots__ = ()
    _make = classmethod(remake)

    def __new__(cls, *args, **kwargs) -> RunConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.gen is None and self.users_csv is None:
            raise ConfigError("config needs either a generator block or dataset paths")
        if self.gen is not None and self.users_csv is not None:
            raise ConfigError("config cannot mix a generator block with dataset paths")
        if self.gen is not None and self.gen.seed not in (0, self.seed):
            raise _seed_mismatch(self.gen.seed, self.seed)
        if not self.schemas or not self.p_values or not self.g_modes:
            raise ConfigError("need at least one schema, one p value and one g mode")
        check_window_days(self.t)
        for text in self.schemas:
            schema_from_text(text)  # raises on bad grammar
        for mode in self.g_modes:
            AttributionFunction(mode)
        for lam in self.lambda_grid:
            AttributionFunction("null_convex", lam)
        for p in self.p_values:
            PrivacyConfig(p)
        check_grid_axes(self.p_values, self.g_modes, self.lambda_grid)
        if self.windows:
            validate_windows(self.windows)
            horizon = self.gen.event_horizon_days if self.gen is not None else None
            for lo, hi in self.windows:
                # A window holding no generated day has no revenue to weigh.
                if horizon is not None and lo >= horizon:
                    raise ConfigError(
                        f"windows: [{lo}, {hi}) starts at or after the generator's "
                        f"event_horizon_days {horizon}"
                    )
        return self

    def parsed_schemas(self) -> list[SchemaSpec]:
        return [schema_from_text(s) for s in self.schemas]

    def parsed_window_schema(self) -> SchemaSpec:
        """The window curve's schema: the grid's D7 RR schema, else its first schema."""
        for text in self.schemas:
            spec = schema_from_text(text)
            if spec.kind == "RR" and spec.horizon_days == 7:
                return spec
        return schema_from_text(self.schemas[0])

    def to_jsonable(self) -> dict:
        out = self._asdict()
        if self.gen is not None:
            out["gen"] = self.gen._asdict() | MODEL | {"start_date": str(self.gen.start_date)}
        return out | FIXED_SETTINGS | SCORING_POLICY


def _fits(value, hint) -> bool:
    """Whether a JSON value has the JSON type of a config field's type hint.

    Booleans are not numbers; an integer fits a float field.
    """
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is date:
        return isinstance(value, (str, date))
    if hint is GenConfig:  # its own keys are checked when it is built
        return isinstance(value, dict)
    if hint is str:
        return isinstance(value, str)
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            return all(_fits(item, args[0]) for item in value)
        return len(value) == len(args) and all(map(_fits, value, args))
    # ``X | None``
    return any(value is None if arg is type(None) else _fits(value, arg) for arg in args)


def _check_keys(cls: type, data: dict, what: str) -> None:
    """Reject unknown keys, and values whose JSON type does not fit the field."""
    unknown = set(data) - set(cls._fields)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    hints = get_type_hints(cls)
    # The NamedTuple that declares the fields keeps each annotation as
    # written, in a ForwardRef.
    written = cls.__mro__[1].__annotations__
    for name in cls._fields:
        if name in data and not _fits(data[name], hints[name]):
            raise ConfigError(
                f"{what} key {name!r} must fit {written[name].__forward_arg__}, "
                f"got {data[name]!r}"
            )


def gen_config_from_dict(data: dict) -> GenConfig:
    _check_keys(GenConfig, data, "generator config")
    kwargs = dict(data)
    if isinstance(kwargs.get("start_date"), str):
        try:
            kwargs["start_date"] = date.fromisoformat(kwargs["start_date"])
        except ValueError as exc:
            raise ConfigError(
                f"generator config key 'start_date' must fit an ISO date, "
                f"got {kwargs['start_date']!r}"
            ) from exc
    if "groups" in kwargs:
        kwargs["groups"] = tuple(map(tuple, kwargs["groups"]))
    return GenConfig(**kwargs)


def run_config_from_dict(data: dict) -> RunConfig:
    _check_keys(RunConfig, data, "run config")
    kwargs = dict(data)
    if kwargs.get("gen") is not None:
        kwargs["gen"] = gen_config_from_dict(kwargs["gen"])
    for key in ("schemas", "p_values", "g_modes", "lambda_grid"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    if "windows" in kwargs:
        kwargs["windows"] = tuple(map(tuple, kwargs["windows"]))
    cfg = RunConfig(**kwargs)
    # ``RunConfig`` takes a gen seed of 0 for one left out; here it is written.
    gen_seed = (data.get("gen") or {}).get("seed")
    if gen_seed is not None and gen_seed != cfg.seed:
        raise _seed_mismatch(gen_seed, cfg.seed)
    return cfg


def _seed_mismatch(gen_seed: int, seed: int) -> ConfigError:
    return ConfigError(f"generator config seed {gen_seed} differs from the run seed {seed}")


def _load_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in the file at ``path``; any failure is a ``ConfigError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file {path} not found") from exc
    except OSError as exc:  # a directory, or no permission to read
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer over 4300 digits
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return data


def load_run_config(path: str | Path) -> RunConfig:
    return run_config_from_dict(_load_json_object(path, "run config"))


def load_gen_config(path: str | Path) -> GenConfig:
    return gen_config_from_dict(_load_json_object(path, "generator config"))
