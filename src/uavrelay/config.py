"""Experiment configuration: JSON schema, validation and object construction.

A run is described by a single JSON document (see ``SCHEMA``).  Unknown
keys are rejected so typos fail loudly, gains may be given in dB, and
every numeric bound is checked before any computation starts.  Schema
violations and semantic errors both surface as ``ConfigError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import jsonschema

from .atg3d import Atg3dScenario
from .channels import ATG_PRESETS, AtgEnvironment, FreeSpaceScenario
from .fbl import BlocklengthParams
from .oracle import DEFAULT_FIXED_HEIGHT, GridSpec

SCHEMA_VERSION = 1

SWEEP_PARAMETERS = ("total_blocklength", "packet_bits", "power_budget_w", "hop2_environment")

_ENV_OBJECT = {
    "type": "object",
    "additionalProperties": False,
    "required": ["a", "b", "excess_loss_los_db", "excess_loss_nlos_db"],
    "properties": {
        "a": {"type": "number", "exclusiveMinimum": 0},
        "b": {"type": "number", "exclusiveMinimum": 0},
        "excess_loss_los_db": {"type": "number"},
        "excess_loss_nlos_db": {"type": "number"},
    },
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "scenario_id", "model", "geometry",
                 "power_budget_w", "blocklength", "solvers"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "scenario_id": {"type": "string", "minLength": 1},
        "model": {"enum": ["freespace", "atg3d"]},
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "required": ["distance_m", "x_min_m", "x_max_m"],
            "properties": {
                "distance_m": {"type": "number", "exclusiveMinimum": 0},
                "x_min_m": {"type": "number", "minimum": 0},
                "x_max_m": {"type": "number", "exclusiveMinimum": 0},
                "height_m": {"type": "number", "exclusiveMinimum": 0},
                "height_min_m": {"type": "number", "exclusiveMinimum": 0},
                "height_max_m": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "gains_db": {
            "type": "object",
            "additionalProperties": False,
            "required": ["beta1_db", "beta2_db"],
            "properties": {
                "beta1_db": {"type": "number"},
                "beta2_db": {"type": "number"},
            },
        },
        "atg": {
            "type": "object",
            "additionalProperties": False,
            "required": ["carrier_hz", "noise_power_db", "hop1", "hop2"],
            "properties": {
                "carrier_hz": {"type": "number", "exclusiveMinimum": 0},
                "noise_power_db": {"type": "number"},
                "hop1": {"oneOf": [{"type": "string"}, _ENV_OBJECT]},
                "hop2": {"oneOf": [{"type": "string"}, _ENV_OBJECT]},
            },
        },
        "power_budget_w": {"type": "number", "exclusiveMinimum": 0},
        "blocklength": {
            "type": "object",
            "additionalProperties": False,
            "required": ["packet_bits"],
            "properties": {
                "packet_bits": {"type": "integer", "minimum": 1},
                "total_blocklength": {"type": "integer", "minimum": 2},
                "bandwidth_hz": {"type": "number", "exclusiveMinimum": 0},
                "latency_s": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "solvers": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "string"},
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["parameter", "values"],
            "properties": {
                "parameter": {"enum": list(SWEEP_PARAMETERS)},
                "values": {"type": "array"},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "x_points": {"type": "integer", "minimum": 2},
                "p1_points": {"type": "integer", "minimum": 2},
                "h_points": {"type": "integer", "minimum": 2},
            },
        },
        "fixed_height_m": {"type": "number", "exclusiveMinimum": 0},
        "profile": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "axis": {"enum": ["height", "x"]},
                "fixed_x_m": {"type": "number", "minimum": 0},
                "fixed_height_m": {"type": "number", "exclusiveMinimum": 0},
                "step_m": {"type": "number", "exclusiveMinimum": 0},
                "range": {
                    "type": "array", "items": {"type": "number"},
                    "minItems": 2, "maxItems": 2,
                },
                "hop2_presets": {
                    "type": "array", "minItems": 1,
                    "items": {"type": "string"},
                },
                "p1_w": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "csv": {"type": "string", "minLength": 1},
                "json": {"type": "string", "minLength": 1},
                "trace": {"type": "string", "minLength": 1},
            },
        },
    },
}


class ConfigError(Exception):
    """Raised for structurally or semantically invalid experiment configs."""


@dataclass(frozen=True)
class ProfileSpec:
    """Settings for SNR profile curves (air-to-ground model only)."""

    axis: str = "height"
    fixed_x_m: float | None = None
    fixed_height_m: float | None = None
    step_m: float = 1.0
    sample_range: tuple[float, float] | None = None
    hop2_presets: tuple[str, ...] = field(default_factory=lambda: tuple(ATG_PRESETS))
    p1_w: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description."""

    scenario_id: str
    model: str
    scenario: FreeSpaceScenario | Atg3dScenario
    blk: BlocklengthParams
    solvers: tuple[str, ...]
    sweep_parameter: str | None
    sweep_values: tuple
    grid: GridSpec | None
    fixed_height_m: float
    profile: ProfileSpec | None
    output_csv: str | None
    output_json: str | None
    output_trace: str | None


def _build_environment(spec, carrier_hz: float, noise_power_db: float) -> AtgEnvironment:
    if isinstance(spec, str):
        if spec not in ATG_PRESETS:
            raise ConfigError(
                f"unknown environment preset {spec!r}; expected one of {sorted(ATG_PRESETS)}"
            )
        return AtgEnvironment.from_preset(spec, carrier_hz, noise_power_db)
    return AtgEnvironment(
        spec["a"], spec["b"], spec["excess_loss_los_db"], spec["excess_loss_nlos_db"],
        carrier_hz, noise_power_db,
    )


def _build_blocklength(raw: dict) -> BlocklengthParams:
    has_m = "total_blocklength" in raw
    has_bw = "bandwidth_hz" in raw or "latency_s" in raw
    if has_bw and not ("bandwidth_hz" in raw and "latency_s" in raw):
        raise ConfigError("blocklength needs both bandwidth_hz and latency_s")
    if not has_m and not has_bw:
        raise ConfigError("blocklength needs total_blocklength or a bandwidth/latency pair")
    if has_m:
        return BlocklengthParams(
            raw["packet_bits"], raw["total_blocklength"],
            raw.get("bandwidth_hz"), raw.get("latency_s"),
        )
    return BlocklengthParams.from_bandwidth_latency(
        raw["packet_bits"], raw["bandwidth_hz"], raw["latency_s"]
    )


def _check_sweep(parameter: str | None, values, model: str) -> tuple:
    if parameter is None:
        return ()
    checked = []
    for v in values:
        if parameter == "total_blocklength":
            if not isinstance(v, int) or isinstance(v, bool) or v < 2 or v % 2:
                raise ConfigError(f"sweep value {v!r} is not a positive even blocklength")
        elif parameter == "packet_bits":
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ConfigError(f"sweep value {v!r} is not a positive packet size")
        elif parameter == "power_budget_w":
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v <= 0:
                raise ConfigError(f"sweep value {v!r} is not a positive power budget")
        elif parameter == "hop2_environment":
            if model != "atg3d":
                raise ConfigError("hop2_environment sweeps apply to the atg3d model only")
            if v not in ATG_PRESETS:
                raise ConfigError(
                    f"sweep value {v!r} is not an environment preset "
                    f"(expected one of {sorted(ATG_PRESETS)})"
                )
        checked.append(v)
    return tuple(checked)


def _check_finite(node, path: tuple = ()) -> None:
    # JSON-Schema "number" admits NaN and +-inf; no config value may be one
    if isinstance(node, float) and not math.isfinite(node):
        where = "/".join(str(p) for p in path) or "<root>"
        raise ConfigError(f"non-finite number {node} at {where} is not allowed in a config")
    if isinstance(node, dict):
        for key, value in node.items():
            _check_finite(value, path + (key,))
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            _check_finite(value, path + (i,))


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON document and build the experiment objects."""
    _check_finite(raw)
    try:
        jsonschema.validate(raw, SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config schema violation at {path}: {exc.message}") from None

    model = raw["model"]
    geo = raw["geometry"]
    blk = _build_blocklength(raw["blocklength"])

    try:
        if model == "freespace":
            if "gains_db" not in raw:
                raise ConfigError("freespace model requires a gains_db section")
            if "atg" in raw:
                raise ConfigError("atg section is not valid for the freespace model")
            if "height_m" not in geo:
                raise ConfigError("freespace geometry requires height_m")
            scenario = FreeSpaceScenario.from_db(
                geo["distance_m"], geo["height_m"], geo["x_min_m"], geo["x_max_m"],
                raw["gains_db"]["beta1_db"], raw["gains_db"]["beta2_db"],
                raw["power_budget_w"],
            )
        else:
            if "atg" not in raw:
                raise ConfigError("atg3d model requires an atg section")
            if "gains_db" in raw:
                raise ConfigError("gains_db section is not valid for the atg3d model")
            if "height_min_m" not in geo or "height_max_m" not in geo:
                raise ConfigError("atg3d geometry requires height_min_m and height_max_m")
            atg = raw["atg"]
            scenario = Atg3dScenario(
                geo["distance_m"], geo["x_min_m"], geo["x_max_m"],
                geo["height_min_m"], geo["height_max_m"],
                _build_environment(atg["hop1"], atg["carrier_hz"], atg["noise_power_db"]),
                _build_environment(atg["hop2"], atg["carrier_hz"], atg["noise_power_db"]),
                raw["power_budget_w"], blk,
            )
    except ValueError as exc:
        raise ConfigError(f"invalid scenario parameters: {exc}") from None
    except OverflowError:
        # a dB value so large that its linear scale exceeds the float range
        raise ConfigError("invalid scenario parameters: a dB value overflows the "
                          "linear scale") from None

    # imported here because the harness imports this module
    from .harness import check_solvers

    solvers = tuple(raw["solvers"])
    check_solvers(model, solvers)

    sweep = raw.get("sweep")
    sweep_parameter = sweep["parameter"] if sweep else None
    sweep_values = _check_sweep(sweep_parameter, sweep["values"] if sweep else (), model)

    grid = None
    if "grid" in raw:
        g = raw["grid"]
        try:
            grid = GridSpec.with_points(
                scenario, g.get("x_points"), g.get("p1_points"), g.get("h_points")
            )
        except ValueError as exc:
            raise ConfigError(f"invalid grid: {exc}") from None

    fixed_height = raw.get("fixed_height_m", DEFAULT_FIXED_HEIGHT)
    if model == "atg3d" and not (scenario.h_min <= fixed_height <= scenario.h_max):
        raise ConfigError(
            f"fixed_height_m = {fixed_height} outside the height band "
            f"[{scenario.h_min}, {scenario.h_max}]"
        )

    profile = None
    if "profile" in raw:
        if model != "atg3d":
            raise ConfigError("profile section applies to the atg3d model only")
        p = raw["profile"]
        for preset in p.get("hop2_presets", ()):
            if preset not in ATG_PRESETS:
                raise ConfigError(f"unknown environment preset {preset!r} in profile")
        rng = p.get("range")
        if rng is not None and rng[0] > rng[1]:
            raise ConfigError(f"profile range is empty: {rng}")
        # the schema's "range" is ProfileSpec.sample_range; lists become tuples
        profile = ProfileSpec(**{
            "sample_range" if key == "range" else key:
                tuple(value) if isinstance(value, list) else value
            for key, value in p.items()
        })
        if profile.p1_w is not None and profile.p1_w >= raw["power_budget_w"]:
            raise ConfigError("profile p1_w must leave the relay a positive power")

    out = raw.get("output", {})
    return ExperimentConfig(
        scenario_id=raw["scenario_id"],
        model=model,
        scenario=scenario,
        blk=blk,
        solvers=solvers,
        sweep_parameter=sweep_parameter,
        sweep_values=sweep_values,
        grid=grid,
        fixed_height_m=fixed_height,
        profile=profile,
        output_csv=out.get("csv"),
        output_json=out.get("json"),
        output_trace=out.get("trace"),
    )


def load_config(path: str) -> ExperimentConfig:
    """Read and validate an experiment config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(raw)
