"""Experiment configuration: one-pass JSON checks and object construction.

A run is described by a single JSON document whose keys and value types
are listed, per model, in ``_CONFIG``.  Unknown keys, including those of
the other model, are rejected so typos fail loudly, gains may be given in
dB, and every number must be finite.  The constructors check every other
rule, so a config built with ``replace`` is checked like a
parsed one, and every sweep point is built through ``_SWEEPS``.  Every
violation surfaces as ``ConfigError`` before any computation starts.
"""

from __future__ import annotations

import json
import math
import numbers

from ._record import Record, replace, set_field
from .channels import ATG_PRESETS, Atg3dScenario, AtgEnvironment, FreeSpaceScenario
from .fbl import BlocklengthParams

SCHEMA_VERSION = 1

# Caps on the work one command may ask for: the samples of one profile
# curve, and the oracle grid points per axis and over the whole grid.
MAX_PROFILE_SAMPLES = 100_000
MAX_GRID_AXIS_POINTS = 100_000
MAX_GRID_POINTS = 10 ** 9

# Default grid density per axis: dense for the two-variable model, coarser
# for the three-variable one.
DEFAULT_POINTS_2D = 2000
DEFAULT_POINTS_3D = 200

# Default pinned flying height of the fixed-height baseline, in metres.
DEFAULT_FIXED_HEIGHT = 100.0


class GridSpec(Record):
    """Points per axis of the exhaustive search.

    Each axis spans the scenario bounds (the full power budget for p1);
    an unset count takes the model's default.  The height axis h exists
    in the air-to-ground model only.
    """

    __slots__ = ("x", "p1", "h")

    def __init__(self, x: int | None = None, p1: int | None = None, h: int | None = None):
        for n in (x, p1, h):
            if n is not None and n < 2:
                raise ValueError(f"need at least 2 points per axis, got {n}")
        set_field(self, "x", x)
        set_field(self, "p1", p1)
        set_field(self, "h", h)


def _with_env2(scn: Atg3dScenario, name: str) -> Atg3dScenario:
    # the scenario with hop 2 in the named preset, at the same carrier and noise
    env2 = AtgEnvironment.from_preset(name, scn.env2.carrier_hz, scn.env2.noise_power_db)
    return replace(scn, env2=env2)


# Each sweep parameter: the JSON type of its values and how one value is
# applied to the base (scenario, blocklength).  The scenario and
# blocklength constructors check the bounds of the result.
_SWEEPS = {
    "total_blocklength": ("int", lambda scn, blk, v: (
        scn, BlocklengthParams(blk.packet_bits, v))),
    "packet_bits": ("int", lambda scn, blk, v: (
        scn, BlocklengthParams(v, blk.total_blocklength))),
    "power_budget_w": ("number", lambda scn, blk, v: (replace(scn, p_total=float(v)), blk)),
    "hop2_environment": (set(ATG_PRESETS), lambda scn, blk, v: (_with_env2(scn, v), blk)),
}
_MODEL_SWEEPS = {"freespace": set(_SWEEPS) - {"hop2_environment"}, "atg3d": set(_SWEEPS)}

# Each model's config as (required keys, optional keys), each key with the
# JSON type of its value: "number" excludes bool and must be finite,
# "integer" also admits integral floats while "int" does not, "positive"
# is a number > 0, "string" is non-empty, a set lists the allowed strings,
# a one-item list is a non-empty list of that type, "array" is any list
# and "environment" a preset name or _ENVIRONMENT.  A model refuses every
# key its table does not list.  Bounds and rules that a constructor checks
# are left to it.
_ENVIRONMENT = ({"a": "number", "b": "number", "excess_loss_los_db": "number",
                 "excess_loss_nlos_db": "number"}, {})
_GEOMETRY = {"distance_m": "number", "x_min_m": "number", "x_max_m": "number"}
_GRID = {"x_points": "integer", "p1_points": "integer"}
_REQUIRED = {
    "schema_version": "integer",
    "scenario_id": "string",
    "model": {"freespace", "atg3d"},
    "power_budget_w": "number",
    "blocklength": ({"packet_bits": "integer"},
                    {"total_blocklength": "integer", "bandwidth_hz": "positive",
                     "latency_s": "positive"}),
    "solvers": ["string"],
}
_OUTPUT = ({}, {"csv": "string", "json": "string", "trace": "string"})
_CONFIG = {
    "freespace": (
        {**_REQUIRED, "geometry": ({**_GEOMETRY, "height_m": "number"}, {}),
         "gains_db": ({"beta1_db": "number", "beta2_db": "number"}, {})},
        {"sweep": ({"parameter": "string", "values": "array"}, {}),
         "grid": ({}, _GRID),
         "output": _OUTPUT},
    ),
    "atg3d": (
        {**_REQUIRED,
         "geometry": ({**_GEOMETRY, "height_min_m": "number", "height_max_m": "number"}, {}),
         "atg": ({"carrier_hz": "number", "noise_power_db": "number",
                  "hop1": "environment", "hop2": "environment"}, {})},
        {"sweep": ({"parameter": "string", "values": "array"}, {}),
         "grid": ({}, {**_GRID, "h_points": "integer"}),
         "fixed_height_m": "positive",
         "profile": ({}, {"axis": "string", "fixed_x_m": "non-negative",
                          "fixed_height_m": "positive", "step_m": "positive",
                          "range": ["number"], "hop2_presets": [set(ATG_PRESETS)],
                          "p1_w": "positive"}),
         "output": _OUTPUT},
    ),
}


class ConfigError(Exception):
    """Raised for structurally or semantically invalid experiment configs."""


class ProfileSpec(Record):
    """Settings for SNR profile curves (air-to-ground model only)."""

    __slots__ = ("axis", "fixed_x_m", "fixed_height_m", "step_m", "sample_range",
                 "hop2_presets", "p1_w")

    def __init__(self, axis: str = "height", fixed_x_m: float | None = None,
                 fixed_height_m: float | None = None, step_m: float = 1.0,
                 sample_range: tuple[float, float] | None = None,
                 hop2_presets: tuple[str, ...] = tuple(ATG_PRESETS), p1_w: float | None = None):
        if not (isinstance(axis, str) and axis in ("height", "x")):
            _fail(("profile", "axis"), f"{axis!r} is not one of ['height', 'x']")
        if sample_range is not None and (len(sample_range) != 2
                                         or sample_range[0] > sample_range[1]):
            raise ConfigError(
                f"profile range must be [low, high] with low <= high: {list(sample_range)}")
        set_field(self, "axis", axis)
        set_field(self, "fixed_x_m", fixed_x_m)
        set_field(self, "fixed_height_m", fixed_height_m)
        set_field(self, "step_m", step_m)
        set_field(self, "sample_range", sample_range)
        set_field(self, "hop2_presets", hop2_presets)
        set_field(self, "p1_w", p1_w)


class ExperimentConfig(Record):
    """Fully validated experiment description, checked across its fields."""

    # model, the channel model, is named by the scenario's type; fixed_height_m,
    # the fixed-height baseline's pinned height, is atg3d only and
    # DEFAULT_FIXED_HEIGHT when unset
    __slots__ = ("scenario_id", "model", "scenario", "blk", "solvers", "sweep_parameter",
                 "sweep_values", "grid", "fixed_height_m", "profile", "output_csv",
                 "output_json", "output_trace")
    _derived = ("model",)

    def __init__(self, scenario_id: str, scenario: FreeSpaceScenario | Atg3dScenario,
                 blk: BlocklengthParams, solvers: tuple[str, ...], sweep_parameter: str | None,
                 sweep_values: tuple, grid: GridSpec | None, fixed_height_m: float | None,
                 profile: ProfileSpec | None, output_csv: str | None, output_json: str | None,
                 output_trace: str | None):
        from .harness import SOLVERS  # imported here: the harness imports this module

        set_field(self, "scenario_id", scenario_id)
        set_field(self, "model", "atg3d" if isinstance(scenario, Atg3dScenario) else "freespace")
        set_field(self, "scenario", scenario)
        set_field(self, "blk", blk)
        set_field(self, "solvers", solvers)
        set_field(self, "sweep_parameter", sweep_parameter)
        set_field(self, "sweep_values", sweep_values)
        set_field(self, "grid", grid)
        set_field(self, "fixed_height_m", fixed_height_m)
        set_field(self, "profile", profile)
        set_field(self, "output_csv", output_csv)
        set_field(self, "output_json", output_json)
        set_field(self, "output_trace", output_trace)
        param, values, scn = sweep_parameter, sweep_values, scenario
        sweeps = _MODEL_SWEEPS[self.model]
        if param is not None and not (isinstance(param, str) and param in sweeps):
            _fail(("sweep", "parameter"), f"{param!r} is not one of {sorted(sweeps)}")
        # a repeated solver would write its rows twice under one trace key
        allowed = SOLVERS[self.model]
        for i, name in enumerate(self.solvers):
            if name not in allowed:
                raise ConfigError(f"solver {name!r} is not available for the {self.model} "
                                  f"model (choose from {list(allowed)})")
            if name in self.solvers[:i]:
                raise ConfigError(f"solvers name {name!r} more than once")
        if self.model != "atg3d":
            if self.fixed_height_m is not None:
                _fail((), "unknown key 'fixed_height_m'")
        else:
            if self.fixed_height_m is None:
                set_field(self, "fixed_height_m", DEFAULT_FIXED_HEIGHT)
            if not (scn.h_min <= self.fixed_height_m <= scn.h_max):
                raise ConfigError(f"fixed_height_m = {self.fixed_height_m} outside the height "
                                  f"band [{scn.h_min}, {scn.h_max}]")
        if self.profile is not None and self.model != "atg3d":
            _fail((), "unknown key 'profile'")
        if self.profile is not None and self.profile.p1_w is not None \
                and self.profile.p1_w >= scn.p_total:
            raise ConfigError("profile p1_w must leave the relay a positive power")
        if self.grid is not None:
            if self.model != "atg3d" and self.grid.h is not None:
                _fail(("grid",), "unknown key 'h_points'")
            # an unset axis counts with the model's default
            default = DEFAULT_POINTS_3D if self.model == "atg3d" else DEFAULT_POINTS_2D
            axes = ("x", "p1", "h")[:3 if self.model == "atg3d" else 2]
            points = {f"{axis}_points": getattr(self.grid, axis) or default for axis in axes}
            if (max(points.values()) > MAX_GRID_AXIS_POINTS
                    or math.prod(points.values()) > MAX_GRID_POINTS):
                raise ConfigError(f"invalid grid: {points} exceeds {MAX_GRID_AXIS_POINTS} "
                                  f"points per axis or {MAX_GRID_POINTS} in all")
        if param is None:
            return
        if not values:
            _fail(("sweep", "values"), "a sweep needs at least one value")
        # build every sweep point once, so an unusable value fails here; a
        # repeated value (compared with ==, so 2 repeats 2.0) would write its
        # rows twice under one trace key
        for i, value in enumerate(values):
            path = ("sweep", "values", i)
            _check(value, _SWEEPS[param][0], path)
            first = values.index(value)
            if first < i:
                _fail(path, f"sweep value {value!r} repeats sweep/values/{first}")
            try:
                self.point(value)
            except (ValueError, ArithmeticError) as exc:
                _fail(path, f"sweep value {value!r} is not usable: {exc}")

    def point(self, value=None) -> tuple[FreeSpaceScenario | Atg3dScenario, BlocklengthParams]:
        """The scenario and blocklength at one sweep value (None: the base)."""
        if value is None:
            return self.scenario, self.blk
        return _SWEEPS[self.sweep_parameter][1](self.scenario, self.blk, value)


def _where(path: tuple) -> str:
    return "/".join(map(str, path)) or "<root>"


def _fail(path: tuple, message: str):
    raise ConfigError(f"config schema violation at {_where(path)}: {message}")


def _is_number(node) -> bool:
    return isinstance(node, numbers.Real) and not isinstance(node, bool)


def _check_number(node, kind: str, path: tuple) -> None:
    if not _is_number(node):
        _fail(path, f"{node!r} is not a number")
    try:
        finite = math.isfinite(node)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"non-finite number {node} at {_where(path)} is not allowed in a config")
    if (kind == "integer" and not float(node).is_integer()) or (
            kind == "int" and not isinstance(node, int)):
        _fail(path, f"{node!r} is not an integer")
    if (kind == "positive" and not node > 0) or (kind == "non-negative" and node < 0):
        _fail(path, f"{node!r} is not {kind}")


def _check(node, spec, path: tuple = ()) -> None:
    """Raise ConfigError at the first place where node does not match spec."""
    if spec == "environment":
        spec = "string" if isinstance(node, str) else _ENVIRONMENT
    if isinstance(spec, tuple):
        required, optional = spec
        if not isinstance(node, dict):
            _fail(path, f"{node!r} is not an object")
        for key in required:
            if key not in node:
                _fail(path, f"missing key {key!r}")
        fields = {**required, **optional}
        for key, value in node.items():
            if key not in fields:
                _fail(path, f"unknown key {key!r}")
            _check(value, fields[key], path + (key,))
    elif spec == "array":
        if not isinstance(node, list):
            _fail(path, f"{node!r} is not a list")
    elif isinstance(spec, list):
        if not (isinstance(node, list) and node):
            _fail(path, f"{node!r} is not a non-empty list")
        for i, item in enumerate(node):
            _check(item, spec[0], path + (i,))
    elif spec == "string":
        if not (isinstance(node, str) and node):
            _fail(path, f"{node!r} is not a non-empty string")
    elif isinstance(spec, set):
        if not (isinstance(node, str) and node in spec):
            _fail(path, f"{node!r} is not one of {sorted(spec)}")
    else:
        _check_number(node, spec, path)


def _build_environment(spec, carrier_hz: float, noise_power_db: float) -> AtgEnvironment:
    if isinstance(spec, str):
        return AtgEnvironment.from_preset(spec, carrier_hz, noise_power_db)
    return AtgEnvironment(
        spec["a"], spec["b"], spec["excess_loss_los_db"], spec["excess_loss_nlos_db"],
        carrier_hz, noise_power_db,
    )


def _build_blocklength(raw: dict) -> BlocklengthParams:
    try:
        if "total_blocklength" in raw:
            return BlocklengthParams(
                raw["packet_bits"], raw["total_blocklength"],
                raw.get("bandwidth_hz"), raw.get("latency_s"),
            )
        return BlocklengthParams.from_bandwidth_latency(
            raw["packet_bits"], raw["bandwidth_hz"], raw["latency_s"]
        )
    except KeyError:
        _fail(("blocklength",), "needs total_blocklength or both bandwidth_hz and latency_s")
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid blocklength: {exc}") from None


def build_grid(model: str, counts: dict) -> GridSpec:
    """The oracle grid of a config's grid section or of ``--grid``."""
    _check(counts, _CONFIG[model][1]["grid"], ("grid",))
    try:
        return GridSpec(*(None if key not in counts else int(counts[key])
                          for key in ("x_points", "p1_points", "h_points")))
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from None


def profile_coordinates(lo: float, hi: float, step) -> list[float]:
    """The samples lo, lo + step, lo + 2 step, ... of a profile up to hi.

    The one check of a profile step, whether it comes from the config's
    ``profile.step_m`` or from ``--step``: it must be positive and finite,
    and give at most MAX_PROFILE_SAMPLES samples, counted before any is
    made.  The samples are running sums, as the profile rows print them.
    """
    if not (step > 0.0 and math.isfinite(step)):
        raise ConfigError(f"profile step must be positive and finite, got {step}")
    coords = [lo]
    if (hi - lo) / step < MAX_PROFILE_SAMPLES:
        # the length bound stops sums that stall below the spacing of the floats
        while len(coords) <= MAX_PROFILE_SAMPLES and coords[-1] + step <= hi + 1e-9 * step:
            coords.append(coords[-1] + step)
        if len(coords) <= MAX_PROFILE_SAMPLES:
            return coords
    raise ConfigError(f"profile step {step} gives more than {MAX_PROFILE_SAMPLES} "
                      f"samples on [{lo}, {hi}]")


def parse_config(raw: dict) -> ExperimentConfig:
    """Check a raw JSON document's keys and types and build the experiment objects."""
    # a missing or unknown model fails the model check of either config
    model = "atg3d" if isinstance(raw, dict) and raw.get("model") == "atg3d" else "freespace"
    _check(raw, _CONFIG[model])
    if raw["schema_version"] != SCHEMA_VERSION:
        _fail(("schema_version",), f"{raw['schema_version']!r} is not {SCHEMA_VERSION}")
    geo = raw["geometry"]
    blk = _build_blocklength(raw["blocklength"])

    try:
        if model == "freespace":
            scenario = FreeSpaceScenario.from_db(
                geo["distance_m"], geo["height_m"], geo["x_min_m"], geo["x_max_m"],
                raw["gains_db"]["beta1_db"], raw["gains_db"]["beta2_db"],
                raw["power_budget_w"],
            )
        else:
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

    profile = None
    if "profile" in raw:
        # the config's "range" is ProfileSpec.sample_range; lists become tuples
        profile = ProfileSpec(**{
            "sample_range" if key == "range" else key:
                tuple(value) if isinstance(value, list) else value
            for key, value in raw["profile"].items()
        })

    sweep = raw.get("sweep", {"parameter": None, "values": []})
    out = raw.get("output", {})
    return ExperimentConfig(
        scenario_id=raw["scenario_id"],
        scenario=scenario,
        blk=blk,
        solvers=tuple(raw["solvers"]),
        sweep_parameter=sweep["parameter"],
        sweep_values=tuple(sweep["values"]),
        grid=build_grid(model, raw["grid"]) if "grid" in raw else None,
        fixed_height_m=raw.get("fixed_height_m"),
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(raw)
