"""Config schema and semantic validation."""

import copy
import json
import math
from pathlib import Path

import pytest

from uavrelay import (
    Atg3dScenario,
    ConfigError,
    FreeSpaceScenario,
    GridSpec,
    ProfileSpec,
    load_config,
    parse_config,
    replace,
    run_experiment,
)
from uavrelay.config import (
    MAX_GRID_AXIS_POINTS,
    MAX_GRID_POINTS,
    MAX_PROFILE_SAMPLES,
    profile_coordinates,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

FREESPACE_RAW = {
    "schema_version": 1,
    "scenario_id": "fs",
    "model": "freespace",
    "geometry": {"distance_m": 200.0, "x_min_m": 30.0, "x_max_m": 170.0, "height_m": 120.0},
    "gains_db": {"beta1_db": 50.0, "beta2_db": 59.0},
    "power_budget_w": 4.0,
    "blocklength": {"packet_bits": 100, "total_blocklength": 80},
    "solvers": ["bcd", "exhaustive"],
}

ATG3D_RAW = {
    "schema_version": 1,
    "scenario_id": "atg",
    "model": "atg3d",
    "geometry": {
        "distance_m": 200.0,
        "x_min_m": 20.0,
        "x_max_m": 200.0,
        "height_min_m": 10.0,
        "height_max_m": 200.0,
    },
    "atg": {
        "carrier_hz": 2.5e9,
        "noise_power_db": -93.0,
        "hop1": "suburban",
        "hop2": "urban",
    },
    "power_budget_w": 4.0,
    "blocklength": {"packet_bits": 100, "total_blocklength": 80},
    "solvers": ["bcd", "fixed-height"],
}


def variant(base, **changes):
    raw = copy.deepcopy(base)
    raw.update(changes)
    return raw


def test_freespace_roundtrip():
    cfg = parse_config(copy.deepcopy(FREESPACE_RAW))
    assert cfg.model == "freespace"
    assert isinstance(cfg.scenario, FreeSpaceScenario)
    assert cfg.scenario.D == 200.0
    assert cfg.scenario.beta1 == pytest.approx(1e5)
    assert cfg.blk.total_blocklength == 80
    assert cfg.solvers == ("bcd", "exhaustive")
    assert cfg.sweep_parameter is None
    assert cfg.sweep_values == ()


def test_atg3d_roundtrip():
    cfg = parse_config(copy.deepcopy(ATG3D_RAW))
    assert isinstance(cfg.scenario, Atg3dScenario)
    assert cfg.scenario.env1.s_curve_a == 4.88
    assert cfg.scenario.env2.s_curve_a == 9.61
    assert cfg.scenario.blk is cfg.blk


@pytest.mark.parametrize("changes", [{}, {"solvers": ("bcd",)}])
@pytest.mark.parametrize("name", sorted(path.name for path in CONFIGS.glob("*.json")))
def test_a_scenario_of_the_other_model_is_refused_or_followed(name, changes):
    # the model is the scenario's: a shipped config given the other model's
    # scenario is refused, or runs as that model without an error row
    cfg = load_config(str(CONFIGS / name))
    other = {"freespace": "atg3d_environments.json", "atg3d": "freespace.json"}[cfg.model]
    scenario = load_config(str(CONFIGS / other)).scenario
    try:
        swapped = replace(cfg, scenario=scenario, **changes)
    except ConfigError:
        return
    assert swapped.model == ("atg3d" if isinstance(scenario, Atg3dScenario) else "freespace")
    rows, _, failures = run_experiment(swapped)
    assert failures == 0
    assert all(row["status"] == "ok" for row in rows)


def test_atg3d_explicit_environment():
    raw = copy.deepcopy(ATG3D_RAW)
    raw["atg"]["hop2"] = {
        "a": 9.61, "b": 0.16,
        "excess_loss_los_db": 1.0, "excess_loss_nlos_db": 20.0,
    }
    cfg = parse_config(raw)
    assert cfg.scenario.env2.s_curve_b == 0.16


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="schema violation"):
        parse_config(variant(FREESPACE_RAW, typo_key=1))


def test_unknown_nested_key_rejected():
    raw = copy.deepcopy(FREESPACE_RAW)
    raw["geometry"]["altitude_m"] = 5.0
    with pytest.raises(ConfigError, match="schema violation"):
        parse_config(raw)


def test_missing_required_key():
    raw = copy.deepcopy(FREESPACE_RAW)
    del raw["power_budget_w"]
    with pytest.raises(ConfigError, match="schema violation"):
        parse_config(raw)


def test_wrong_schema_version():
    with pytest.raises(ConfigError, match="schema"):
        parse_config(variant(FREESPACE_RAW, schema_version=2))


def test_model_section_mismatches():
    with pytest.raises(ConfigError, match="missing key 'gains_db'"):
        raw = copy.deepcopy(FREESPACE_RAW)
        del raw["gains_db"]
        parse_config(raw)
    with pytest.raises(ConfigError, match="missing key 'atg'"):
        raw = copy.deepcopy(ATG3D_RAW)
        del raw["atg"]
        parse_config(raw)
    with pytest.raises(ConfigError, match="unknown key 'atg'"):
        parse_config(variant(FREESPACE_RAW, atg=copy.deepcopy(ATG3D_RAW["atg"])))
    with pytest.raises(ConfigError, match="unknown key 'gains_db'"):
        parse_config(variant(ATG3D_RAW, gains_db=copy.deepcopy(FREESPACE_RAW["gains_db"])))
    # the fixed-height baseline exists in the air-to-ground model only
    with pytest.raises(ConfigError, match="at <root>: unknown key 'fixed_height_m'"):
        parse_config(variant(FREESPACE_RAW, fixed_height_m=5000.0))
    with pytest.raises(ConfigError, match="height_m"):
        raw = copy.deepcopy(FREESPACE_RAW)
        del raw["geometry"]["height_m"]
        parse_config(raw)
    with pytest.raises(ConfigError, match="missing key 'height_max_m'"):
        raw = copy.deepcopy(ATG3D_RAW)
        del raw["geometry"]["height_max_m"]
        parse_config(raw)
    # each model refuses the other model's height keys
    for base, key, value in ((FREESPACE_RAW, "height_min_m", 10.0),
                             (FREESPACE_RAW, "height_max_m", 200.0),
                             (ATG3D_RAW, "height_m", 120.0)):
        raw = copy.deepcopy(base)
        raw["geometry"][key] = value
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(raw)


def test_bad_geometry_reported_as_config_error():
    raw = copy.deepcopy(FREESPACE_RAW)
    raw["geometry"]["x_min_m"] = 180.0  # above x_max
    with pytest.raises(ConfigError, match="invalid scenario parameters"):
        parse_config(raw)


def test_solver_whitelist_per_model():
    with pytest.raises(ConfigError, match="high-snr"):
        parse_config(variant(ATG3D_RAW, solvers=["high-snr"]))
    with pytest.raises(ConfigError, match="fixed-height"):
        parse_config(variant(FREESPACE_RAW, solvers=["fixed-height"]))


def test_unknown_environment_preset():
    raw = copy.deepcopy(ATG3D_RAW)
    raw["atg"]["hop1"] = "desert"
    with pytest.raises(ConfigError, match="desert"):
        parse_config(raw)


def test_sweep_validation():
    ok = variant(
        FREESPACE_RAW,
        sweep={"parameter": "total_blocklength", "values": [60, 80, 100]},
    )
    cfg = parse_config(ok)
    assert cfg.sweep_parameter == "total_blocklength"
    assert cfg.sweep_values == (60, 80, 100)

    with pytest.raises(ConfigError, match="at sweep/values/0: .*even"):
        parse_config(variant(
            FREESPACE_RAW, sweep={"parameter": "total_blocklength", "values": [61]}
        ))
    for value, what in ((True, "a number"), (80.0, "an integer")):
        with pytest.raises(ConfigError, match=f"at sweep/values/0: .* is not {what}"):
            parse_config(variant(
                FREESPACE_RAW, sweep={"parameter": "total_blocklength", "values": [value]}
            ))
    with pytest.raises(ConfigError, match="at sweep/values/0: .*p_total must be positive"):
        parse_config(variant(
            FREESPACE_RAW, sweep={"parameter": "power_budget_w", "values": [0.0]}
        ))
    with pytest.raises(ConfigError, match="at sweep/parameter: 'hop2_environment' is not one"):
        parse_config(variant(
            FREESPACE_RAW,
            sweep={"parameter": "hop2_environment", "values": ["urban"]},
        ))
    with pytest.raises(ConfigError, match="schema violation"):
        parse_config(variant(
            FREESPACE_RAW, sweep={"parameter": "carrier_hz", "values": [1e9]}
        ))


def test_empty_sweep_values_refused():
    with pytest.raises(ConfigError, match="at sweep/values: a sweep needs at least one value"):
        parse_config(variant(
            FREESPACE_RAW, sweep={"parameter": "total_blocklength", "values": []}
        ))


def test_repeated_sweep_values_and_solvers_refused():
    # values compare with ==, so 2 repeats 2.0
    with pytest.raises(ConfigError, match="at sweep/values/1: .* repeats sweep/values/0"):
        parse_config(variant(
            FREESPACE_RAW, sweep={"parameter": "power_budget_w", "values": [2.0, 2]}
        ))
    with pytest.raises(ConfigError, match="at sweep/values/2: .* repeats sweep/values/0"):
        parse_config(variant(
            ATG3D_RAW, sweep={"parameter": "hop2_environment",
                              "values": ["urban", "high-rise", "urban"]}
        ))
    with pytest.raises(ConfigError, match="solvers name 'bcd' more than once"):
        parse_config(variant(FREESPACE_RAW, solvers=["bcd", "exhaustive", "bcd"]))


def test_grid_points():
    cfg = parse_config(variant(FREESPACE_RAW, grid={"x_points": 100, "p1_points": 50}))
    assert cfg.grid == GridSpec(x=100, p1=50)
    cfg = parse_config(variant(ATG3D_RAW, grid={"h_points": 30.0}))
    assert cfg.grid == GridSpec(h=30) and isinstance(cfg.grid.h, int)
    with pytest.raises(ConfigError, match="at grid: unknown key 'h_points'"):
        parse_config(variant(FREESPACE_RAW, grid={"h_points": 100}))
    with pytest.raises(ConfigError, match="at least 2 points"):
        parse_config(variant(FREESPACE_RAW, grid={"x_points": 1}))
    # a count built outside the parser is checked as strictly: no float, no bool
    grid = GridSpec(x=3, p1=20)
    for count in (3.0, True, "3"):
        with pytest.raises(ValueError, match=f"integer of at least 2 points per axis, "
                                             f"got {count!r}"):
            replace(grid, x=count)


def test_grid_points_are_capped():
    # per axis, and over the grid with the model's defaults for unset axes
    top = MAX_GRID_AXIS_POINTS
    assert parse_config(variant(FREESPACE_RAW, grid={"x_points": top, "p1_points": 10})
                        ).grid == GridSpec(x=top, p1=10)
    # 1000 x 1000 x 1000 points make the whole-grid cap
    assert MAX_GRID_POINTS == 10 ** 9
    assert parse_config(variant(ATG3D_RAW, grid={"x_points": 1000, "h_points": 1000,
                                                 "p1_points": 1000})).grid
    for grid in ({"x_points": top + 1},
                 {"x_points": 1000, "h_points": 1000, "p1_points": 1001},
                 {"x_points": top, "p1_points": 10_001},
                 {"x_points": 100_000_000}):
        model = ATG3D_RAW if "h_points" in grid else FREESPACE_RAW
        with pytest.raises(ConfigError, match="invalid grid"):
            parse_config(variant(model, grid=grid))


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e-12])
def test_profile_step_must_be_finite_and_give_few_samples(step):
    with pytest.raises(ConfigError, match="profile step"):
        profile_coordinates(10.0, 200.0, step)


def test_profile_samples_are_capped():
    # the running sums of the profile rows, up to the cap and no further
    assert profile_coordinates(10.0, 13.0, 1.5) == [10.0, 11.5, 13.0]
    assert len(profile_coordinates(0.0, MAX_PROFILE_SAMPLES - 1.0, 1.0)) == MAX_PROFILE_SAMPLES
    with pytest.raises(ConfigError, match="more than"):
        profile_coordinates(0.0, float(MAX_PROFILE_SAMPLES), 1.0)
    # near 1e17 the floats are 16 apart, so 1e17 + 0.5 == 1e17 and the sums stall
    with pytest.raises(ConfigError, match="more than"):
        profile_coordinates(1e17, 1e17 + 1024.0, 0.5)


def test_fixed_height_bounds():
    cfg = parse_config(copy.deepcopy(ATG3D_RAW))
    assert cfg.fixed_height_m == 100.0
    # unset on free space, where no solver reads it; a replace() back to
    # unset on atg3d takes the default again
    assert load_config(str(CONFIGS / "freespace.json")).fixed_height_m is None
    assert replace(cfg, fixed_height_m=None).fixed_height_m == 100.0
    with pytest.raises(ConfigError, match="fixed_height_m"):
        parse_config(variant(ATG3D_RAW, fixed_height_m=300.0))


def test_profile_validation():
    cfg = parse_config(variant(ATG3D_RAW, profile={"axis": "height", "fixed_x_m": 100.0}))
    assert cfg.profile.axis == "height"
    assert cfg.profile.hop2_presets == ("suburban", "urban", "dense-urban", "high-rise")
    with pytest.raises(ConfigError, match="unknown key 'profile'"):
        parse_config(variant(FREESPACE_RAW, profile={"axis": "height"}))
    with pytest.raises(ConfigError, match="at profile/hop2_presets/1: 'moon' is not one of"):
        parse_config(variant(ATG3D_RAW, profile={"hop2_presets": ["urban", "moon"]}))
    with pytest.raises(ConfigError, match="range"):
        parse_config(variant(ATG3D_RAW, profile={"range": [150.0, 50.0]}))
    with pytest.raises(ConfigError, match="p1_w"):
        parse_config(variant(ATG3D_RAW, profile={"p1_w": 4.0}))


def test_blocklength_from_bandwidth_latency():
    raw = copy.deepcopy(FREESPACE_RAW)
    raw["blocklength"] = {"packet_bits": 100, "bandwidth_hz": 80e3, "latency_s": 1e-3}
    cfg = parse_config(raw)
    assert cfg.blk.total_blocklength == 80
    raw["blocklength"] = {"packet_bits": 100, "bandwidth_hz": 80e3}
    with pytest.raises(ConfigError, match="latency"):
        parse_config(raw)
    raw["blocklength"] = {"packet_bits": 100}
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(arr))


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(FREESPACE_RAW))
    cfg = load_config(str(path))
    assert cfg.scenario_id == "fs"


def test_shipped_example_configs_parse():
    configs_dir = Path(__file__).resolve().parent.parent / "configs"
    for name in (
        "freespace.json",
        "freespace_blocklength_sweep.json",
        "atg3d_environments.json",
        "atg3d_height_profile.json",
    ):
        cfg = load_config(str(configs_dir / name))
        assert cfg.scenario_id


@pytest.mark.parametrize(
    "section, key, value, where",
    [
        ("gains_db", "beta1_db", float("inf"), "gains_db/beta1_db"),
        ("atg", "noise_power_db", float("nan"), "atg/noise_power_db"),
        ("sweep", "values", [60, float("inf")], "sweep/values/1"),
    ],
)
def test_parse_config_rejects_non_finite_numbers(section, key, value, where):
    # the library entry point, without the JSON parser in front of it
    base = ATG3D_RAW if section == "atg" else FREESPACE_RAW
    raw = variant(base)
    if section == "sweep":
        raw["sweep"] = {"parameter": "total_blocklength", "values": value}
    else:
        raw[section] = {**raw[section], key: value}
    with pytest.raises(ConfigError, match=f"non-finite number .* at {where} "):
        parse_config(raw)


def test_load_config_rejects_overflowing_literal(tmp_path):
    # 1e999 parses to inf without being one of the NaN/Infinity constants
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(FREESPACE_RAW).replace("4.0", "1e999"))
    with pytest.raises(ConfigError, match="non-finite number inf at power_budget_w"):
        load_config(str(path))


def _set_profile(raw, **changes):
    raw["profile"].update(changes)


# One case per rule that the config types check: a shipped config, the
# rule broken with replace on the parsed config, the same
# change made to its JSON, and a part of the message both must give.
RULES_IN_CODE = {
    "sweep-parameter-of-the-model": (
        "freespace.json",
        lambda cfg: replace(cfg, sweep_parameter="hop2_environment", sweep_values=("urban",)),
        lambda raw: raw.update(sweep={"parameter": "hop2_environment", "values": ["urban"]}),
        "at sweep/parameter: 'hop2_environment' is not one of"),
    "unknown-solver": (
        "freespace.json",
        lambda cfg: replace(cfg, solvers=("bcd", "nope")),
        lambda raw: raw.update(solvers=["bcd", "nope"]),
        "solver 'nope' is not available for the freespace model"),
    "repeated-solver": (
        "freespace.json",
        lambda cfg: replace(cfg, solvers=("bcd", "bcd")),
        lambda raw: raw.update(solvers=["bcd", "bcd"]),
        "solvers name 'bcd' more than once"),
    "fixed-height-outside-the-band": (
        "atg3d_environments.json",
        lambda cfg: replace(cfg, fixed_height_m=1e6),
        lambda raw: raw.update(fixed_height_m=1e6),
        "outside the height band"),
    "fixed-height-on-free-space": (
        "freespace.json",
        lambda cfg: replace(cfg, fixed_height_m=1e6, solvers=("bcd",)),
        lambda raw: raw.update(fixed_height_m=1e6, solvers=["bcd"]),
        "at <root>: unknown key 'fixed_height_m'"),
    "profile-on-free-space": (
        "freespace.json",
        lambda cfg: replace(cfg, profile=ProfileSpec()),
        lambda raw: raw.update(profile={"axis": "height"}),
        "at <root>: unknown key 'profile'"),
    "profile-power-at-the-budget": (
        "atg3d_height_profile.json",
        lambda cfg: replace(cfg, profile=replace(cfg.profile, p1_w=4.0)),
        lambda raw: _set_profile(raw, p1_w=4.0),
        "profile p1_w must leave the relay a positive power"),
    "grid-axis-cap": (
        "freespace.json",
        lambda cfg: replace(cfg, grid=GridSpec(x=MAX_GRID_AXIS_POINTS + 1)),
        lambda raw: raw.update(grid={"x_points": MAX_GRID_AXIS_POINTS + 1}),
        "invalid grid"),
    "grid-points-cap": (
        "atg3d_environments.json",
        lambda cfg: replace(cfg, grid=GridSpec(1000, 1000, 1001)),
        lambda raw: raw.update(grid={"x_points": 1000, "p1_points": 1000, "h_points": 1001}),
        "invalid grid"),
    "freespace-height-axis": (
        "freespace.json",
        lambda cfg: replace(cfg, solvers=("exhaustive",), grid=GridSpec(x=20, p1=20, h=5)),
        lambda raw: raw.update(solvers=["exhaustive"],
                               grid={"x_points": 20, "p1_points": 20, "h_points": 5}),
        "at grid: unknown key 'h_points'"),
    "empty-sweep": (
        "freespace_blocklength_sweep.json",
        lambda cfg: replace(cfg, sweep_values=()),
        lambda raw: raw["sweep"].update(values=[]),
        "at sweep/values: a sweep needs at least one value"),
    "sweep-value-type": (
        "freespace_blocklength_sweep.json",
        lambda cfg: replace(cfg, sweep_values=(60, 80.0)),
        lambda raw: raw["sweep"].update(values=[60, 80.0]),
        "at sweep/values/1: 80.0 is not an integer"),
    "repeated-sweep-value": (
        "atg3d_environments.json",
        lambda cfg: replace(cfg, sweep_values=("urban", "suburban", "urban")),
        lambda raw: raw["sweep"].update(values=["urban", "suburban", "urban"]),
        "at sweep/values/2: sweep value 'urban' repeats sweep/values/0"),
    "unusable-sweep-value": (
        "freespace_blocklength_sweep.json",
        lambda cfg: replace(cfg, sweep_values=(60, 61)),
        lambda raw: raw["sweep"].update(values=[60, 61]),
        "at sweep/values/1: sweep value 61 is not usable"),
    "profile-axis": (
        "atg3d_height_profile.json",
        lambda cfg: replace(cfg.profile, axis="z"),
        lambda raw: _set_profile(raw, axis="z"),
        "at profile/axis: 'z' is not one of ['height', 'x']"),
    "profile-range-order": (
        "atg3d_height_profile.json",
        lambda cfg: replace(cfg.profile, sample_range=(150.0, 50.0)),
        lambda raw: _set_profile(raw, range=[150.0, 50.0]),
        "profile range must be [low, high] with low <= high: [150.0, 50.0]"),
    "profile-range-length": (
        "atg3d_height_profile.json",
        lambda cfg: replace(cfg.profile, sample_range=(50.0, 100.0, 150.0)),
        lambda raw: _set_profile(raw, range=[50.0, 100.0, 150.0]),
        "profile range must be [low, high]"),
}


@pytest.mark.parametrize("name, build, edit, message", RULES_IN_CODE.values(),
                         ids=RULES_IN_CODE)
def test_rules_hold_for_configs_built_in_code(name, build, edit, message):
    # replace() on a parsed config, as library code and the CLI flags
    # build one, refuses what the reader refuses, with the same message
    raw = json.loads((CONFIGS / name).read_text())
    edit(raw)
    with pytest.raises(ConfigError) as parsed:
        parse_config(raw)
    assert message in str(parsed.value)
    with pytest.raises(ConfigError) as built:
        build(load_config(str(CONFIGS / name)))
    assert str(built.value) == str(parsed.value)
