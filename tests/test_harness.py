"""Experiment runner: row semantics, sweeps, determinism and file output."""

import copy
import csv
import json
import math
import tracemalloc
from pathlib import Path

import pytest

from uavrelay import (
    BlocklengthParams,
    ConfigError,
    decoding_error_probability,
    interior_local_maxima,
    load_config,
    parse_config,
    profile_curves,
    run_experiment,
    write_profile_csv,
    write_rows_csv,
    write_rows_json,
    write_traces_json,
)
from uavrelay.harness import CSV_COLUMNS, SOLVERS
from uavrelay import AtgEnvironment, PowerSplit, af_snr, hop_gains_3d, replace

from conftest import point_snr
from test_config import ATG3D_RAW, FREESPACE_RAW, variant

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_sweep_config():
    return parse_config(variant(
        FREESPACE_RAW,
        solvers=["bcd", "high-snr", "fixed-location", "fixed-power"],
        sweep={"parameter": "total_blocklength", "values": [60, 80, 100]},
    ))


def test_row_order_solver_outer_sweep_inner():
    rows, _, failures = run_experiment(small_sweep_config())
    keys = [(r["solver"], r["sweep_value"]) for r in rows]
    want = [
        (s, v)
        for s in ("bcd", "high-snr", "fixed-location", "fixed-power")
        for v in ("60", "80", "100")
    ]
    assert keys == want
    assert failures == 0


def test_rows_error_prob_rederives():
    rows, _, _ = run_experiment(small_sweep_config())
    for row in rows:
        assert row["status"] == "ok"
        blk = BlocklengthParams(100, int(row["sweep_value"]))
        assert row["error_prob"] == pytest.approx(
            decoding_error_probability(row["snr"], blk), rel=1e-12, abs=0.0
        )


def test_base_run_without_sweep():
    cfg = parse_config(variant(FREESPACE_RAW, solvers=["bcd"]))
    (row,), _, _ = run_experiment(cfg)
    assert row["sweep_parameter"] == ""
    assert row["sweep_value"] == ""
    assert row["height_m"] == 120.0  # the scenario's fixed flying height
    assert row["iterations"] >= 1


def test_empty_sweep_is_refused():
    # a config built in code is checked like a parsed one, so no run can
    # write a header-only table
    cfg = parse_config(variant(
        FREESPACE_RAW, sweep={"parameter": "total_blocklength", "values": [80]}
    ))
    with pytest.raises(ConfigError, match="at sweep/values: a sweep needs at least one value"):
        replace(cfg, sweep_values=())


def test_power_budget_sweep_materializes():
    cfg = parse_config(variant(
        FREESPACE_RAW,
        solvers=["bcd"],
        sweep={"parameter": "power_budget_w", "values": [2.0, 4.0]},
    ))
    rows, _, _ = run_experiment(cfg)
    totals = [row["p1_w"] + row["p2_w"] for row in rows]
    assert totals[0] == pytest.approx(2.0, rel=1e-9)
    assert totals[1] == pytest.approx(4.0, rel=1e-9)
    # more budget, better SNR
    assert rows[1]["snr"] > rows[0]["snr"]


def test_environment_sweep_rows_reevaluate():
    cfg = parse_config(variant(
        ATG3D_RAW,
        solvers=["bcd"],
        sweep={
            "parameter": "hop2_environment",
            "values": ["suburban", "urban", "dense-urban", "high-rise"],
        },
    ))
    rows, _, _ = run_experiment(cfg)
    assert len(rows) == 4
    for row in rows:
        env2 = AtgEnvironment.from_preset(row["sweep_value"], 2.5e9, -93.0)
        scn = replace(cfg.scenario, env2=env2)
        ps = PowerSplit(row["p1_w"], row["p2_w"])
        assert row["snr"] == pytest.approx(
            point_snr(scn, row["x_m"], row["height_m"], ps), rel=1e-12
        )


def test_failures_recorded_as_error_rows(monkeypatch):
    import uavrelay.harness as harness

    def boom(*args, **kwargs):
        raise RuntimeError("solver exploded")

    monkeypatch.setattr(harness, "high_snr_solve", boom)
    cfg = parse_config(variant(FREESPACE_RAW, solvers=["bcd", "high-snr"]))
    rows, _, failures = run_experiment(cfg)
    assert failures == 1
    ok, err = rows
    # both are plain dicts keyed by the columns, in column order
    for row in rows:
        assert type(row) is dict and tuple(row) == CSV_COLUMNS
    assert ok["status"] == "ok"
    assert err["status"] == "error: solver exploded"
    assert err["snr"] is None and err["x_m"] is None


def test_csv_shape_and_roundtrip(tmp_path):
    results, _, _ = run_experiment(small_sweep_config())
    path = tmp_path / "out.csv"
    write_rows_csv(results, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert rows[0][-1] == "wall_time_s"  # timing isolated in the last column
    assert len(rows) == 1 + len(results)
    for parsed, row in zip(rows[1:], results):
        assert float(parsed[8]) == row["snr"]
        assert float(parsed[9]) == row["error_prob"]


def test_csv_quoting_is_rfc4180(tmp_path, monkeypatch):
    # an error message containing commas and quotes must stay one cell
    import uavrelay.harness as harness

    def boom(*args, **kwargs):
        raise RuntimeError('bad "input", with commas')

    monkeypatch.setattr(harness, "bcd_solve", boom)
    cfg = parse_config(variant(FREESPACE_RAW, solvers=["bcd"]))
    results, _, _ = run_experiment(cfg)
    path = tmp_path / "q.csv"
    write_rows_csv(results, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][11] == 'error: bad "input", with commas'
    raw = path.read_text()
    assert '"error: bad ""input"", with commas"' in raw


def test_csv_determinism_excluding_wall_time(tmp_path):
    cfg = small_sweep_config()
    paths = []
    for tag in ("a", "b"):
        p = tmp_path / f"{tag}.csv"
        write_rows_csv(run_experiment(cfg)[0], str(p))
        paths.append(p)

    def strip_wall(path):
        with open(path, newline="") as fh:
            return [row[:-1] for row in csv.reader(fh)]

    assert strip_wall(paths[0]) == strip_wall(paths[1])
    # the stripped byte content matches exactly, not just numerically
    a = ["," .join(r) for r in strip_wall(paths[0])]
    b = ["," .join(r) for r in strip_wall(paths[1])]
    assert a == b


def test_json_mirror(tmp_path):
    rows, _, _ = run_experiment(small_sweep_config())
    path = tmp_path / "out.json"
    write_rows_json(rows, str(path))
    data = json.loads(path.read_text())
    assert len(data) == len(rows)
    assert data[0]["solver"] == "bcd"
    assert set(data[0]) == set(CSV_COLUMNS)
    assert data[0]["snr"] == rows[0]["snr"]


def test_traces_written(tmp_path):
    cfg = parse_config(variant(FREESPACE_RAW, solvers=["bcd"]))
    _, traces, _ = run_experiment(cfg)
    path = tmp_path / "traces.json"
    write_traces_json(traces, str(path))
    data = json.loads(path.read_text())
    (key,) = data.keys()
    assert key == "fs/bcd/base"
    assert all(b >= a for a, b in zip(data[key], data[key][1:]))
    # the rows and the traces have one JSON writer, under two names
    assert write_traces_json is write_rows_json


def test_profile_height_curves():
    cfg = parse_config(variant(
        ATG3D_RAW,
        profile={
            "axis": "height",
            "fixed_x_m": 100.0,
            "hop2_presets": ["suburban", "urban", "dense-urban", "high-rise"],
        },
    ))
    coord_name, rows = profile_curves(cfg)
    assert coord_name == "height_m"
    # 191 samples per preset over [10, 200] at 1 m
    assert len(rows) == 4 * 191
    for preset in ("suburban", "urban", "dense-urban", "high-rise"):
        curve = [snr for name, _, snr in rows if name == preset]
        assert len(curve) == 191
        assert len(interior_local_maxima(curve)) == 1


def test_profile_x_curves_and_overrides():
    cfg = parse_config(variant(
        ATG3D_RAW,
        profile={"fixed_height_m": 120.0, "hop2_presets": ["urban"]},
    ))
    coord_name, rows = profile_curves(cfg, axis="x", step=10.0)
    assert coord_name == "x_m"
    coords = [c for _, c, _ in rows]
    assert coords[0] == 20.0
    assert coords[-1] == pytest.approx(200.0)
    assert len(rows) == 19
    assert all(math.isfinite(snr) and snr > 0 for _, _, snr in rows)


def test_profile_degenerate_range():
    cfg = parse_config(variant(
        ATG3D_RAW,
        profile={"range": [50.0, 50.0], "hop2_presets": ["urban"]},
    ))
    _, rows = profile_curves(cfg)
    assert len(rows) == 1
    assert rows[0][1] == 50.0


@pytest.mark.parametrize("profile, message", [
    ({"axis": "height", "fixed_x_m": 500.0},
     "fixed profile coordinate 500.0 outside bounds (20.0, 200.0)"),
    ({"axis": "x", "fixed_height_m": 1.0},
     "fixed profile coordinate 1.0 outside bounds (10.0, 200.0)"),
    ({"axis": "height", "range": [5.0, 100.0]},
     "profile range (5.0, 100.0) outside bounds (10.0, 200.0)"),
    ({"axis": "x", "range": [20.0, 250.0]},
     "profile range (20.0, 250.0) outside bounds (20.0, 200.0)"),
])
def test_profile_refuses_points_outside_the_box(profile, message):
    cfg = parse_config(variant(ATG3D_RAW, profile=profile))
    with pytest.raises(ConfigError) as exc:
        profile_curves(cfg)
    assert str(exc.value) == message


def test_profile_rejects_freespace():
    cfg = parse_config(copy.deepcopy(FREESPACE_RAW))
    with pytest.raises(ConfigError):
        profile_curves(cfg)


def test_profile_csv(tmp_path):
    cfg = parse_config(variant(
        ATG3D_RAW, profile={"range": [10.0, 12.0], "hop2_presets": ["urban"]}
    ))
    coord_name, rows = profile_curves(cfg)
    path = tmp_path / "profile.csv"
    write_profile_csv(coord_name, rows, str(path))
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["environment", "height_m", "snr"]
    assert len(parsed) == 1 + 3
    assert parsed[1][0] == "urban"


@pytest.mark.parametrize("axis", ["height", "x"])
@pytest.mark.parametrize("p1_w", [None, 1.0])
def test_profile_rows_are_the_snr_at_their_points(axis, p1_w):
    # every row, on either axis and with either power split, holds the exact
    # float of af_snr at its point under its hop-2 preset
    cfg = load_config(str(CONFIGS / "atg3d_height_profile.json"))
    cfg = replace(cfg, profile=replace(cfg.profile, p1_w=p1_w))
    scn = cfg.scenario
    powers = (PowerSplit.even(scn.p_total) if p1_w is None
              else PowerSplit(p1_w, scn.p_total - p1_w))
    coord_name, rows = profile_curves(cfg, axis=axis)
    assert coord_name == f"{axis}_m"
    assert {preset for preset, _, _ in rows} == set(cfg.profile.hop2_presets)
    for preset, coord, snr in rows:
        env2 = AtgEnvironment.from_preset(preset, scn.env2.carrier_hz, scn.env2.noise_power_db)
        swept = replace(scn, env2=env2)
        if axis == "height":
            x, h = cfg.profile.fixed_x_m, coord
        else:
            x, h = coord, 0.5 * (scn.h_min + scn.h_max)
        assert snr.hex() == af_snr(*hop_gains_3d(swept, x, h), powers).hex(), (preset, coord)


def test_profile_at_the_step_cap_holds_only_its_rows():
    # a profile reads each sample once, so nothing but the rows and the
    # sample list may grow with the samples: 95,000 samples on one preset
    cfg = load_config(str(CONFIGS / "atg3d_height_profile.json"))
    cfg = replace(cfg, profile=replace(cfg.profile, hop2_presets=("urban",)))
    tracemalloc.start()
    try:
        _, rows = profile_curves(cfg, step=0.002)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 95_000
    assert peak < 1.2 * held


SOLVER_ATTRS = ("bcd_solve", "high_snr_solve", "exhaustive_search", "fixed_location_baseline",
                "fixed_power_baseline", "bcd_solve_3d", "fixed_height_baseline")


def count_solver_calls(monkeypatch):
    """Wrap every solver the harness calls; return the name -> call count map."""
    import uavrelay.harness as harness

    calls = dict.fromkeys(SOLVER_ATTRS, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in SOLVER_ATTRS:
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    return calls


def blocklength_sweeps():
    shipped = load_config(str(CONFIGS / "freespace_blocklength_sweep.json"))
    packet_bits = parse_config(variant(
        FREESPACE_RAW,
        solvers=["bcd", "high-snr", "exhaustive", "fixed-location", "fixed-power"],
        sweep={"parameter": "packet_bits", "values": [40, 100, 160]},
    ))
    atg3d = parse_config(variant(
        ATG3D_RAW,
        solvers=["bcd", "exhaustive", "fixed-location", "fixed-power", "fixed-height"],
        grid={"x_points": 30, "h_points": 30, "p1_points": 30},
        sweep={"parameter": "total_blocklength", "values": [60, 90, 120]},
    ))
    return [shipped, packet_bits, atg3d]


@pytest.mark.parametrize("cfg", blocklength_sweeps(),
                         ids=["shipped-blocklength", "packet-bits", "atg3d-blocklength"])
def test_blocklength_sweep_solves_each_solver_once(monkeypatch, cfg):
    # the rows and traces each point gets from its own solver call
    want_rows, want_traces = [], {}
    for solver in cfg.solvers:
        for value in cfg.sweep_values:
            if cfg.sweep_parameter == "packet_bits":
                blk = BlocklengthParams(value, cfg.blk.total_blocklength)
            else:
                blk = BlocklengthParams(cfg.blk.packet_bits, value)
            scn = cfg.scenario
            if cfg.model == "atg3d":
                scn = replace(scn, blk=blk)
            r = SOLVERS[cfg.model][solver](scn, blk, cfg)
            want_rows.append((cfg.scenario_id, solver, cfg.sweep_parameter, str(value),
                              r.x, r.height, r.powers.p1, r.powers.p2, r.snr, r.error_prob,
                              r.iterations, "ok"))
            want_traces[f"{cfg.scenario_id}/{solver}/{value}"] = list(r.trace)

    calls = count_solver_calls(monkeypatch)
    rows, traces, failures = run_experiment(cfg)
    assert sum(calls.values()) == len(cfg.solvers)
    assert all(n <= 1 for n in calls.values())
    assert failures == 0
    assert [tuple(row.values())[:-1] for row in rows] == want_rows
    assert traces == want_traces


def test_failing_solver_fails_every_point_of_a_blocklength_sweep(monkeypatch):
    import uavrelay.harness as harness

    calls = []

    def boom(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("solver exploded")

    monkeypatch.setattr(harness, "high_snr_solve", boom)
    cfg = small_sweep_config()
    rows, _, failures = run_experiment(cfg)
    assert len(calls) == 1
    assert failures == len(cfg.sweep_values)
    errors = [row for row in rows if row["solver"] == "high-snr"]
    assert [row["sweep_value"] for row in errors] == ["60", "80", "100"]
    assert {tuple(row.values())[:-1] for row in errors} == {
        ("fs", "high-snr", "total_blocklength", value, None, None, None, None, None, None,
         None, "error: solver exploded") for value in ("60", "80", "100")}
    assert all(row["status"] == "ok" for row in rows if row["solver"] != "high-snr")
