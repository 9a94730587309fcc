"""Command-line interface: subcommands, flags and exit codes."""

import csv
import json
from pathlib import Path

import pytest

from test_config import ATG3D_RAW, FREESPACE_RAW, variant


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_solve_success(uavrelay, tmp_path):
    cfg = write_config(tmp_path, variant(FREESPACE_RAW, solvers=["bcd", "high-snr"]))
    out = tmp_path / "r.csv"
    result = uavrelay(["solve", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.stderr
    rows = read_csv(out)
    assert len(rows) == 3  # header + two solvers
    assert rows[1][1] == "bcd"
    assert rows[2][1] == "high-snr"
    assert (tmp_path / "r.json").exists()


def test_solve_ignores_configured_sweep(uavrelay, tmp_path):
    raw = variant(
        FREESPACE_RAW,
        solvers=["bcd"],
        sweep={"parameter": "total_blocklength", "values": [60, 80]},
    )
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "r.csv"
    result = uavrelay(["solve", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0
    assert len(read_csv(out)) == 2  # header + single base row


def test_sweep_success_and_traces(uavrelay, tmp_path):
    raw = variant(
        FREESPACE_RAW,
        solvers=["bcd", "fixed-power"],
        sweep={"parameter": "total_blocklength", "values": [60, 80, 100]},
    )
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "s.csv"
    traces = tmp_path / "t.json"
    result = uavrelay(["sweep", "--config", cfg, "--out", str(out), "--trace", str(traces)])
    assert result.exit_code == 0, result.stderr
    rows = read_csv(out)
    assert len(rows) == 1 + 6
    data = json.loads(traces.read_text())
    assert "fs/bcd/60" in data


def test_sweep_requires_sweep_section(uavrelay, tmp_path):
    cfg = write_config(tmp_path, variant(FREESPACE_RAW, solvers=["bcd"]))
    result = uavrelay(["sweep", "--config", cfg])
    assert result.exit_code == 2
    diag = json.loads(result.stderr.strip().splitlines()[-1])
    assert diag["error"] == "config"


def test_config_error_is_machine_readable(uavrelay, tmp_path):
    cfg = write_config(tmp_path, variant(FREESPACE_RAW, solvers=["warp-drive"]))
    result = uavrelay(["solve", "--config", cfg])
    assert result.exit_code == 2
    diag = json.loads(result.stderr.strip().splitlines()[-1])
    assert diag["error"] == "config"
    assert "warp-drive" in diag["detail"]


def _with(base, section, key, value):
    raw = variant(base)
    raw[section] = {**raw[section], key: value}
    return raw


@pytest.mark.parametrize(
    "raw",
    [
        _with(FREESPACE_RAW, "gains_db", "beta1_db", float("inf")),
        _with(FREESPACE_RAW, "gains_db", "beta1_db", float("-inf")),
        _with(FREESPACE_RAW, "gains_db", "beta1_db", float("nan")),
        _with(FREESPACE_RAW, "gains_db", "beta1_db", 4000.0),
        _with(ATG3D_RAW, "atg", "noise_power_db", 4000.0),
        _with(ATG3D_RAW, "atg", "noise_power_db", -4000.0),
        # finite gains near 1e292 per hop, whose product overflows
        _with(ATG3D_RAW, "atg", "noise_power_db", -3000.0),
        # finite gains of 1e300 per hop, whose product overflows
        variant(FREESPACE_RAW, gains_db={"beta1_db": 3000.0, "beta2_db": 3000.0}),
        # under the gain bound, but the cubic coefficients and the high-SNR
        # cross gains overflow
        variant(FREESPACE_RAW, gains_db={"beta1_db": 3080.0, "beta2_db": -10.0},
                geometry={**FREESPACE_RAW["geometry"], "height_m": 1.0, "x_min_m": 0.0}),
    ],
    ids=["beta-inf", "beta-minus-inf", "beta-nan", "beta-overflow", "noise-overflow",
         "noise-underflow", "gain-overflow", "freespace-gain-overflow",
         "freespace-near-bound"],
)
def test_extreme_numbers_are_config_errors(uavrelay, tmp_path, raw):
    # json.dumps writes inf and nan as the non-standard Infinity and NaN
    cfg = write_config(tmp_path, raw)
    result = uavrelay(["solve", "--config", cfg, "--out", str(tmp_path / "r.csv")])
    assert result.exit_code == 2, result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "config"
    assert "Traceback" not in result.stdout + result.stderr
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "raw, where",
    [
        (variant(ATG3D_RAW, sweep={"parameter": "hop2_environment", "values": [["urban"]]}),
         "sweep/values/0"),
        (variant(FREESPACE_RAW, blocklength={"packet_bits": 100, "total_blocklength": 80,
                                             "bandwidth_hz": 80e3, "latency_s": 1.5}),
         "blocklength"),
        # h_min^2 underflows to zero inside the gain bound
        (variant(ATG3D_RAW, geometry={**ATG3D_RAW["geometry"], "height_min_m": 1e-200}),
         "hop gains overflow"),
        # the fixed-height baseline is an air-to-ground solver
        (variant(FREESPACE_RAW, fixed_height_m=5000), "<root>: unknown key 'fixed_height_m'"),
        # sweep points are built at load time, so these fail before any solve
        (variant(FREESPACE_RAW, sweep={"parameter": "power_budget_w", "values": [4.0, 1e300]}),
         "sweep/values/1"),
        (variant(ATG3D_RAW, atg={**ATG3D_RAW["atg"], "hop2": "high-rise", "noise_power_db": -1596},
                 sweep={"parameter": "hop2_environment", "values": ["high-rise", "suburban"]}),
         "sweep/values/1"),
    ],
    ids=["unhashable-sweep-value", "blocklength-contradiction", "height-underflow",
         "freespace-fixed-height", "power-sweep-overflow", "environment-sweep-overflow"],
)
def test_bad_values_are_config_errors_not_tracebacks(uavrelay, tmp_path, raw, where):
    cfg = write_config(tmp_path, raw)
    result = uavrelay(["solve", "--config", cfg, "--out", str(tmp_path / "r.csv")])
    assert result.exit_code == 2, result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "config"
    assert where in diag["detail"]


def test_missing_config_file(uavrelay, tmp_path):
    result = uavrelay(["solve", "--config", str(tmp_path / "nope.json")])
    assert result.exit_code == 2


def test_solver_override(uavrelay, tmp_path):
    cfg = write_config(tmp_path, variant(FREESPACE_RAW, solvers=["bcd"]))
    out = tmp_path / "o.csv"
    result = uavrelay(
        ["solve", "--config", cfg, "--out", str(out), "--solver", "fixed-power,bcd"])
    assert result.exit_code == 0
    rows = read_csv(out)
    assert [r[1] for r in rows[1:]] == ["fixed-power", "bcd"]


def test_solver_override_rejects_unknown(uavrelay, tmp_path):
    cfg = write_config(tmp_path, variant(FREESPACE_RAW, solvers=["bcd"]))
    result = uavrelay(["solve", "--config", cfg, "--solver", "fixed-height"])
    assert result.exit_code == 2
    result = uavrelay(["solve", "--config", cfg, "--solver", "bcd,bcd"])
    assert result.exit_code == 2
    assert "solvers name 'bcd' more than once" in result.stderr


def test_partial_failure_exit_code(uavrelay, tmp_path, monkeypatch):
    import uavrelay.harness as harness

    def boom(*args, **kwargs):
        raise RuntimeError("no luck")

    monkeypatch.setattr(harness, "high_snr_solve", boom)
    cfg = write_config(tmp_path, variant(FREESPACE_RAW, solvers=["bcd", "high-snr"]))
    out = tmp_path / "p.csv"
    result = uavrelay(["solve", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 3
    rows = read_csv(out)  # partial output still written
    assert rows[1][11] == "ok"
    assert rows[2][11].startswith("error:")


def test_oracle_subcommand_with_grid(uavrelay, tmp_path):
    cfg = write_config(tmp_path, variant(FREESPACE_RAW, solvers=["bcd"]))
    out = tmp_path / "oracle.csv"
    result = uavrelay(
        ["oracle", "--config", cfg, "--out", str(out), "--grid", "x=300,p1=300"])
    assert result.exit_code == 0, result.stderr
    rows = read_csv(out)
    assert len(rows) == 2
    assert rows[1][1] == "exhaustive"
    assert float(rows[1][8]) == pytest.approx(10.0402303484, rel=1e-4)


def test_oracle_rejects_bad_grid(uavrelay, tmp_path):
    cfg = write_config(tmp_path, variant(FREESPACE_RAW, solvers=["bcd"]))
    # the last two: too few points, and a height axis on the free-space model
    for bad, where in (("x", "'x'"), ("y=100", "grid: unknown key 'y_points'"),
                       ("x=ten", "'ten'"), ("x=1", "at least 2 points"),
                       ("x=50,h=50", "grid: unknown key 'h_points'")):
        result = uavrelay(["oracle", "--config", cfg, "--grid", bad])
        assert result.exit_code == 2, bad
        assert where in json.loads(result.stderr)["detail"], bad


def test_profile_subcommand(uavrelay, tmp_path):
    raw = variant(
        ATG3D_RAW,
        profile={"axis": "height", "fixed_x_m": 100.0, "hop2_presets": ["urban"]},
    )
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "prof.csv"
    result = uavrelay(["profile", "--config", cfg, "--out", str(out), "--step", "10"])
    assert result.exit_code == 0, result.stderr
    rows = read_csv(out)
    assert rows[0] == ["environment", "height_m", "snr"]
    assert len(rows) == 1 + 20


def test_profile_rejects_freespace_config(uavrelay, tmp_path):
    cfg = write_config(tmp_path, variant(FREESPACE_RAW, solvers=["bcd"]))
    result = uavrelay(["profile", "--config", cfg])
    assert result.exit_code == 2


def test_default_output_paths_from_config(uavrelay, tmp_path):
    raw = variant(FREESPACE_RAW, solvers=["bcd"])
    raw["output"] = {"csv": str(tmp_path / "from_config.csv")}
    cfg = write_config(tmp_path, raw)
    result = uavrelay(["solve", "--config", cfg])
    assert result.exit_code == 0
    assert (tmp_path / "from_config.csv").exists()
    assert (tmp_path / "from_config.json").exists()


def test_default_output_paths_without_output_section(uavrelay, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, variant(ATG3D_RAW, profile={"hop2_presets": ["urban"]}))
    assert uavrelay(["solve", "--config", cfg]).exit_code == 0
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "results.json").exists()
    assert uavrelay(["profile", "--config", cfg, "--step", "50"]).exit_code == 0
    assert (tmp_path / "profile.csv").exists()


def test_cubic_overflow_rows_state_the_cause(uavrelay, tmp_path):
    # finite but extreme: the placement cubic's rho^3 exceeds the float range
    raw = _with(FREESPACE_RAW, "gains_db", "beta1_db", 1040.0)
    raw["gains_db"]["beta2_db"] = 1040.0
    cfg = write_config(tmp_path, variant(raw, solvers=["bcd", "fixed-power", "high-snr"]))
    out = tmp_path / "n.csv"
    result = uavrelay(["solve", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 3
    statuses = [row[11] for row in read_csv(out)[1:]]
    assert statuses[0].startswith("error: cubic coefficients overflow: rho=")
    assert statuses[1] == statuses[0]
    assert statuses[2] == "ok"


def test_config_just_under_the_overflow_bound_runs_every_solver(uavrelay, tmp_path):
    # beta1 beta2 (D^2 + p_total^2 + 1) is ~1.7e308, just under the float
    # range; three tenths of a dB more on beta1 are refused
    raw = variant(FREESPACE_RAW, gains_db={"beta1_db": 1518.2, "beta2_db": 1518.1},
                  geometry={**FREESPACE_RAW["geometry"], "height_m": 1.0, "x_min_m": 0.0},
                  power_budget_w=1e-50,
                  solvers=["bcd", "high-snr", "exhaustive", "fixed-location", "fixed-power"])
    out = tmp_path / "r.csv"
    result = uavrelay(["solve", "--config", write_config(tmp_path, raw),
                       "--out", str(out)])
    assert result.exit_code == 0, result.stderr
    assert [row[11] for row in read_csv(out)[1:]] == ["ok"] * 5
    raw["gains_db"]["beta1_db"] = 1518.5
    result = uavrelay(["solve", "--config", write_config(tmp_path, raw),
                       "--out", str(out)])
    assert result.exit_code == 2
    assert "high-SNR cross gains overflow" in json.loads(result.stderr.strip())["detail"]


@pytest.mark.parametrize("changes", [
    # 1e-320 per hop: divided by H^2 both hop gains are 0.0
    {"gains_db": {"beta1_db": -3200.0, "beta2_db": -3200.0}},
    # p1 p2 underflows to 0.0 inside the high-SNR power search
    {"power_budget_w": 1e-200},
], ids=["gains-underflow", "budget-underflow"])
def test_float_range_floor_solves_with_every_solver(uavrelay, tmp_path, changes):
    raw = json.loads((Path(__file__).parent.parent / "configs" / "freespace.json").read_text())
    raw.update(changes)
    out = tmp_path / "r.csv"
    result = uavrelay(["solve", "--config", write_config(tmp_path, raw),
                       "--out", str(out)])
    assert result.exit_code == 0, result.stderr
    rows = read_csv(out)[1:]
    assert [row[11] for row in rows] == ["ok"] * 5
    assert all(float(row[8]) == 0.0 and float(row[9]) == 1.0 for row in rows)


def test_oracle_reports_eps_one_where_one_plus_snr_rounds_to_one(uavrelay, tmp_path):
    # gains of +3000 / -3000 dB leave an SNR near 1e-304
    raw = json.loads((Path(__file__).parent.parent / "configs" / "freespace.json").read_text())
    raw["gains_db"] = {"beta1_db": 3000.0, "beta2_db": -3000.0}
    raw["geometry"].update(height_m=1.0, x_min_m=0.0)
    out = tmp_path / "o.csv"
    result = uavrelay(["oracle", "--config", write_config(tmp_path, raw),
                       "--out", str(out)])
    assert result.exit_code == 0, result.stderr
    row = read_csv(out)[1]
    assert row[11] == "ok"
    assert 0.0 < float(row[8]) < 1e-16
    assert float(row[9]) == 1.0


@pytest.mark.parametrize("args", [
    ["solve", "--conf", "{cfg}"],
    ["solve", "--config", "{cfg}", "--conf", "{cfg}"],
], ids=["alone", "beside-config"])
def test_abbreviated_flag_is_unknown(uavrelay, tmp_path, args):
    # options are never abbreviated: --conf is not --config
    cfg = write_config(tmp_path, variant(FREESPACE_RAW, solvers=["bcd"]))
    out = tmp_path / "r.csv"
    result = uavrelay([arg.replace("{cfg}", cfg) for arg in args] + ["--out", str(out)])
    assert result.exit_code == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("args, listed", [
    (["--help"], ["solve", "sweep", "profile", "oracle"]),
    (["solve", "--help"], ["--config", "--out", "--trace", "--solver"]),
    (["sweep", "--help"], ["--config", "--out", "--trace", "--solver"]),
    (["profile", "--help"], ["--config", "--out", "--axis", "--step"]),
    (["oracle", "--help"], ["--config", "--out", "--trace", "--grid"]),
], ids=["uavrelay", "solve", "sweep", "profile", "oracle"])
def test_help_exits_0_listing_the_commands_or_flags(uavrelay, args, listed):
    result = uavrelay(args)
    assert result.exit_code == 0
    assert result.stdout.startswith("Usage: uavrelay")
    for name in listed:
        assert name in result.stdout, name
    assert result.stderr == ""
