"""The ``uavrelay`` CLI run as a separate process: peak memory and stderr."""

import csv
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from test_config import FREESPACE_RAW, variant

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Starts the CLI, waits for it and prints its exit code and peak RSS (KiB)
# as the last stdout line.  A child's ru_maxrss includes the resident size
# of the process it was started from, so the CLI is started from this
# small interpreter rather than from the test process.
LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

# No command loads numpy, the grid oracles included: each peaks near 17 MB
# (near 30 MB with numpy loaded), whatever the grid size.
PEAK_RSS_LIMIT_MB = 24.0


def src_env() -> dict:
    """This environment with the package source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_uavrelay(args, cwd):
    """(exit code, stdout without the report line, stderr, peak RSS in MB)."""
    done = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "uavrelay.cli", *args],
        cwd=cwd, env=src_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    *out, report = done.stdout.splitlines()
    code, max_rss_kib = map(int, report.split())
    return code, "\n".join(out), done.stderr, max_rss_kib / 1024.0


@pytest.mark.parametrize(
    "args",
    [
        ["oracle", "--config", str(CONFIGS / "atg3d_environments.json")],
        ["oracle", "--config", str(CONFIGS / "atg3d_environments.json"),
         "--grid", "x=400,h=400,p1=400"],
        ["solve", "--config", str(CONFIGS / "freespace.json")],
        ["sweep", "--config", str(CONFIGS / "atg3d_environments.json")],
        ["profile", "--config", str(CONFIGS / "atg3d_height_profile.json")],
    ],
    ids=["oracle-3d-default", "oracle-3d-400-cubed", "solve-freespace",
         "sweep-atg3d", "profile-atg3d"],
)
def test_peak_memory_does_not_grow_with_the_grid(tmp_path, args):
    code, _, stderr, peak_mb = run_uavrelay(args + ["--out", str(tmp_path / "r.csv")],
                                            tmp_path)
    assert code == 0, stderr
    assert peak_mb < PEAK_RSS_LIMIT_MB


def test_overflowing_oracle_grid_is_quiet(tmp_path):
    # g1 reaches 1e308 near x = 0, so g1*p1 overflows in part of the grid;
    # the oracle must neither warn nor fail on it.  Gains whose product
    # bound overflows are refused at load time, so no config makes the
    # whole grid NaN
    raw = variant(FREESPACE_RAW)
    raw["geometry"] = {"distance_m": 200.0, "x_min_m": 0.0, "x_max_m": 170.0, "height_m": 1e-3}
    raw["gains_db"] = {"beta1_db": 3020.0, "beta2_db": -3000.0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "o.csv"
    code, _, stderr, _ = run_uavrelay(["oracle", "--config", str(cfg), "--out", str(out)],
                                      tmp_path)
    assert code == 0
    assert stderr == ""
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2
    assert rows[1][11] == "ok"


# a = 80, b = 20: below 80 - 709.78 / 20 = 44.5 degrees of elevation the
# S-curve's exp(-b (theta - a)) passes the double range
STEEP_ENVIRONMENT = {"a": 80, "b": 20, "excess_loss_los_db": 0.1, "excess_loss_nlos_db": 21}


def test_s_curve_past_the_exp_range_solves_and_profiles(tmp_path):
    raw = json.loads((CONFIGS / "atg3d_environments.json").read_text())
    del raw["sweep"]
    raw["atg"]["hop2"] = STEEP_ENVIRONMENT
    raw["solvers"] = ["bcd", "fixed-height", "fixed-power", "fixed-location", "exhaustive"]
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps(raw))
    code, _, stderr, _ = run_uavrelay(["solve", "--config", str(cfg),
                                       "--out", str(tmp_path / "s.csv")], tmp_path)
    assert (code, stderr) == (0, "")
    with open(tmp_path / "s.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["ok"] * 5

    raw = json.loads((CONFIGS / "atg3d_height_profile.json").read_text())
    raw["atg"]["hop1"] = STEEP_ENVIRONMENT
    cfg = tmp_path / "profile.json"
    cfg.write_text(json.dumps(raw))
    code, _, stderr, _ = run_uavrelay(["profile", "--config", str(cfg),
                                       "--out", str(tmp_path / "p.csv")], tmp_path)
    assert (code, stderr) == (0, "")


# Runs the CLI commands given as JSON argument lists in this interpreter
# and prints, after the import and after each command, whether jsonschema,
# numpy and click are loaded.
IMPORT_PROBE = """
import json, sys
import uavrelay.cli

def loaded():
    return ['jsonschema' in sys.modules, 'numpy' in sys.modules, 'click' in sys.modules]

report = [loaded()]
for args in json.loads(sys.argv[1]):
    uavrelay.cli.main(args)
    report.append(loaded())
print(json.dumps(report))
"""


def test_cli_import_leaves_out_jsonschema(tmp_path):
    # none of them loads: both grid oracles run on plain floats, the
    # free-space solve (whose exhaustive solver runs the 2000 x 2000 grid)
    # and the air-to-ground oracle included
    commands = [
        ["solve", "--config", str(CONFIGS / "freespace.json"),
         "--out", str(tmp_path / "solve.csv")],
        ["sweep", "--config", str(CONFIGS / "atg3d_environments.json"),
         "--out", str(tmp_path / "sweep.csv")],
        ["profile", "--config", str(CONFIGS / "atg3d_height_profile.json"),
         "--out", str(tmp_path / "profile.csv")],
        ["oracle", "--config", str(CONFIGS / "atg3d_environments.json"),
         "--grid", "x=20,h=20,p1=20", "--out", str(tmp_path / "oracle.csv")],
    ]
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
                          cwd=tmp_path, env=src_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == [[False, False, False]] * 5


# Runs one CLI command, given as a JSON argument list, in a new interpreter
# and prints the package modules loaded after it.
MODULES_PROBE = """
import json, sys
import uavrelay.cli

try:
    uavrelay.cli.main(json.loads(sys.argv[1]))
except SystemExit:
    pass
print(json.dumps(sorted(name for name in sys.modules if name.startswith('uavrelay.'))))
"""


@pytest.mark.parametrize("args", [
    ["--help"],
    ["sweep", "--help"],
    ["solve", "--config", "missing.json"],
    ["solve", "--config", "empty.json"],
    ["solve", "--config", "unparsable.json"],
], ids=["help", "command-help", "missing-config", "schema-violation", "bad-json"])
def test_help_and_config_errors_load_no_solver(tmp_path, args):
    # a config that passes the schema loads the harness: the solver names
    # it is checked against are the harness's SOLVERS table
    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "unparsable.json").write_text("{")
    done = subprocess.run([sys.executable, "-c", MODULES_PROBE, json.dumps(args)],
                          cwd=tmp_path, env=src_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    assert "uavrelay.config" in loaded
    assert loaded.isdisjoint({"uavrelay.harness", "uavrelay.freespace", "uavrelay.highsnr",
                              "uavrelay.atg3d", "uavrelay.oracle", "uavrelay.cubic",
                              "uavrelay.search"})


# Imports the CLI, installs the benchmark's span tracer as bench/cli_child.py
# does, runs one command (a JSON argument list) and prints the span counts,
# the BCD runs the tracer recorded, and the solver entry points that, after
# the tracer is gone, are not their defining module's own function
# everywhere the package names them.
TRACED_PROBE = """
import json, sys
import uavrelay, uavrelay.cli as cli
import tracing

tracer = tracing.Tracer()
tracing.install(tracer, cli=True)
try:
    cli.main(json.loads(sys.argv[1]))
finally:
    tracer.uninstall()
from uavrelay import atg3d, freespace, harness, highsnr, oracle

homes = {"bcd_solve": freespace, "high_snr_solve": highsnr, "bcd_solve_3d": atg3d,
         "exhaustive_search": oracle, "fixed_location_baseline": oracle,
         "fixed_power_baseline": oracle, "fixed_height_baseline": oracle}
print(json.dumps({
    "calls": {name: agg["calls"] for name, agg in tracer.aggregate().items()},
    "bcd_runs": {key: len(runs) for key, runs in tracer.bcd_runs.items()},
    "not_restored": [name for name, home in homes.items()
                     if getattr(home, name).__module__ != home.__name__
                     or not getattr(harness, name) is getattr(home, name)
                     is getattr(uavrelay, name)],
}))
"""


@pytest.mark.parametrize("config, spans", [
    ("freespace.json", ("freespace.bcd", "highsnr.solve", "oracle.2d",
                        "oracle.fixed_location", "oracle.fixed_power")),
    ("atg3d_environments.json", ("atg3d.bcd", "oracle.fixed_height")),
], ids=["freespace", "atg3d"])
def test_traced_cli_records_one_span_per_solve(tmp_path, config, spans):
    # solve runs each configured solver once, on the base scenario; a solver
    # entry point wrapped twice would record two nested spans and two BCD runs
    env = src_env()
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "bench"), env["PYTHONPATH"]))
    args = ["solve", "--config", str(CONFIGS / config), "--out", str(tmp_path / "r.csv")]
    done = subprocess.run([sys.executable, "-c", TRACED_PROBE, json.dumps(args)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert {name: report["calls"].get(name) for name in spans} == dict.fromkeys(spans, 1)
    assert sum(report["bcd_runs"].values()) == 1
    assert report["not_restored"] == []


def at_most_1_gib():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


PROFILE = ["profile", "--config", str(CONFIGS / "atg3d_height_profile.json")]


@pytest.mark.parametrize("args", [
    PROFILE + ["--step", "nan"],
    PROFILE + ["--step", "inf"],
    PROFILE + ["--step", "1e-300"],
    ["oracle", "--config", str(CONFIGS / "atg3d_environments.json"),
     "--grid", "x=100000000"],
], ids=["step-nan", "step-inf", "step-1e-300", "grid-1e8"])
def test_runaway_numbers_exit_2_with_one_json_line(tmp_path, args):
    # under 1 GiB of address space and 10 s: a flag that makes the CLI
    # loop or allocate without bound fails here instead of exiting 2
    done = subprocess.run(
        [sys.executable, "-m", "uavrelay.cli", *args, "--out", str(tmp_path / "o.csv")],
        cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=10,
        preexec_fn=at_most_1_gib,
    )
    assert done.returncode == 2, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert json.loads(lines[0])["error"] == "config"


FREESPACE = ["--config", str(CONFIGS / "freespace.json")]


@pytest.mark.parametrize("args", [
    PROFILE + ["--step", "abc"],
    ["solve", "--bogus"],
    ["bogus"],
    ["solve"],
    PROFILE + ["--axis", "z"],
    ["solve", "--config", "{tmp}"],
    ["solve", "--config", "{tmp}/latin-1.json"],
    ["solve", *FREESPACE, "--out", "{tmp}/missing/r.csv"],
    ["profile", "--config", str(CONFIGS / "atg3d_height_profile.json"),
     "--out", "{tmp}/missing/p.csv"],
], ids=["step-abc", "unknown-flag", "unknown-command", "no-config", "axis-z",
        "config-is-a-directory", "config-not-utf-8", "out-dir-missing",
        "profile-out-dir-missing"])
def test_unusable_input_exits_2_with_one_json_line(tmp_path, args):
    # click's usage errors, unreadable configs and unwritable outputs take
    # the same way out as a bad config value
    (tmp_path / "latin-1.json").write_bytes('{"scenario_id": "café"}'.encode("latin-1"))
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    done = subprocess.run([sys.executable, "-m", "uavrelay.cli", *args], cwd=tmp_path,
                          env=src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert json.loads(lines[0])["error"] == "config"


SWEEP_ATG = ["sweep", "--config", str(CONFIGS / "atg3d_environments.json")]


@pytest.mark.parametrize("args, named", [
    (SWEEP_ATG + ["--out", "{tmp}/r.json"], "r.json"),
    (SWEEP_ATG + ["--out", "{tmp}/r.csv", "--trace", "{tmp}/r.csv"], "r.csv"),
    (SWEEP_ATG + ["--out", "{tmp}/r.csv", "--trace", "{tmp}/missing/t.json"], "missing"),
    (SWEEP_ATG + ["--out", "{tmp}/r.csv", "--trace", "{tmp}/adir"], "adir"),
    (PROFILE + ["--step", "nan", "--out", "{tmp}/adir"], "adir"),
], ids=["json-mirror-is-the-csv", "trace-is-the-csv", "trace-dir-missing",
        "trace-is-a-directory", "profile-out-before-the-curves"])
def test_unusable_outputs_exit_2_before_the_run(tmp_path, args, named):
    # every output path is checked before the solve (or the profile
    # curves): one JSON line naming the output, exit 2 and no file written
    (tmp_path / "adir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    done = subprocess.run([sys.executable, "-m", "uavrelay.cli", *args], cwd=tmp_path,
                          env=src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    diagnostic = json.loads(lines[0])
    assert diagnostic["error"] == "config"
    assert named in diagnostic["detail"]
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("changes, named", [
    ({"solvers": ["bcd", "fixed-power", "bcd"]}, ["solvers", "'bcd'"]),
    ({"sweep": {"parameter": "power_budget_w", "values": [1.0, 2.0, 1.0]}},
     ["sweep/values/2", "sweep/values/0"]),
    ({"sweep": {"parameter": "power_budget_w", "values": []}}, ["sweep/values"]),
], ids=["repeated-solver", "repeated-sweep-value", "empty-sweep"])
def test_repeats_and_empty_sweeps_exit_2_naming_them(tmp_path, changes, named):
    # a repeated solver or sweep value would write its rows twice under one
    # trace key, and an empty sweep a header-only table
    raw = json.loads((CONFIGS / "freespace.json").read_text())
    raw.update(changes)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    done = subprocess.run(
        [sys.executable, "-m", "uavrelay.cli", "sweep", "--config", str(cfg),
         "--out", str(tmp_path / "r.csv"), "--trace", str(tmp_path / "t.json")],
        cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    diagnostic = json.loads(lines[0])
    assert diagnostic["error"] == "config"
    for name in named:
        assert name in diagnostic["detail"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]


def test_bare_command_prints_its_help(tmp_path):
    done = subprocess.run([sys.executable, "-m", "uavrelay.cli"], cwd=tmp_path,
                          env=src_env(), capture_output=True, text=True, timeout=60)
    assert "Usage:" in done.stdout + done.stderr
    for command in ("solve", "sweep", "profile", "oracle"):
        assert command in done.stdout + done.stderr


@pytest.mark.parametrize("grid, named", [
    ("x=20,x=30", "axis 'x' more than once"),
    ("", "--grid override is empty"),
], ids=["repeated-axis", "empty-spec"])
def test_bad_grid_specs_exit_2_naming_them(tmp_path, grid, named):
    # a repeated axis would keep its last count, an empty spec the default grid
    done = subprocess.run(
        [sys.executable, "-m", "uavrelay.cli", "oracle", "--config",
         str(CONFIGS / "atg3d_environments.json"), "--grid", grid,
         "--out", str(tmp_path / "o.csv")],
        cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    diagnostic = json.loads(lines[0])
    assert diagnostic["error"] == "config"
    assert named in diagnostic["detail"]
    assert list(tmp_path.iterdir()) == []
