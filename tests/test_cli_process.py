"""The ``uavrelay`` CLI run as a separate process: peak memory and stderr."""

import csv
import json
import os
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

PEAK_RSS_LIMIT_MB = 60.0


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
    ],
    ids=["oracle-3d-default", "oracle-3d-400-cubed", "solve-freespace"],
)
def test_peak_memory_does_not_grow_with_the_grid(tmp_path, args):
    code, _, stderr, peak_mb = run_uavrelay(args + ["--out", str(tmp_path / "r.csv")],
                                            tmp_path)
    assert code == 0, stderr
    assert peak_mb < PEAK_RSS_LIMIT_MB


def test_overflowing_oracle_grid_is_quiet(tmp_path):
    # g1 reaches 1e308 near x = 0, so g1*p1 overflows in part of the grid;
    # numpy must not warn about it.  Gains whose product bound overflows
    # are refused at load time, so no config makes the whole grid NaN
    raw = variant(FREESPACE_RAW)
    raw["geometry"] = {"distance_m": 200.0, "x_min_m": 0.0, "x_max_m": 170.0, "height_m": 1.0}
    raw["gains_db"] = {"beta1_db": 3080.0, "beta2_db": -10.0}
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


def test_cli_import_leaves_out_jsonschema():
    code = "import sys, uavrelay.cli; print('jsonschema' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "False\n"
