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


def run_uavrelay(args, cwd):
    """(exit code, stdout without the report line, stderr, peak RSS in MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "uavrelay.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True,
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


def test_overflowing_oracle_writes_only_the_failure_line(tmp_path):
    # g1*g2 overflows on the whole grid; numpy must not warn about it.  The
    # air-to-ground model refuses such gains at load time, the free-space
    # model does not
    raw = variant(FREESPACE_RAW)
    raw["gains_db"] = {"beta1_db": 3000.0, "beta2_db": 3000.0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "o.csv"
    code, _, stderr, _ = run_uavrelay(["oracle", "--config", str(cfg), "--out", str(out)],
                                      tmp_path)
    assert code == 3
    assert stderr == "1 solver run(s) failed\n"
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2
    assert rows[1][11].startswith("error: objective is NaN at every sampled point of [")
