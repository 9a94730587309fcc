"""Smoke test of the benchmark: each workload for a few operations, both modes.

    python3 -m pytest bench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit
and that the correctness gate passes (seed 0 also checks the stored
seed-commit values).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_and_passes_the_gate(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert math.isfinite(printed["value"])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = run_bench(str(tmp_path), "freespace-batch", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_gate_rejects_a_result_that_does_not_follow_from_its_placement():
    sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]
    import check
    import gen
    import uavrelay
    from uavrelay import oracle

    draw = gen.freespace_draws(0, 1)[0]
    (scn, blk), = gen.build_freespace(uavrelay, [draw])
    results = [uavrelay.bcd_solve(scn, blk), uavrelay.high_snr_solve(scn, blk),
               oracle.fixed_location_baseline(scn, blk), oracle.fixed_power_baseline(scn, blk)]
    assert check.check_freespace(draw, results, []) == []
    results[0] = dataclasses.replace(results[0], snr=results[0].snr * 1.001)
    assert check.check_freespace(draw, results, [])
