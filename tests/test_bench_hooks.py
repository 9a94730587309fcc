"""The library names and call shapes the benchmark under ``bench/`` uses.

``bench/tracing.py`` replaces module attributes such as
``uavrelay.harness.bcd_solve`` with timing wrappers, the benchmark
workers read a few constants, ``bench/batch_worker.py`` calls the solvers
and ``bench/cli_child.py`` runs a command through the ``cli.main.main``
adapter.  Renaming, dropping or re-shaping one of them would crash a
benchmark run; these tests make it fail here instead.  The batch solves
are also checked against the digests the benchmark stores for its seed-0
pools, so a change of their floats fails here before a benchmark run.
"""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import uavrelay
from uavrelay import atg3d, cli, freespace, harness, highsnr, oracle

from conftest import make_atg3d, solve_record

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
TRACING = BENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_every_hook_point():
    tracing = load_tracing()
    originals = (harness.bcd_solve, atg3d.hop_gains_3d, oracle.hop_gains_3d,
                 cli.run_experiment)
    tracer = tracing.Tracer()
    tracing.install(tracer, cli=True)
    try:
        assert harness.bcd_solve is not originals[0]
        assert atg3d.hop_gains_3d is not originals[1]
    finally:
        tracer.uninstall()
    assert (harness.bcd_solve, atg3d.hop_gains_3d, oracle.hop_gains_3d,
            cli.run_experiment) == originals


def test_traced_gain_spans_equal_the_real_evaluations(monkeypatch):
    # the solvers' gain memo calls atg3d.hop_gains_3d at call time, so the
    # tracer's wrapper records one span per real evaluation
    scn = make_atg3d("dense-urban")
    calls = []
    real = atg3d.hop_gains_3d
    monkeypatch.setattr(atg3d, "hop_gains_3d", lambda *args: calls.append(args) or real(*args))
    atg3d.bcd_solve_3d(scn)
    monkeypatch.undo()
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        atg3d.bcd_solve_3d(scn)
    finally:
        tracer.uninstall()
    assert len(calls) > 0
    assert tracer.aggregate()["channels.atg_gain"]["calls"] == len(calls)


def test_traced_freespace_gain_spans_count_each_evaluation():
    # bcd evaluates the gains once at its start and once per iteration,
    # the other solves once each; a call that bypassed the module
    # attribute freespace.freespace_gains would be missing from the count
    from test_freespace import GOLDEN_SOLVES, golden_scenarios

    golden = json.loads(GOLDEN_SOLVES.read_text())
    tracing = load_tracing()
    for name, (scn, blk) in golden_scenarios().items():
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            freespace.bcd_solve(scn, blk)
            highsnr.high_snr_solve(scn, blk)
            oracle.fixed_location_baseline(scn, blk)
            oracle.fixed_power_baseline(scn, blk)
        finally:
            tracer.uninstall()
        calls = tracer.aggregate()["channels.fs_gain"]["calls"]
        assert calls == golden[name]["bcd"]["iterations"] + 4, name


def test_constants_the_benchmark_reads():
    # bench/batch_worker.py and bench/cli_child.py
    assert isinstance(freespace.BCD_MAX_ITERS, int)
    assert isinstance(freespace.BCD_REL_TOL, float)
    assert isinstance(oracle.DEFAULT_POINTS_2D, int)
    assert isinstance(oracle.DEFAULT_POINTS_3D, int)


# the first draws of each seed-0 pool that the test below solves and checks
CHECKED_DRAWS = {"freespace-batch": 256, "atg3d-batch": 48}


@pytest.mark.parametrize("workload", ["freespace-batch", "atg3d-batch"])
def test_batch_operations_pass_the_gate(monkeypatch, workload):
    # the solves of bench/batch_worker.py on the first draws of its seed-0
    # pool, against the invariants and the digests stored in bench/refs/;
    # the draws' strata depend on the pool size, so the whole pool is drawn
    monkeypatch.syspath_prepend(str(BENCH))
    batch_worker = importlib.import_module("batch_worker")
    check = importlib.import_module("check")
    make, build = batch_worker.GENERATORS[workload]
    draws = make(0, batch_worker.POOL_SIZE[workload])
    checked = CHECKED_DRAWS[workload]
    op = batch_worker.operation(workload, build(uavrelay, draws[:checked]))
    gate = check.Gate(workload, draws, batch_worker.stored_digests(workload, 0))
    for i in range(checked):
        assert gate.check(i, op(i)), gate.problems


# sha256 over the exact floats of the four free-space solves on the first
# PINNED_DRAWS draws of the seed-0 pool; the stored digests above keep
# only nine significant digits, this keeps every bit
PINNED_DRAWS = 512
PINNED_SHA256 = "c016453742ebcae38e166d17b65575d0d8fe0fcbc25e54e8201bbe7c13ab1750"


def freespace_batch_sha256(monkeypatch) -> str:
    monkeypatch.syspath_prepend(str(BENCH))
    batch_worker = importlib.import_module("batch_worker")
    make, build = batch_worker.GENERATORS["freespace-batch"]
    draws = make(0, batch_worker.POOL_SIZE["freespace-batch"])
    op = batch_worker.operation("freespace-batch", build(uavrelay, draws[:PINNED_DRAWS]))
    digest = hashlib.sha256()
    for i in range(PINNED_DRAWS):
        records = [solve_record(res) for res in op(i)]
        digest.update(json.dumps(records, sort_keys=True).encode())
    return digest.hexdigest()


def test_freespace_batch_is_bit_identical(monkeypatch):
    assert freespace_batch_sha256(monkeypatch) == PINNED_SHA256


def test_cli_runs_as_the_benchmark_calls_it(tmp_path):
    # bench/cli_child.py calls the cli.main.main adapter in this shape
    def run(config):
        return cli.main.main(args=["solve", "--config", str(config), "--solver", "bcd",
                                   "--out", str(tmp_path / "r.csv")],
                             prog_name="uavrelay", standalone_mode=False)

    run(ROOT / "configs" / "freespace.json")
    assert (tmp_path / "r.csv").exists()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1}))
    with pytest.raises(SystemExit) as exc:
        run(bad)
    assert exc.value.code == 2
