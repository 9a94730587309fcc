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

import collections
import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import uavrelay
from uavrelay import atg3d, cli, freespace, harness, highsnr, oracle, search

from conftest import (count_golden_sections, high_snr_cases, high_snr_winner, make_atg3d,
                      solve_record)

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
    # the solvers' line blocks call atg3d.hop_gains_3d at call time, so the
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
    # the other solves once each; bcd solves the placement cubic once per
    # iteration and fixed-power once.  A call that bypassed the module
    # attribute freespace.freespace_gains or freespace.cubic_real_roots
    # would be missing from the count
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
        spans = tracer.aggregate()
        iterations = golden[name]["bcd"]["iterations"]
        assert spans["channels.fs_gain"]["calls"] == iterations + 4, name
        assert spans["cubic.roots"]["calls"] == iterations + 1, name


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
# of those draws, the ones where a pinned high-SNR case wins
SKIPPED_SEARCHES = 366


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


def pinned_freespace_draws(monkeypatch) -> list:
    """(scenario, blocklength) of the first PINNED_DRAWS seed-0 free-space draws."""
    monkeypatch.syspath_prepend(str(BENCH))
    batch_worker = importlib.import_module("batch_worker")
    make, build = batch_worker.GENERATORS["freespace-batch"]
    draws = make(0, batch_worker.POOL_SIZE["freespace-batch"])
    return build(uavrelay, draws[:PINNED_DRAWS])


def test_high_snr_searches_condition1_only_where_it_wins(monkeypatch):
    # on the same draws, condition I's golden section runs exactly where
    # condition I wins; on the rest (an edge case wins) the bound skips it
    calls = count_golden_sections(monkeypatch)
    skipped = 0
    for scn, blk in pinned_freespace_draws(monkeypatch):
        winner = high_snr_winner(scn)
        lo, hi = highsnr._crossing_power(scn, scn.d1), highsnr._crossing_power(scn, scn.d2)
        assert highsnr._condition1_bound(scn, lo, hi) >= high_snr_cases(scn)["I"].gamma_tilde
        calls.clear()
        highsnr.high_snr_solve(scn, blk)
        assert len(calls) == (winner.condition == "I"), scn
        skipped += not calls
    assert skipped == SKIPPED_SEARCHES


# The work ledger: calls of each library attribute that bench/tracing.py
# wraps (in every module it wraps it on) over the first draws of each
# seed-0 pool, solved as bench/batch_worker.py solves them.  Unlike the
# benchmark's timings these counts are exact, so a change in the work
# fails here; a change that means to move them updates them and says why.
LEDGER_HOOKS = {
    "decoding_error_probability": (freespace, atg3d, highsnr, oracle),
    "cubic_real_roots": (freespace,),
    "freespace_gains": (freespace,),
    "hop_gains_3d": (atg3d, oracle),
    "line_search_max": (atg3d,),
    "golden_section_max": (search, highsnr, oracle),
}
LEDGER_DRAWS = {"freespace-batch": PINNED_DRAWS, "atg3d-batch": 64}
LEDGER = {
    # the golden sections are condition I's, one per draw it is not skipped on
    "freespace-batch": {"cubic_real_roots": 3089, "decoding_error_probability": 2048,
                        "freespace_gains": 4625,
                        "golden_section_max": PINNED_DRAWS - SKIPPED_SEARCHES},
    # each line search runs one golden section
    "atg3d-batch": {"decoding_error_probability": 256, "golden_section_max": 1886,
                    "hop_gains_3d": 53626, "line_search_max": 1886},
}


# The rest of the ledger, over the same draws: each solver's summed
# iterations (its bcd cycles; one for a one-shot solver), the line
# searches' objective evaluations, calls and dense-grid fallbacks, and the
# grids they search: one pre-sample grid per line block (two each in bcd and
# fixed-power, one in fixed-height, 5 per draw) and one dense grid per
# fallback.
SOLVE_LEDGER = {
    "freespace-batch": {"bcd": 2577, "high-snr": 512, "fixed-location": 512,
                        "fixed-power": 512},
    "atg3d-batch": {"bcd": 592, "fixed-power": 207, "fixed-height": 530, "fixed-location": 64,
                    "line_search_max evaluations": 83712, "line_search_max calls": 1886,
                    "line_search_max fallbacks": 9, "pre-sample grids": 5 * 64,
                    "fallback grids": 9},
}


def ledger_solves(monkeypatch, workload: str) -> list:
    """The results of the first LEDGER_DRAWS draws of the seed-0 pool,
    solved as bench/batch_worker.py solves them."""
    monkeypatch.syspath_prepend(str(BENCH))
    batch_worker = importlib.import_module("batch_worker")
    make, build = batch_worker.GENERATORS[workload]
    draws = make(0, batch_worker.POOL_SIZE[workload])[:LEDGER_DRAWS[workload]]
    op = batch_worker.operation(workload, build(uavrelay, draws))
    return [op(i) for i in range(len(draws))]


@pytest.mark.parametrize("workload", LEDGER)
def test_work_ledger(monkeypatch, workload):
    counts = collections.Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return call

    for name, modules in LEDGER_HOOKS.items():
        for module in modules:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    ledger_solves(monkeypatch, workload)
    assert counts == LEDGER[workload]


@pytest.mark.parametrize("workload", SOLVE_LEDGER)
def test_work_ledger_of_cycles_and_line_search_evaluations(monkeypatch, workload):
    counts = collections.Counter()
    line_search = atg3d.line_search_max

    def counted_search(f, *args):
        evals = [0]

        def objective(x):
            evals[0] += 1
            return f(x)

        result = line_search(objective, *args)
        counts["line_search_max calls"] += 1
        counts["line_search_max evaluations"] += evals[0]
        counts["line_search_max fallbacks"] += evals[0] >= search.FALLBACK_POINTS
        return result

    linspace = search._linspace

    def counted_grid(lo, hi, n):
        counts["fallback grids" if n == search.FALLBACK_POINTS else "pre-sample grids"] += 1
        return linspace(lo, hi, n)

    for module in (search, atg3d):
        monkeypatch.setattr(module, "_linspace", counted_grid)
    monkeypatch.setattr(atg3d, "line_search_max", counted_search)
    for results in ledger_solves(monkeypatch, workload):
        for res in results:
            counts[res.solver] += res.iterations
    assert counts == SOLVE_LEDGER[workload]


def test_high_snr_computes_each_crossing_power_once(monkeypatch):
    # the crossing powers of d1 and d2 bound all three cases' power ranges;
    # one solve computes each of them once
    calls = []
    crossing = highsnr._crossing_power

    def counted(scn, d):
        calls.append(d)
        return crossing(scn, d)

    monkeypatch.setattr(highsnr, "_crossing_power", counted)
    for scn, blk in pinned_freespace_draws(monkeypatch):
        calls.clear()
        highsnr.high_snr_solve(scn, blk)
        assert calls == [scn.d1, scn.d2], scn


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
