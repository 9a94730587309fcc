"""The library names the benchmark under ``bench/`` wraps or reads.

``bench/tracing.py`` replaces module attributes such as
``uavrelay.harness.bcd_solve`` with timing wrappers, and the benchmark
workers read a few constants.  Renaming or dropping one of them would
crash a benchmark run; this test makes it fail here instead.
"""

import importlib.util
from pathlib import Path

from uavrelay import atg3d, cli, freespace, harness, oracle

from conftest import make_atg3d

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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


def test_constants_the_benchmark_reads():
    # bench/batch_worker.py and bench/cli_child.py
    assert isinstance(freespace.BCD_MAX_ITERS, int)
    assert isinstance(freespace.BCD_REL_TOL, float)
    assert isinstance(oracle.DEFAULT_POINTS_2D, int)
    assert isinstance(oracle.DEFAULT_POINTS_3D, int)
