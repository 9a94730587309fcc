"""One solver batch in a fresh interpreter; prints one JSON line.

    python3 bench/batch_worker.py MODE WORKLOAD SEED SECONDS MAX_OPS [TRACE_PATH]

MODE is ``setup`` (time set-up only), ``timed`` or ``traced``.  ``timed``
solves the pool in order, over and over, until SECONDS of solving are
done (or MAX_OPS operations, 0 for no limit).  Its times are in
reference units (see ``speed``), scaled per block of operations, and an
operation's latency is the mean of its repeats.  ``traced`` solves
the first operations once untraced and once under the span tracer, in
raw wall time.  The library must be importable, e.g. with
PYTHONPATH=src.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time

import check
import gen
import metrics
import speed
import tracing

POOL_SIZE = {"freespace-batch": 8192, "atg3d-batch": 4096}
# operations the traced mode solves (twice: untraced, then traced)
TRACED_OPS = {"freespace-batch": 2000, "atg3d-batch": 100}
# the first scenarios of a timed atg3d run are solved again under the
# tracer to count line-search fallbacks, a property of the inputs
MIX_PROBE_OPS = 24
# a block of solving takes its speed factor from the kernel runs made
# every KERNEL_EVERY_S of solving inside it (about 1% of the time)
BLOCK_S = 0.5
KERNEL_EVERY_S = 0.025
REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
GENERATORS = {"freespace-batch": (gen.freespace_draws, gen.build_freespace),
              "atg3d-batch": (gen.atg3d_draws, gen.build_atg3d)}


def stored_digests(workload: str, seed: int) -> list[str] | None:
    if seed != check.DEFAULT_SEED:
        return None
    with open(os.path.join(REFS, f"{workload}.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    width = check.DIGEST_CHARS
    digests = [refs["digests"][k:k + width] for k in range(0, len(refs["digests"]), width)]
    if refs["seed"] != seed or len(digests) != POOL_SIZE[workload]:
        raise SystemExit(f"{workload} references do not match seed {seed} "
                         f"and pool size {POOL_SIZE[workload]}")
    return digests


def operation(workload: str, pool: list):
    """The solves of one operation on pool[i], looked up at call time."""
    from uavrelay import atg3d, freespace, highsnr, oracle

    if workload == "freespace-batch":
        def op(i):
            scn, blk = pool[i]
            return (freespace.bcd_solve(scn, blk), highsnr.high_snr_solve(scn, blk),
                    oracle.fixed_location_baseline(scn, blk),
                    oracle.fixed_power_baseline(scn, blk))
    else:
        def op(i):
            scn, h_pin = pool[i]
            return (atg3d.bcd_solve_3d(scn), oracle.fixed_power_baseline(scn),
                    oracle.fixed_height_baseline(scn, None, h_pin),
                    oracle.fixed_location_baseline(scn))
    return op


def solve_one(op, gate, i: int, call=None) -> tuple[float, float, bool]:
    """Solve and check pool[i]; (wall seconds, CPU seconds, passed)."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        results = op(i) if call is None else call("op", op, i)
    except Exception as exc:  # an operation that raises counts as failed
        results = None
        gate.problems.append(f"draw {i}: {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return wall, cpu, results is not None and gate.check(i, results)


def timed(workload: str, op, gate, seconds: float, max_ops: int) -> dict:
    n = POOL_SIZE[workload]
    total = [0.0] * n
    total_cpu = [0.0] * n
    repeats = [0] * n
    attempted = failed = 0
    busy = since_kernel = 0.0
    factors = []
    block: list[tuple[int, float, float]] = []
    block_s = 0.0
    kernels: list[float] = []
    while True:
        done = busy >= seconds or (max_ops and attempted >= max_ops)
        if block and (done or block_s >= BLOCK_S):
            kernels.append(speed.kernel_s())
            factors.append(speed.factor(kernels))
            for i, wall, cpu in block:
                total[i] += wall * factors[-1]
                total_cpu[i] += cpu * factors[-1]
                repeats[i] += 1
            block, block_s, kernels = [], 0.0, []
        if done:
            break
        i = attempted % n
        wall, cpu, ok = solve_one(op, gate, i)
        block.append((i, wall, cpu))
        block_s += wall
        busy += wall
        attempted += 1
        failed += not ok
        since_kernel += wall
        if since_kernel >= KERNEL_EVERY_S:
            kernels.append(speed.kernel_s())
            since_kernel = 0.0
    seen = [i for i in range(n) if repeats[i]]
    latencies_ms = [total[i] / repeats[i] * 1e3 for i in seen]
    return {"attempted": attempted, "failed": failed, "busy_s": busy,
            "repeats": attempted / len(seen), "speed_factor": statistics.median(factors),
            "latency": metrics.latency_summary(latencies_ms),
            "cpu_ms_per_op": math.fsum(total_cpu[i] / repeats[i] for i in seen) * 1e3
            / len(seen),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mix": mix_stats(workload, gate, op)}


def traced(workload: str, op, gate, max_ops: int, trace_path: str | None) -> dict:
    n = min(TRACED_OPS[workload], max_ops or POOL_SIZE[workload])
    runs = [solve_one(op, gate, i) for i in range(n)]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        runs_traced = [solve_one(op, gate, i, call=tracer.call) for i in range(n)]
    finally:
        tracer.uninstall()
    summary = metrics.summarize_tracer(tracer)
    if trace_path:
        tracer.dump(trace_path, summary=summary)
    return {"attempted": 2 * n, "ops": n,
            "failed": sum(1 for r in runs + runs_traced if not r[2]),
            "untraced_s": math.fsum(r[0] for r in runs),
            "traced_s": math.fsum(r[0] for r in runs_traced), "summary": summary}


def mix_stats(workload: str, gate, op) -> dict:
    """Properties of the inputs that later changes to the draws would move."""
    from uavrelay.freespace import BCD_MAX_ITERS

    firsts = list(gate.first.values())
    rows = [row for key in firsts for row in key]
    mix = {"distinct_draws": len(firsts),
           "eps_zero_share": sum(1 for row in rows if row[5] == 0.0) / max(1, len(rows)),
           "bcd_at_cap_share": sum(1 for key in firsts if key[0][6] >= BCD_MAX_ITERS)
           / max(1, len(firsts)),
           "bcd_shortfall_share": sum(1 for s in gate.shortfalls if s > check.BCD_RTOL)
           / max(1, len(gate.shortfalls)),
           "bcd_shortfall_max": max(gate.shortfalls, default=0.0),
           "box_rounding_share": len({p.split(":")[0] for p in gate.roundings})
           / max(1, len(firsts))}
    if workload == "atg3d-batch":
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            for i in range(min(MIX_PROBE_OPS, len(firsts))):
                op(i)
        finally:
            tracer.uninstall()
        evals = tracer.line_search_evals
        mix["fallback_share"] = sum(1 for e in evals if e >= metrics.FALLBACK_POINTS) \
            / max(1, len(evals))
    return mix


def main() -> None:
    mode, workload, seed, seconds, max_ops = sys.argv[1:6]
    seed, seconds, max_ops = int(seed), float(seconds), int(max_ops)
    trace_path = sys.argv[6] if len(sys.argv) > 6 else None
    make, build = GENERATORS[workload]
    draws = make(seed, POOL_SIZE[workload])

    t0 = time.perf_counter()
    import uavrelay
    pool = build(uavrelay, draws)
    out = {"setup_s": time.perf_counter() - t0}
    if mode != "setup":
        op = operation(workload, pool)
        gate = check.Gate(workload, draws, stored_digests(workload, seed))
        if mode == "timed":
            out.update(timed(workload, op, gate, seconds, max_ops))
        else:
            out.update(traced(workload, op, gate, max_ops, trace_path))
        out["problems"] = gate.problems[:20]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
