"""Turning raw timings and spans into the named metrics."""

from __future__ import annotations

import math
import statistics

# Tail percentiles tried, highest first; the tail is the highest one with
# at least TAIL_BEYOND samples beyond it.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10
# points of line_search_max's dense fallback grid; a call that evaluates
# at least this many points fell back
FALLBACK_POINTS = 512

FIXED_BASELINES = ("fixed_power", "fixed_height", "fixed_location")


def tail(latencies: list[float]) -> tuple[float, str]:
    """(value, label) of the tail latency; the slowest sample when too few."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return xs[rank - 1], f"p{p:g}"
    return xs[-1], "max"


def latency_summary(latencies_ms: list[float]) -> dict:
    value, label = tail(latencies_ms)
    return {"n": len(latencies_ms), "p50": statistics.median(latencies_ms),
            "tail": value, "tail_label": label, "sum": math.fsum(latencies_ms)}


def merge_summaries(parts: list[dict]) -> dict:
    """Sum span aggregates and concatenate figures of several traced processes."""
    out = {"agg": {}, "line_search_evals": [], "eps_calls": 0, "eps_zero": 0,
           "gain_calls_in_bcd": 0, "grid_points": 0, "bcd_runs": {}}
    for part in parts:
        for name, agg in part["agg"].items():
            into = out["agg"].setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            for k in into:
                into[k] += agg[k]
        out["line_search_evals"] += part["line_search_evals"]
        out["eps_calls"] += part["eps_calls"]
        out["eps_zero"] += part["eps_zero"]
        out["gain_calls_in_bcd"] += part["gain_calls_in_bcd"]
        out["grid_points"] += part.get("grid_points", 0)
        for key, runs in part["bcd_runs"].items():
            out["bcd_runs"].setdefault(key, []).extend(runs)
    return out


def summarize_tracer(tracer) -> dict:
    return {"agg": tracer.aggregate(), "line_search_evals": tracer.line_search_evals,
            "eps_calls": len(tracer.eps_values),
            "eps_zero": sum(1 for e in tracer.eps_values if e == 0.0),
            "gain_calls_in_bcd": tracer.calls_under("channels.atg_gain", "atg3d.bcd"),
            "bcd_runs": {k: list(v) for k, v in tracer.bcd_runs.items()}}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(summary: dict, ops: int) -> dict[str, float]:
    """Layer figures from merged spans of ops operations.

    ``*.calls`` and ``*.self_ms`` are per operation; ``*_ms`` of a solver
    or of the oracle is the mean duration of one call.  A layer the
    workload never reaches reads 0.
    """
    agg = summary["agg"]

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def mean_ms(name):
        a = agg.get(name)
        return a["ms"] / a["calls"] if a else 0.0

    evals = summary["line_search_evals"]
    fs_runs = summary["bcd_runs"].get("freespace", [])
    a3_runs = summary["bcd_runs"].get("atg3d", [])
    gain = agg.get("channels.atg_gain", {"calls": 0, "self_ms": 0.0})
    gain_calls_in_bcd = summary["gain_calls_in_bcd"]
    out = {
        "channels.atg_gain.calls": gain["calls"] / ops,
        "channels.atg_gain.self_ms": gain["self_ms"] / ops,
        "channels.atg_gain.us_per_call": _share(gain["self_ms"] * 1e3, gain["calls"]),
        "atg3d.gain_evals_per_solve": _share(gain_calls_in_bcd, len(a3_runs)),
        "search.line_search.calls": calls("search.line_search") / ops,
        "search.line_search.evals_per_call": _share(sum(evals), len(evals)),
        "search.line_search.fallback_share": _share(
            sum(1 for e in evals if e >= FALLBACK_POINTS), len(evals)),
        "search.golden.calls": calls("search.golden") / ops,
        "atg3d.bcd_ms": mean_ms("atg3d.bcd"),
        "atg3d.bcd.cycles": _share(sum(r[0] for r in a3_runs), len(a3_runs)),
        "atg3d.bcd.at_cap_share": _share(sum(1 for r in a3_runs if r[1]), len(a3_runs)),
        "fbl.error_prob.calls": calls("fbl.error_prob") / ops,
        "fbl.error_prob.self_ms": agg.get("fbl.error_prob", {}).get("self_ms", 0.0) / ops,
        "fbl.eps_zero_share": _share(summary["eps_zero"], summary["eps_calls"]),
        "cubic.roots.calls": calls("cubic.roots") / ops,
        "cubic.roots.self_ms": agg.get("cubic.roots", {}).get("self_ms", 0.0) / ops,
        "channels.fs_gain.calls": calls("channels.fs_gain") / ops,
        "freespace.bcd_ms": mean_ms("freespace.bcd"),
        "freespace.bcd.iterations": _share(sum(r[0] for r in fs_runs), len(fs_runs)),
        "freespace.bcd.at_cap_share": _share(sum(1 for r in fs_runs if r[1]), len(fs_runs)),
        "highsnr.solve_ms": mean_ms("highsnr.solve"),
        "config.load_ms": mean_ms("config.load"),
        "harness.run_experiment_ms": agg.get("harness.run_experiment", {}).get("ms", 0.0) / ops,
        "harness.profile_curves_ms": agg.get("harness.profile_curves", {}).get("ms", 0.0) / ops,
        "harness.write_ms": agg.get("harness.write", {}).get("ms", 0.0) / ops,
        "oracle.2d_ms": mean_ms("oracle.2d"),
        "oracle.3d_ms": mean_ms("oracle.3d"),
    }
    for base in FIXED_BASELINES:
        out[f"oracle.{base}_ms"] = mean_ms(f"oracle.{base}")
    return out
