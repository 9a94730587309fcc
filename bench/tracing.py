"""Spans recorded from outside the library, and the per-layer figures made from them.

``install`` replaces public functions at the module attributes the
solvers look up at call time (``uavrelay.atg3d.hop_gains_3d``,
``uavrelay.freespace.cubic_real_roots``, ...) with wrappers that record a
span each: a name, a start, an end and the span it ran under.  Spans stay
in memory until ``dump`` writes them out.  A layer's self time is its
spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one (name id, start ns, end ns, parent index or -1) per span
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []
        # figures read off arguments and results at the wrapped boundaries
        self.line_search_evals: list[int] = []
        self.eps_values: list[float] = []
        self.bcd_runs: dict[str, list[tuple[int, bool]]] = defaultdict(list)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span called name."""
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        stack.append(idx)
        parent = stack[-2] if len(stack) > 1 else -1
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[idx] = (nid, start, end, parent)

    def wrap(self, module, attr: str, name, after=None, wrap_args=None) -> None:
        """Replace module.attr by a spanning wrapper.

        name is a span name or a function of the call's arguments giving
        one; after(args, result) sees each result; wrap_args(args) may
        swap the arguments before the call and return a hook run after it.
        """
        orig = getattr(module, attr)
        call = self.call
        fixed = None if callable(name) else name

        def wrapper(*args, **kwargs):
            hook = None
            if wrap_args is not None:
                args, hook = wrap_args(args)
            result = call(fixed or name(args), orig, *args, **kwargs)
            if hook is not None:
                hook()
            if after is not None:
                after(args, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms."""
        child_ns = [0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (nid, start, end, parent) in enumerate(self.spans):
            agg = out.setdefault(self.names[nid], {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            agg["calls"] += 1
            agg["ms"] += (end - start) / 1e6
            agg["self_ms"] += (end - start - child_ns[i]) / 1e6
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called name that ran, at any depth, under a span called ancestor."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        nid, aid = self._ids[name], self._ids[ancestor]
        under = [False] * len(self.spans)
        count = 0
        # a parent's index is always below its children's
        for i, (sid, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                under[i] = under[parent] or self.spans[parent][0] == aid
            if sid == nid and under[i]:
                count += 1
        return count

    def dump(self, path: str, **extra) -> None:
        """Write the spans (and any extra JSON values) to path."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, **extra}, fh)
            fh.write("\n")


def _counting_objective(tracer: Tracer):
    # wraps the objective a line search receives so its evaluations are counted
    def wrap_args(args):
        f, rest = args[0], args[1:]
        count = [0]

        def counted(x):
            count[0] += 1
            return f(x)

        return (counted,) + rest, lambda: tracer.line_search_evals.append(count[0])

    return wrap_args


def _record_eps(tracer: Tracer):
    return lambda args, eps: tracer.eps_values.append(eps)


def _record_bcd(tracer: Tracer, key: str, cap: int, rel_tol: float):
    def after(args, result):
        trace = result.trace
        converged = len(trace) < 2 or trace[-1] - trace[-2] <= rel_tol * max(trace[-2], 1e-300)
        tracer.bcd_runs[key].append((result.iterations, result.iterations >= cap and not converged))

    return after


def install(tracer: Tracer, cli: bool = False) -> None:
    """Wrap every layer boundary the workloads cross (and the CLI's, if cli)."""
    from uavrelay import atg3d, freespace, harness, highsnr, oracle, search

    cap, rel_tol = freespace.BCD_MAX_ITERS, freespace.BCD_REL_TOL
    for module in (freespace, atg3d, highsnr, oracle):
        tracer.wrap(module, "decoding_error_probability", "fbl.error_prob",
                    after=_record_eps(tracer))
    tracer.wrap(freespace, "cubic_real_roots", "cubic.roots")
    tracer.wrap(freespace, "freespace_gains", "channels.fs_gain")
    for module in (atg3d, oracle):
        tracer.wrap(module, "hop_gains_3d", "channels.atg_gain")
    tracer.wrap(atg3d, "line_search_max", "search.line_search",
                wrap_args=_counting_objective(tracer))
    for module in (search, highsnr, oracle):
        tracer.wrap(module, "golden_section_max", "search.golden")

    def exhaustive_name(args):
        return "oracle.3d" if isinstance(args[0], atg3d.Atg3dScenario) else "oracle.2d"

    # solver entry points, where the benchmark and the harness call them
    for module in (freespace, harness):
        tracer.wrap(module, "bcd_solve", "freespace.bcd",
                    after=_record_bcd(tracer, "freespace", cap, rel_tol))
    for module in (atg3d, harness):
        tracer.wrap(module, "bcd_solve_3d", "atg3d.bcd",
                    after=_record_bcd(tracer, "atg3d", cap, rel_tol))
    for module in (highsnr, harness):
        tracer.wrap(module, "high_snr_solve", "highsnr.solve")
    for module in (oracle, harness):
        tracer.wrap(module, "fixed_location_baseline", "oracle.fixed_location")
        tracer.wrap(module, "fixed_power_baseline", "oracle.fixed_power")
        tracer.wrap(module, "fixed_height_baseline", "oracle.fixed_height")
        tracer.wrap(module, "exhaustive_search", exhaustive_name)
    if cli:
        from uavrelay import cli as cli_module

        tracer.wrap(cli_module, "load_config", "config.load")
        tracer.wrap(cli_module, "run_experiment", "harness.run_experiment")
        tracer.wrap(cli_module, "profile_curves", "harness.profile_curves")
        for attr in ("write_rows_csv", "write_rows_json", "write_traces_json",
                     "write_profile_csv"):
            tracer.wrap(cli_module, attr, "harness.write")
