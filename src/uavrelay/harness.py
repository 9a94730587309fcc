"""Experiment runner: the solver table, sweeps, result rows and file output.

``run_experiment`` returns ``(rows, traces, failures)``.  Each row is a
plain dict keyed by ``CSV_COLUMNS``, in column order, and the writers
emit its values as they stand.  Rows are emitted in (solver, sweep index)
order regardless of execution details, numeric cells use the shortest
round-trip float representation, and the wall-time measurement is
isolated in the last column so two runs of the same config can be diffed
column-wise.  A failing solver produces an error-status row, whose
numeric cells are None, and the run carries on.  Each solver runs once
per distinct scenario of a sweep: the blocklength changes only the error
probability, which later points re-score from the solved SNR.
"""

from __future__ import annotations

import csv
import json
import time

from ._record import replace
from . import atg3d
from .atg3d import Atg3dScenario, _span, bcd_solve_3d
from .config import ConfigError, ExperimentConfig, ProfileSpec, _with_env2, profile_coordinates
from .fbl import PowerSplit, af_snr, decoding_error_probability
from .freespace import bcd_solve
from .highsnr import high_snr_solve
from .oracle import (
    exhaustive_search,
    fixed_height_baseline,
    fixed_location_baseline,
    fixed_power_baseline,
)


# the CSV and JSON columns, in order: the keys of every result row
CSV_COLUMNS = ("scenario_id", "solver", "sweep_parameter", "sweep_value", "x_m", "height_m",
               "p1_w", "p2_w", "snr", "error_prob", "iterations", "status", "wall_time_s")


# Model -> solver name -> call(scn, blk, config): the one list of solver
# names.  Each entry looks its solver up in this module when called, so a
# wrapper set on that module attribute sees the call.
SOLVERS = {
    "freespace": {
        "bcd": lambda scn, blk, config: bcd_solve(scn, blk),
        "high-snr": lambda scn, blk, config: high_snr_solve(scn, blk),
        "exhaustive": lambda scn, blk, config: exhaustive_search(scn, blk, config.grid),
        "fixed-location": lambda scn, blk, config: fixed_location_baseline(scn, blk),
        "fixed-power": lambda scn, blk, config: fixed_power_baseline(scn, blk),
    },
    "atg3d": {
        "bcd": lambda scn, blk, config: bcd_solve_3d(scn),
        "exhaustive": lambda scn, blk, config: exhaustive_search(scn, blk, config.grid),
        "fixed-location": lambda scn, blk, config: fixed_location_baseline(scn, blk),
        "fixed-power": lambda scn, blk, config: fixed_power_baseline(scn, blk),
        "fixed-height": lambda scn, blk, config: fixed_height_baseline(
            scn, blk, config.fixed_height_m),
    },
}


def run_experiment(config: ExperimentConfig) -> tuple[list[dict], dict[str, list[float]], int]:
    """Run every configured solver over the sweep (or the base point).

    Returns (rows, traces, failures): one row per solver and point, each
    SNR trace keyed "scenario/solver/point", and the number of failed runs.
    """
    points = list(config.sweep_values) if config.sweep_parameter else [None]
    rows: list[dict] = []
    traces: dict[str, list[float]] = {}
    failures = 0
    for solver in config.solvers:
        # scenario -> SolveResult, or the exception the solver raised on it
        solved = {}
        for value in points:
            sweep_value = "" if value is None else str(value)
            key = f"{config.scenario_id}/{solver}/{sweep_value or 'base'}"
            start = time.perf_counter()
            try:
                scn, blk = config.point(value)
                if scn not in solved:
                    try:
                        solved[scn] = SOLVERS[config.model][solver](scn, blk, config)
                    except Exception as exc:
                        solved[scn] = exc
                result = solved[scn]
                if isinstance(result, Exception):
                    raise result
                error_prob = decoding_error_probability(result.snr, blk)
            except Exception as exc:  # carry on; the row records the failure
                failures += 1
                outcome = (None,) * 7 + (f"error: {exc}",)
            else:
                outcome = (result.x, result.height, result.powers.p1, result.powers.p2,
                           result.snr, error_prob, result.iterations, "ok")
                traces[key] = list(result.trace)
            rows.append(dict(zip(CSV_COLUMNS, (
                config.scenario_id, solver, config.sweep_parameter or "", sweep_value,
                *outcome, time.perf_counter() - start))))
    return rows, traces, failures


def _write_csv(header, rows, path: str) -> None:
    # csv writes None as "" and every other cell as str(cell)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_rows_csv(rows, path: str) -> None:
    _write_csv(CSV_COLUMNS, (row.values() for row in rows), path)


def write_rows_json(rows, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2)
        fh.write("\n")


write_traces_json = write_rows_json


def profile_curves(
    config: ExperimentConfig, axis: str | None = None, step: float | None = None
) -> tuple[str, list[tuple[str, float, float]]]:
    """SNR profile curves along height or ground offset, one per hop-2 preset.

    Returns the coordinate column name and (environment, coordinate, snr)
    rows.  The companion coordinate stays fixed (explicitly configured or
    the band midpoint) and powers default to an even split.
    """
    scn = config.scenario
    if not isinstance(scn, Atg3dScenario):
        raise ConfigError(f"profile curves need an atg3d config, not {config.model}")
    prof = config.profile or ProfileSpec()
    if axis is not None:
        prof = replace(prof, axis=axis)
    if step is not None:
        prof = replace(prof, step_m=step)

    if prof.p1_w is None:
        powers = PowerSplit.even(scn.p_total)
    else:
        powers = PowerSplit(prof.p1_w, scn.p_total - prof.p1_w)

    # axis 0 is the ground offset at a fixed height, axis 1 the height at a fixed x
    axis = ("x", "height").index(prof.axis)
    bounds, fixed_bounds = _span(scn, axis), _span(scn, 1 - axis)
    fixed = (prof.fixed_height_m, prof.fixed_x_m)[axis]
    if fixed is None:
        fixed = 0.5 * (fixed_bounds[0] + fixed_bounds[1])
    if not (fixed_bounds[0] <= fixed <= fixed_bounds[1]):
        raise ConfigError(
            f"fixed profile coordinate {fixed} outside bounds {fixed_bounds}"
        )
    lo, hi = prof.sample_range if prof.sample_range is not None else bounds
    if not (bounds[0] <= lo <= hi <= bounds[1]):
        raise ConfigError(f"profile range ({lo}, {hi}) outside bounds {bounds}")

    coords = profile_coordinates(lo, hi, prof.step_m)

    rows: list[tuple[str, float, float]] = []
    for preset in prof.hop2_presets:
        env_scn = _with_env2(scn, preset)
        for t in coords:
            x, h = (fixed, t) if axis else (t, fixed)
            # by the module attribute, so a wrapper set on it sees the call
            rows.append((preset, t, af_snr(*atg3d.hop_gains_3d(env_scn, x, h), powers)))
    return ("x_m", "height_m")[axis], rows


def write_profile_csv(coord_name: str, rows, path: str) -> None:
    _write_csv(("environment", coord_name, "snr"), rows, path)
