"""Command-line harness for the relay placement experiments.

Subcommands: ``solve`` (base scenario), ``sweep`` (configured parameter
sweep), ``profile`` (SNR curves along height or offset) and ``oracle``
(exhaustive reference search).  Exit codes: 0 success, 2 invalid
configuration or usage, 3 when some solver runs failed (partial output
is still written).
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import click

from .config import ConfigError, build_grid, load_config
from .harness import (
    profile_curves,
    run_experiment,
    write_profile_csv,
    write_rows_csv,
    write_rows_json,
    write_traces_json,
)

EXIT_CONFIG_ERROR = 2
EXIT_PARTIAL_FAILURE = 3


def _exit_unusable(call, *args, **kwargs):
    # unusable input exits 2 with one JSON line; a bare `uavrelay`, which
    # click raises as a usage error too, still prints its help
    try:
        return call(*args, **kwargs)
    except click.exceptions.NoArgsIsHelpError:
        raise
    except (click.UsageError, ConfigError) as exc:
        detail = exc.format_message() if isinstance(exc, click.UsageError) else str(exc)
        click.echo(json.dumps({"error": "config", "detail": detail}), err=True)
        sys.exit(EXIT_CONFIG_ERROR)


class _Group(click.Group):
    """A click group whose usage and config errors share one exit-2 handler."""

    def make_context(self, *args, **kwargs):
        return _exit_unusable(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _exit_unusable(super().invoke, ctx)


def _write(write, *args) -> None:
    try:
        write(*args)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


def _override_solvers(config, solver_option: str | None):
    if solver_option is None:
        return config
    names = tuple(s.strip() for s in solver_option.split(",") if s.strip())
    if not names:
        raise ConfigError("--solver override is empty")
    return replace(config, solvers=names)


def _parse_grid(config, grid_option: str | None):
    if grid_option is None:
        return config
    counts: dict[str, int] = {}
    for part in grid_option.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad --grid entry {part!r}; expected axis=points")
        axis, _, num = part.partition("=")
        try:
            counts[f"{axis}_points"] = int(num)
        except ValueError:
            raise ConfigError(f"bad --grid point count {num!r}") from None
    return replace(config, grid=build_grid(config.model, counts))


def _check_outputs(*paths: str) -> None:
    # refuse, before the run, what is sure to fail at the write or to
    # overwrite another output of the same run
    seen: dict[str, str] = {}
    for path in paths:
        if os.path.isdir(path):
            raise ConfigError(f"output path {path!r} is a directory")
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise ConfigError(f"output directory {parent!r} of {path!r} does not exist")
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"outputs {seen[real]!r} and {path!r} are the same file")
        seen[real] = path


def _emit(config, out_option: str | None, trace_option: str | None) -> None:
    """Check the output paths, run the experiment and write its outputs."""
    csv_path = out_option or config.output_csv or "results.csv"
    if out_option is None and config.output_json:
        json_path = config.output_json
    else:
        json_path = os.path.splitext(csv_path)[0] + ".json"
    trace_path = trace_option or config.output_trace
    _check_outputs(csv_path, json_path, *([trace_path] if trace_path else []))
    outcome = run_experiment(config)
    _write(write_rows_csv, outcome.rows, csv_path)
    _write(write_rows_json, outcome.rows, json_path)
    if trace_path:
        _write(write_traces_json, outcome.traces, trace_path)
    click.echo(f"wrote {csv_path} and {json_path} ({len(outcome.rows)} data rows)")
    if outcome.failures:
        click.echo(f"{outcome.failures} solver run(s) failed", err=True)
        sys.exit(EXIT_PARTIAL_FAILURE)


_CONFIG_OPT = click.option(
    "--config", "config_path", required=True, metavar="PATH",
    help="Experiment config file (JSON).",
)
_OUT_OPT = click.option(
    "--out", "out_path", default=None, metavar="PATH",
    help="CSV output path (a JSON mirror is written alongside).",
)
_TRACE_OPT = click.option(
    "--trace", "trace_path", default=None, metavar="PATH",
    help="Write per-run SNR traces to this JSON file.",
)
_SOLVER_OPT = click.option(
    "--solver", "solver_option", default=None, metavar="NAME[,NAME...]",
    help="Override the configured solver list.",
)


@click.group(cls=_Group)
def main() -> None:
    """Relay placement and power-split optimisation experiments."""


@main.command()
@_CONFIG_OPT
@_OUT_OPT
@_TRACE_OPT
@_SOLVER_OPT
def solve(config_path, out_path, trace_path, solver_option) -> None:
    """Run the configured solvers on the base scenario (no sweep)."""
    config = load_config(config_path)
    config = _override_solvers(config, solver_option)
    config = replace(config, sweep_parameter=None, sweep_values=())
    _emit(config, out_path, trace_path)


@main.command()
@_CONFIG_OPT
@_OUT_OPT
@_TRACE_OPT
@_SOLVER_OPT
def sweep(config_path, out_path, trace_path, solver_option) -> None:
    """Run the configured solvers over the configured sweep."""
    config = load_config(config_path)
    if config.sweep_parameter is None:
        raise ConfigError("sweep subcommand requires a sweep section in the config")
    config = _override_solvers(config, solver_option)
    _emit(config, out_path, trace_path)


@main.command()
@_CONFIG_OPT
@_OUT_OPT
@click.option("--axis", type=click.Choice(["height", "x"]), default=None,
              help="Profile coordinate (default from config, else height).")
@click.option("--step", type=float, default=None, metavar="METRES",
              help="Sample spacing (default from config, else 1 m).")
def profile(config_path, out_path, axis, step) -> None:
    """Emit SNR profile curves for the air-to-ground model."""
    config = load_config(config_path)
    csv_path = out_path or config.output_csv or "profile.csv"
    _check_outputs(csv_path)
    coord_name, rows = profile_curves(config, axis, step)
    _write(write_profile_csv, coord_name, rows, csv_path)
    click.echo(f"wrote {csv_path} ({len(rows)} samples)")


@main.command()
@_CONFIG_OPT
@_OUT_OPT
@_TRACE_OPT
@click.option("--grid", "grid_option", default=None, metavar="SPEC",
              help="Grid densities, e.g. 'x=2000,p1=2000' or 'x=200,h=200,p1=200'.")
def oracle(config_path, out_path, trace_path, grid_option) -> None:
    """Run the exhaustive reference search on the base scenario."""
    config = load_config(config_path)
    config = _parse_grid(config, grid_option)
    config = replace(
        config, solvers=("exhaustive",), sweep_parameter=None, sweep_values=()
    )
    _emit(config, out_path, trace_path)


if __name__ == "__main__":
    main()
