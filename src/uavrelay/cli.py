"""Command-line harness for the relay placement experiments.

Subcommands: ``solve`` (base scenario), ``sweep`` (configured parameter
sweep), ``profile`` (SNR curves along height or offset) and ``oracle``
(exhaustive reference search).  Exit codes: 0 success, 2 invalid
configuration or usage, 3 when some solver runs failed (partial output
is still written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._record import replace
from .config import ConfigError, build_grid, load_config

EXIT_CONFIG_ERROR = 2
EXIT_PARTIAL_FAILURE = 3

# The harness functions the commands call.  The harness, and with it every
# solver module, is imported by the first command that runs one
# (``_load_harness``) or by the config reader, whose solver-name check reads
# the harness's table.  So ``import uavrelay.cli``, ``--help`` and a config
# file that is missing, unparsable or off the schema compile no solver code.
_HARNESS_NAMES = ("profile_curves", "run_experiment", "write_profile_csv", "write_rows_csv",
                  "write_rows_json", "write_traces_json")


def _load_harness() -> None:
    from . import harness

    for name in _HARNESS_NAMES:
        globals().setdefault(name, getattr(harness, name))  # keeps a wrapper set on the name


def __getattr__(name: str):
    if name not in _HARNESS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_harness()
    return globals()[name]


class _Formatter(argparse.HelpFormatter):
    """Help whose first line reads ``Usage: uavrelay ...``."""

    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 2 with one JSON line.

    Its subcommand parsers are of this class too.  Options are not
    abbreviated: ``--conf`` is an unknown flag, not ``--config``.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, formatter_class=_Formatter,
                         **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        print(json.dumps({"error": "config", "detail": message}), file=sys.stderr)
        sys.exit(EXIT_CONFIG_ERROR)


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
        if f"{axis}_points" in counts:
            raise ConfigError(f"--grid names axis {axis!r} more than once")
        try:
            counts[f"{axis}_points"] = int(num)
        except ValueError:
            raise ConfigError(f"bad --grid point count {num!r}") from None
    if not counts:
        raise ConfigError("--grid override is empty")
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
    _load_harness()
    outcome = run_experiment(config)
    _write(write_rows_csv, outcome.rows, csv_path)
    _write(write_rows_json, outcome.rows, json_path)
    if trace_path:
        _write(write_traces_json, outcome.traces, trace_path)
    print(f"wrote {csv_path} and {json_path} ({len(outcome.rows)} data rows)")
    if outcome.failures:
        print(f"{outcome.failures} solver run(s) failed", file=sys.stderr)
        sys.exit(EXIT_PARTIAL_FAILURE)


def _solve(args) -> None:
    """Run the configured solvers on the base scenario (no sweep)."""
    config = load_config(args.config)
    config = _override_solvers(config, args.solver)
    config = replace(config, sweep_parameter=None, sweep_values=())
    _emit(config, args.out, args.trace)


def _sweep(args) -> None:
    """Run the configured solvers over the configured sweep."""
    config = load_config(args.config)
    if config.sweep_parameter is None:
        raise ConfigError("sweep subcommand requires a sweep section in the config")
    config = _override_solvers(config, args.solver)
    _emit(config, args.out, args.trace)


def _profile(args) -> None:
    """Emit SNR profile curves for the air-to-ground model."""
    config = load_config(args.config)
    csv_path = args.out or config.output_csv or "profile.csv"
    _check_outputs(csv_path)
    _load_harness()
    coord_name, rows = profile_curves(config, args.axis, args.step)
    _write(write_profile_csv, coord_name, rows, csv_path)
    print(f"wrote {csv_path} ({len(rows)} samples)")


def _oracle(args) -> None:
    """Run the exhaustive reference search on the base scenario."""
    config = load_config(args.config)
    config = _parse_grid(config, args.grid)
    config = replace(
        config, solvers=("exhaustive",), sweep_parameter=None, sweep_values=()
    )
    _emit(config, args.out, args.trace)


def _parser() -> _Parser:
    parser = _Parser(prog="uavrelay",
                     description="Relay placement and power-split optimisation experiments.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run):
        sub = commands.add_parser(run.__name__[1:], help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run)
        sub.add_argument("--config", required=True, metavar="PATH",
                         help="Experiment config file (JSON).")
        sub.add_argument("--out", metavar="PATH",
                         help="CSV output path (a JSON mirror is written alongside).")
        return sub

    solve, sweep, profile, oracle = map(command, (_solve, _sweep, _profile, _oracle))
    for sub in (solve, sweep, oracle):
        sub.add_argument("--trace", metavar="PATH",
                         help="Write per-run SNR traces to this JSON file.")
    for sub in (solve, sweep):
        sub.add_argument("--solver", metavar="NAME[,NAME...]",
                         help="Override the configured solver list.")
    profile.add_argument("--axis", choices=("height", "x"),
                         help="Profile coordinate (default from config, else height).")
    profile.add_argument("--step", type=float, metavar="METRES",
                         help="Sample spacing (default from config, else 1 m).")
    oracle.add_argument("--grid", metavar="SPEC",
                        help="Grid densities, e.g. 'x=2000,p1=2000' or 'x=200,h=200,p1=200'.")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run ``uavrelay ARGV`` (default: the process's arguments).

    Returns 0 on success; unusable input exits 2 with one JSON line on
    stderr, a failed solver run exits 3 after writing the outputs.  A bare
    ``uavrelay`` prints the help and exits 2.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        parser.print_help(sys.stderr)
        sys.exit(EXIT_CONFIG_ERROR)
    args = parser.parse_args(argv)
    try:
        args.run(args)
    except ConfigError as exc:
        parser.error(str(exc))
    return 0


# bench/cli_child.py calls main.main(args=..., prog_name=..., standalone_mode=False);
# this adapter goes once the benchmark calls cli.main(argv)
main.main = lambda args=None, prog_name=None, standalone_mode=True: main(args)


if __name__ == "__main__":
    sys.exit(main())
