"""One ``uavrelay`` CLI command under the span tracer.

    python3 bench/cli_child.py TRACE_PATH COMMAND [ARGS...]

Imports the CLI, wraps the library's layer boundaries (see
``tracing.install``), runs the command as ``uavrelay COMMAND ARGS`` would,
writes the spans and their summary to TRACE_PATH and exits with the
command's exit code.  The library must be importable, e.g. with
PYTHONPATH=src.
"""

from __future__ import annotations

import importlib
import sys

import metrics
import tracing


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    cli = tracer.call("cli.import", importlib.import_module, "uavrelay.cli")
    tracing.install(tracer, cli=True)
    code = 0
    try:
        tracer.call("cli.main", cli.main.main, args=argv, prog_name="uavrelay",
                    standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
    from uavrelay.oracle import DEFAULT_POINTS_2D, DEFAULT_POINTS_3D

    summary = metrics.summarize_tracer(tracer)
    # the shipped configs search the oracle's default grids
    agg = summary["agg"]
    summary["grid_points"] = (agg.get("oracle.2d", {}).get("calls", 0) * DEFAULT_POINTS_2D ** 2
                              + agg.get("oracle.3d", {}).get("calls", 0) * DEFAULT_POINTS_3D ** 3)
    tracer.dump(trace_path, summary=summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
