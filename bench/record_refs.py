"""Record the correctness references from the current library.

    PYTHONPATH=src python3 bench/record_refs.py

Run from the checkout root at the commit whose outputs are the
reference.  Writes refs/cli-shipped.json (digests of the CLI outputs on
the shipped configs, wall_time_s removed) and refs/<batch>.json (a
digest per pool scenario at the default seed).  Each scenario must pass
the invariant checks before it is recorded.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import batch_worker
import check
import run

REFS = os.path.join(run.BENCH, "refs")


def record_batch(workload: str) -> None:
    import uavrelay

    make, build = batch_worker.GENERATORS[workload]
    draws = make(check.DEFAULT_SEED, batch_worker.POOL_SIZE[workload])
    op = batch_worker.operation(workload, build(uavrelay, draws))
    gate = check.Gate(workload, draws, None)
    digests = []
    for i in range(len(draws)):
        results = op(i)
        if not gate.check(i, results):
            sys.exit(f"{workload}: {gate.problems}")
        digests.append(check.digest(check.result_key(results)))
    write(workload, {"seed": check.DEFAULT_SEED, "digests": "".join(digests)})


def record_cli() -> None:
    runner = run.Runner(os.getcwd(), check.DEFAULT_SEED, 0.0, smoke=True)
    refs = {}
    for name, command, config, files in run.CLI_COMMANDS:
        args = ["-m", "uavrelay.cli", command, "--config",
                os.path.join(runner.root, "configs", config)]
        if runner.python(args, cwd=runner.work_dir).code != 0:
            sys.exit(f"{name}: {runner.problems}")
        refs[name] = {}
        for f in files:
            data = run.normalized_output(os.path.join(runner.work_dir, f))
            refs[name][f] = hashlib.sha256(data).hexdigest()
    write("cli-shipped", refs)


def write(workload: str, value) -> None:
    os.makedirs(REFS, exist_ok=True)
    with open(os.path.join(REFS, f"{workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(value, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    record_cli()
    record_batch("freespace-batch")
    record_batch("atg3d-batch")
