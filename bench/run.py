"""Benchmark of the uavrelay library and CLI, measured from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a source checkout; it imports the library from
``src/`` and reads the shipped configs from ``configs/``, and writes only
under ``.bench_out/``.  Workloads (closed loop, one client, no threads):

  cli-shipped      one operation = the five shipped-config CLI commands,
                   one process after another (the seed is not used)
  freespace-batch  one operation = bcd, high-snr, fixed-location and
                   fixed-power on one seeded inverse-square scenario
  atg3d-batch      one operation = bcd, fixed-power, fixed-height and
                   fixed-location on one seeded air-to-ground scenario

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
``--smoke`` runs a few operations only.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import time

import metrics
import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-shipped", "freespace-batch", "atg3d-batch")
SETUP_SAMPLES = 5
IMPORT_PROBES = 3
SMOKE_OPS = {"freespace-batch": 40, "atg3d-batch": 3}

# (metric name, subcommand, config, files the command writes)
CLI_COMMANDS = (
    ("solve", "solve", "freespace.json", ("results.csv", "results.json")),
    ("sweep_freespace", "sweep", "freespace_blocklength_sweep.json",
     ("freespace_sweep.csv", "freespace_sweep.json", "freespace_sweep_traces.json")),
    ("sweep_atg3d", "sweep", "atg3d_environments.json", ("results.csv", "results.json")),
    ("profile", "profile", "atg3d_height_profile.json", ("profile.csv",)),
    ("oracle", "oracle", "atg3d_environments.json", ("results.csv", "results.json")),
)
IMPORT_PROBE = ("import time; t = time.perf_counter(); import uavrelay.cli; "
                "print(time.perf_counter() - t)")
IMPORT_BREAKDOWN = ("numpy", "jsonschema", "click")
# gap between speed-kernel runs while a timed child process runs
SAMPLE_GAP_S = 0.01



def machine_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
             "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                "unknown")
    except OSError:
        facts["cpu_model"] = "unknown"
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_dir)):
            def read(name):
                with open(os.path.join(cache_dir, index, name), encoding="utf-8") as fh:
                    return fh.read().strip()
            if read("type") in ("Unified", "Data") and read("level") in ("2", "3"):
                facts[f"l{read('level')}"] = read("size")
    except OSError:
        pass
    for package in ("numpy", "jsonschema", "click"):
        try:
            facts[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            facts[package] = "missing"
    return facts


@dataclasses.dataclass
class Child:
    code: int
    wall: float
    usage: object
    out: str
    scale: float  # reference units per measured second (see speed)


class Runner:
    def __init__(self, root: str, seed: int, seconds: float, smoke: bool):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.out_dir = os.path.join(root, ".bench_out")
        self.work_dir = os.path.join(self.out_dir, "work")
        os.makedirs(self.work_dir, exist_ok=True)
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=src)
        self.problems: list[str] = []

    def python(self, args: list[str], cwd: str | None = None) -> Child:
        """Run the interpreter on args, timing the machine's speed meanwhile.

        While the child runs, this process, on the same CPU, times the
        speed kernel every SAMPLE_GAP_S, so the child's times can be scaled
        to reference units.
        """
        err_path = os.path.join(self.out_dir, "child.err")
        kernels: list[float] = []
        out = bytearray()
        with open(err_path, "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + args, cwd=cwd or self.root,
                                    env=self.env, stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                fd = proc.stdout.fileno()
                while True:
                    if select.select([fd], [], [], SAMPLE_GAP_S)[0]:
                        chunk = os.read(fd, 65536)
                        if not chunk:
                            break
                        out += chunk
                    else:
                        kernels.append(speed.kernel_s())
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            with open(err_path, encoding="utf-8") as fh:
                self.problems.append(f"{' '.join(args[:4])}: exit {proc.returncode}: "
                                     f"{fh.read()[-500:]}")
        scale = speed.factor(kernels or [speed.kernel_s()], speed.PROCESS_ELASTICITY)
        return Child(proc.returncode, wall, usage, out.decode(), scale)

    def python_output(self, args: list[str]) -> str:
        """Run the interpreter on args and return its stdout (stderr if stdout is empty).

        No speed sampling: the batch worker calibrates itself, and sampling
        would take CPU from it."""
        done = subprocess.run([sys.executable] + args, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=170, check=True)
        return done.stdout if done.stdout.strip() else done.stderr

    # -- set-up -------------------------------------------------------------

    def import_cli(self) -> tuple[float, float]:
        """Raw and reference-unit seconds of importing the CLI in a fresh interpreter."""
        child = self.python(["-c", IMPORT_PROBE])
        raw = float(child.out)
        return raw, raw * child.scale

    def import_breakdown_ms(self) -> dict[str, float]:
        """Cumulative import time of numpy, jsonschema and click, from -X importtime."""
        text = self.python_output(["-X", "importtime", "-c", "import uavrelay.cli"])
        found = {}
        for line in text.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
            if m and m.group(3) in IMPORT_BREAKDOWN and m.group(3) not in found:
                found[m.group(3)] = int(m.group(1)) / 1e3
        return {name: found.get(name, 0.0) for name in IMPORT_BREAKDOWN}

    def import_layers(self) -> dict[str, float]:
        plain = [self.import_cli()[0] * 1e3 for _ in range(IMPORT_PROBES)]
        parts = [self.import_breakdown_ms() for _ in range(IMPORT_PROBES)]
        out = {"cli.import_ms": statistics.median(plain)}
        for name in IMPORT_BREAKDOWN:
            out[f"cli.import.{name}_ms"] = statistics.median(p[name] for p in parts)
        return out

    # -- cli-shipped ----------------------------------------------------------

    def cli_pass(self, refs: dict | None, trace_prefix: str | None = None) -> dict:
        """The five commands once; the gate's verdict and per-command RSS, raw wall
        time, and wall and CPU time in reference units (see ``speed``)."""
        raw, walls, scales, cpu, rss, ok = {}, {}, [], 0.0, {}, True
        for name, command, config, files in CLI_COMMANDS:
            for f in files:
                path = os.path.join(self.work_dir, f)
                if os.path.exists(path):
                    os.remove(path)
            cli_args = [command, "--config", os.path.join(self.root, "configs", config)]
            if trace_prefix is None:
                args = ["-m", "uavrelay.cli"] + cli_args
            else:
                args = [os.path.join(BENCH, "cli_child.py"), f"{trace_prefix}{name}.json"] \
                    + cli_args
            child = self.python(args, cwd=self.work_dir)
            raw[name] = child.wall
            walls[name] = child.wall * child.scale
            scales.append(child.scale)
            cpu += (child.usage.ru_utime + child.usage.ru_stime) * child.scale
            rss[name] = child.usage.ru_maxrss / 1024.0
            if child.code != 0:
                ok = False
            elif refs is not None:
                for f in files:
                    problem = check_cli_output(os.path.join(self.work_dir, f), refs[name][f])
                    if problem:
                        ok = False
                        self.problems.append(f"{name}: {problem}")
        return {"wall": math.fsum(walls.values()), "raw": raw, "scales": scales, "cpu": cpu,
                "rss": rss, "ok": ok}

    def cli_setup(self) -> float:
        samples = 1 if self.smoke else SETUP_SAMPLES
        return statistics.median(self.import_cli()[1] for _ in range(samples))

    def cli_timed(self) -> dict:
        setup_s = self.cli_setup()
        refs = load_refs("cli-shipped")
        passes = []
        while not passes or (not self.smoke
                             and math.fsum(math.fsum(p["raw"].values()) for p in passes)
                             < self.seconds):
            passes.append(self.cli_pass(refs))
        latencies = [p["wall"] * 1e3 for p in passes]
        failed = sum(1 for p in passes if not p["ok"])
        return {"attempted": len(passes), "failed": failed,
                "latency": metrics.latency_summary(latencies),
                "cpu_ms_per_op": math.fsum(p["cpu"] for p in passes) * 1e3 / len(passes),
                "peak_rss_mb": max(max(p["rss"].values()) for p in passes),
                "speed_factor": statistics.median(s for p in passes for s in p["scales"]),
                "setup_s": setup_s}

    def cli_traced(self) -> dict:
        refs = load_refs("cli-shipped")
        plain = self.cli_pass(refs)
        prefix = os.path.join(self.out_dir, "trace-cli-shipped-")
        traced = self.cli_pass(refs, trace_prefix=prefix)
        parts = []
        for name, *_ in CLI_COMMANDS:
            with open(f"{prefix}{name}.json", encoding="utf-8") as fh:
                parts.append(json.load(fh)["summary"])
        summary = metrics.merge_summaries(parts)
        layers = metrics.per_layer(summary, 1)
        for name, *_ in CLI_COMMANDS:
            layers[f"cli.{name}_ms"] = plain["raw"][name] * 1e3
        layers["oracle.3d_peak_rss_mb"] = plain["rss"]["oracle"]
        oracle_ms = sum(summary["agg"].get(k, {}).get("ms", 0.0)
                        for k in ("oracle.2d", "oracle.3d"))
        layers["oracle.grid_points_per_s"] = summary["grid_points"] / (oracle_ms / 1e3)
        layers["trace.overhead_ms_per_op"] = \
            (math.fsum(traced["raw"].values()) - math.fsum(plain["raw"].values())) * 1e3
        layers.update(self.import_layers())
        return {"attempted": 2, "failed": sum(1 for p in (plain, traced) if not p["ok"]),
                "layers": layers, "traced_ops": 1}

    # -- solver batches -------------------------------------------------------

    def worker(self, mode: str, workload: str, max_ops: int, trace_path: str = "") -> dict:
        args = [os.path.join(BENCH, "batch_worker.py"), mode, workload, str(self.seed),
                repr(self.seconds), str(max_ops)] + ([trace_path] if trace_path else [])
        out = json.loads(self.python_output(args).splitlines()[-1])
        self.problems += out.get("problems", [])
        return out

    def batch_timed(self, workload: str) -> dict:
        max_ops = SMOKE_OPS[workload] if self.smoke else 0
        samples = 1 if self.smoke else SETUP_SAMPLES
        setups = []
        for _ in range(samples):
            child = self.python([os.path.join(BENCH, "batch_worker.py"), "setup", workload,
                                 str(self.seed), "0", "0"])
            setups.append(json.loads(child.out)["setup_s"] * child.scale)
        run = self.worker("timed", workload, max_ops)
        run["setup_s"] = statistics.median(setups)
        return run

    def batch_traced(self, workload: str) -> dict:
        max_ops = SMOKE_OPS[workload] if self.smoke else 0
        trace_path = os.path.join(self.out_dir, f"trace-{workload}.json")
        run = self.worker("traced", workload, max_ops, trace_path)
        layers = metrics.per_layer(run["summary"], run["ops"])
        for name, *_ in CLI_COMMANDS:
            layers[f"cli.{name}_ms"] = 0.0
        layers["oracle.3d_peak_rss_mb"] = 0.0
        layers["oracle.grid_points_per_s"] = 0.0
        layers["trace.overhead_ms_per_op"] = (run["traced_s"] - run["untraced_s"]) \
            * 1e3 / run["ops"]
        layers.update(self.import_layers())
        return {"attempted": run["attempted"], "failed": run["failed"], "layers": layers,
                "traced_ops": run["ops"]}


def load_refs(workload: str) -> dict:
    with open(os.path.join(BENCH, "refs", f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def normalized_output(path: str) -> bytes:
    """File bytes with the wall_time_s column/field removed."""
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".csv") and data.startswith(b"scenario_id,"):
        # wall_time_s is the last column and never quoted
        return b"\n".join(line.rsplit(b",", 1)[0] for line in data.split(b"\n"))
    if path.endswith(".json"):
        return re.sub(rb'\n *"wall_time_s": [^\n]*', b"", data)
    return data


def check_cli_output(path: str, ref_digest: str) -> str | None:
    if not os.path.exists(path):
        return f"{os.path.basename(path)} was not written"
    data = normalized_output(path)
    if b"error:" in data:
        return f"{os.path.basename(path)} has an error row"
    if hashlib.sha256(data).hexdigest() != ref_digest:
        return f"{os.path.basename(path)} differs from the seed-commit reference"
    return None


def end_to_end(run: dict) -> dict[str, float]:
    lat = run["latency"]
    return {"ops_per_s": lat["n"] / (lat["sum"] / 1e3),
            "latency_p50_ms": lat["p50"],
            "latency_tail_ms": lat["tail"],
            "cpu_ms_per_op": run["cpu_ms_per_op"],
            "peak_rss_mb": run["peak_rss_mb"],
            "setup_s": run["setup_s"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few operations only")
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "src", "uavrelay", "__init__.py"))
            and os.path.isdir(os.path.join(root, "configs"))):
        print("error: run from the root of a uavrelay checkout (src/uavrelay and configs/ "
              "not found)", file=sys.stderr)
        return 2

    print("machine:", json.dumps(machine_facts()))
    # one CPU for this process and its children, so the speed calibration
    # runs where the timed work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(root, args.seed, args.seconds, args.smoke)
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    # compile the library once so no timed interpreter pays for it
    runner.python(["-c", "import uavrelay.cli"])

    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if args.trace:
        run = (runner.cli_traced() if args.workload == "cli-shipped"
               else runner.batch_traced(args.workload))
        values = run["layers"]
        print(f"traced operations: {run['traced_ops']} (each also run untraced)")
        for name, unit in declared:
            print(f"  {name:36s} {values[name]:.6g} {unit}")
    else:
        run = (runner.cli_timed() if args.workload == "cli-shipped"
               else runner.batch_timed(args.workload))
        values = end_to_end(run)
        lat = run["latency"]
        if "mix" in run:
            print("mix:", json.dumps(run["mix"]))
        print(f"speed: {run['speed_factor']:.4f} reference s per measured s (median)")
        for name, unit in declared:
            extra = ""
            if name == "latency_tail_ms":
                extra = f"  ({lat['tail_label']} of {lat['n']} operations"
                if "repeats" in run:
                    extra += f", each the mean of {run['repeats']:.1f} repeats"
                extra += ")"
            print(f"  {name:16s} {values[name]:.6g} {unit}{extra}")
        print(f"  {'failed_share':16s} {run['failed'] / run['attempted']:.6g} share"
              f"  ({run['failed']} of {run['attempted']})")
    for problem in runner.problems[:20]:
        print("problem:", problem)
    shutil.rmtree(runner.work_dir, ignore_errors=True)

    result = {"correct": run["failed"] == 0 and not runner.problems,
              "attempted": run["attempted"], "failed": run["failed"],
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in declared}}
    print(json.dumps(result))
    return 0


def declared_metrics(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json declares of this kind."""
    with open(os.path.join(BENCH, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec[kind]]


if __name__ == "__main__":
    sys.exit(main())
