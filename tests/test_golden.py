"""The files the shipped configs produce, pinned byte for byte.

Each command runs in a fresh directory with the config's default output
paths, and every file it writes is compared with the copy under
``tests/golden/<name>/``.  Besides the shipped configs and their default
grids, a few cases pin non-default oracle grids (``--grid``, or a copy of
a shipped config with a ``grid`` section).  Only ``wall_time_s`` is
dropped: the last CSV column and the matching key of the JSON rows.
Regenerate the copies (after a deliberate change of the numbers) with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from uavrelay.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

# (name, subcommand, config, extra arguments, files the command writes); a
# config (shipped file, keys) runs on a copy of the file with the keys added
COMMANDS = (
    ("solve", "solve", "freespace.json", (), ("results.csv", "results.json")),
    ("sweep_freespace", "sweep", "freespace_blocklength_sweep.json", (),
     ("freespace_sweep.csv", "freespace_sweep.json", "freespace_sweep_traces.json")),
    ("sweep_atg3d", "sweep", "atg3d_environments.json", ("--trace", "traces.json"),
     ("results.csv", "results.json", "traces.json")),
    ("profile", "profile", "atg3d_height_profile.json", (), ("profile.csv",)),
    ("oracle", "oracle", "atg3d_environments.json", (), ("results.csv", "results.json")),
    ("oracle_grid_freespace", "oracle", "freespace.json", ("--grid", "x=300,p1=300"),
     ("results.csv", "results.json")),
    ("oracle_grid_atg3d", "oracle", "atg3d_environments.json", ("--grid", "x=40,h=30,p1=50"),
     ("results.csv", "results.json")),
    ("solve_grid", "solve", ("freespace.json", {"grid": {"x_points": 500, "p1_points": 700}}),
     (), ("results.csv", "results.json")),
)


def normalized(path: Path) -> str:
    """File contents without wall_time_s (result rows) or verbatim (other files)."""
    text = path.read_bytes().decode("utf-8")
    if path.name.endswith("traces.json") or path.name == "profile.csv":
        return text
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[0][-1] == "wall_time_s"
        out = io.StringIO()
        csv.writer(out).writerows(row[:-1] for row in rows)
        return out.getvalue()
    rows = json.loads(text)
    for row in rows:
        del row["wall_time_s"]
    return json.dumps(rows, indent=2) + "\n"


def run_command(command, config, extra, workdir: Path) -> int:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        if isinstance(config, str):
            path = CONFIGS / config
        else:
            base, keys = config
            path = Path(scratch) / base
            path.write_text(json.dumps({**json.loads((CONFIGS / base).read_text()), **keys}))
        os.chdir(workdir)
        try:
            args = [command, "--config", str(path), *extra]
            try:
                return main(args)
            except SystemExit as exc:
                return exc.code
        finally:
            os.chdir(cwd)


@pytest.mark.parametrize("name,command,config,extra,files", COMMANDS,
                         ids=[c[0] for c in COMMANDS])
def test_shipped_config_outputs_match_golden(tmp_path, name, command, config, extra, files):
    assert run_command(command, config, extra, tmp_path) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    for fname in files:
        want = (GOLDEN / name / fname).read_bytes().decode("utf-8")
        assert normalized(tmp_path / fname) == want, f"{name}/{fname}"


if __name__ == "__main__":
    import tempfile

    for name, command, config, extra, files in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            if run_command(command, config, extra, Path(tmp)) != 0:
                sys.exit(f"{name} failed")
            (GOLDEN / name).mkdir(parents=True, exist_ok=True)
            for fname in files:
                (GOLDEN / name / fname).write_bytes(
                    normalized(Path(tmp) / fname).encode("utf-8"))
