"""What ``parse_config`` makes of single-key mutations of valid configs.

Every key and list item of a few valid base documents is deleted or
replaced by ``true``, a string, ``[]``, ``{}``, ``null``, 0, -1, 1.5 or
an integral float, and every object gets an unknown sibling key.  Each
outcome ("ok:<digest of the parsed config's repr>", ``ConfigError``, or
the name of any other exception) is compared with the table in
``tests/golden/config_verdicts.json``.  Regenerate the table (after a
deliberate change of the rules) with

    PYTHONPATH=src python tests/test_config_mutations.py
"""

import copy
import hashlib
import json
from pathlib import Path

from uavrelay import ConfigError, load_config, parse_config

from test_config import ATG3D_RAW, FREESPACE_RAW

ROOT = Path(__file__).resolve().parent.parent
VERDICTS = Path(__file__).resolve().parent / "golden" / "config_verdicts.json"

FREESPACE_FULL = {
    **FREESPACE_RAW,
    "blocklength": {"packet_bits": 100, "total_blocklength": 80,
                    "bandwidth_hz": 80e3, "latency_s": 1e-3},
    "sweep": {"parameter": "total_blocklength", "values": [60, 80]},
    "grid": {"x_points": 20, "p1_points": 20},
    "output": {"csv": "r.csv", "json": "r.json", "trace": "t.json"},
}

ATG3D_FULL = {
    **ATG3D_RAW,
    "atg": {**ATG3D_RAW["atg"], "hop2": {"a": 9.61, "b": 0.16, "excess_loss_los_db": 1.0,
                                         "excess_loss_nlos_db": 20.0}},
    "sweep": {"parameter": "hop2_environment", "values": ["urban", "high-rise"]},
    "grid": {"x_points": 20, "p1_points": 20, "h_points": 20},
    "fixed_height_m": 100.0,
    "profile": {"axis": "height", "fixed_x_m": 100.0, "fixed_height_m": 100.0, "step_m": 1.0,
                "range": [50.0, 150.0], "hop2_presets": ["urban", "suburban"], "p1_w": 2.0},
    "output": {"csv": "r.csv", "json": "r.json", "trace": "t.json"},
}

BASES = {
    "freespace": FREESPACE_RAW,
    "atg3d": ATG3D_RAW,
    "freespace-full": FREESPACE_FULL,
    "atg3d-full": ATG3D_FULL,
    "freespace-power-sweep": {**FREESPACE_RAW,
                              "sweep": {"parameter": "power_budget_w", "values": [2.0, 4]}},
    "atg3d-packet-sweep": {**ATG3D_RAW,
                           "sweep": {"parameter": "packet_bits", "values": [100, 200]}},
}

DELETE = object()
INTEGRAL_FLOAT = object()  # float(value) for an int value, else 2.0
MUTATIONS = (
    ("delete", DELETE), ("true", True), ("string", "x"), ("list", []), ("object", {}),
    ("null", None), ("zero", 0), ("minus-one", -1), ("one-and-a-half", 1.5),
    ("integral-float", INTEGRAL_FLOAT),
)
# key paths that only the other model accepts, each with a value that
# model takes; each model refuses them as unknown
CROSS_MODEL = {
    "freespace": {
        "geometry/height_min_m": 10.0,
        "geometry/height_max_m": 200.0,
        "atg": ATG3D_RAW["atg"],
        "fixed_height_m": 100.0,
        "profile": {"axis": "height"},
        "grid/h_points": 20,
        "sweep": {"parameter": "hop2_environment", "values": ["urban"]},
    },
    "atg3d": {
        "geometry/height_m": 120.0,
        "gains_db": FREESPACE_RAW["gains_db"],
    },
}


def verdict(raw) -> str:
    try:
        cfg = parse_config(raw)
    except ConfigError:
        return "ConfigError"
    except Exception as exc:  # noqa: BLE001 - the table records which one
        return type(exc).__name__
    return "ok:" + hashlib.sha256(repr(cfg).encode()).hexdigest()[:12]


def paths(node, prefix=()):
    """Every key path and list-item path below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def objects(node, prefix=()):
    """The paths of node and of every object below it."""
    if isinstance(node, dict):
        yield prefix
        for key, value in node.items():
            yield from objects(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from objects(value, prefix + (i,))


def at(node, path):
    for key in path:
        node = node[key]
    return node


def cases():
    """(case id, raw document) for every mutation of every base."""
    for name, base in BASES.items():
        yield f"{name}:base", copy.deepcopy(base)
        for path in paths(base):
            where = "/".join(map(str, path))
            for label, value in MUTATIONS:
                raw = copy.deepcopy(base)
                parent, key = at(raw, path[:-1]), path[-1]
                if value is DELETE:
                    del parent[key]
                elif value is INTEGRAL_FLOAT:
                    old = parent[key]
                    is_int = isinstance(old, int) and not isinstance(old, bool)
                    parent[key] = float(old) if is_int else 2.0
                else:
                    parent[key] = copy.deepcopy(value)
                yield f"{name}:{where}:{label}", raw
        for path in objects(base):
            raw = copy.deepcopy(base)
            at(raw, path)["unknown_key"] = 1
            yield f"{name}:{'/'.join(map(str, path)) or '<root>'}:unknown-key", raw
        for where, value in CROSS_MODEL[base["model"]].items():
            *parents, key = where.split("/")
            for label, new in (("valid", value), ("zero", 0)):
                raw = copy.deepcopy(base)
                parent = raw
                for step in parents:
                    parent = parent.setdefault(step, {})
                parent[key] = copy.deepcopy(new)
                yield f"{name}:{where}:cross-model-{label}", raw


def current_verdicts() -> dict:
    table = {case: verdict(raw) for case, raw in cases()}
    for path in sorted((ROOT / "configs").glob("*.json")):
        cfg = load_config(str(path))
        table[f"configs/{path.name}"] = "ok:" + hashlib.sha256(
            repr(cfg).encode()).hexdigest()[:12]
    return table


def test_mutation_verdicts_match_the_table():
    expected = json.loads(VERDICTS.read_text())
    got = current_verdicts()
    assert sorted(got) == sorted(expected)
    changed = {case: (expected[case], got[case]) for case in expected
               if got[case] != expected[case]}
    assert changed == {}


if __name__ == "__main__":
    old, new = json.loads(VERDICTS.read_text()), current_verdicts()
    changed = sorted(case for case in old.keys() & new.keys() if old[case] != new[case])
    print(f"{len(new.keys() - old.keys())} added, {len(old.keys() - new.keys())} removed, "
          f"{len(changed)} changed verdicts")
    for case in changed:
        print(f"changed: {case}: {old[case]} -> {new[case]}")
    VERDICTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
