"""Randomly mutated configs: a config or ``ConfigError``, and exit 0, 2 or 3.

One or two keys or list items of a valid base document are deleted or
replaced by arbitrary JSON values (bools, nested lists and objects, huge,
tiny, negative and integral numbers, preset and solver names), and
``parse_config`` must return or raise ``ConfigError``.  Any other
exception is a traceback that the CLI would print.  The single-key
mutations of ``test_config_mutations`` also run through ``uavrelay
solve``.
"""

import copy
import json
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uavrelay import ATG_PRESETS, ConfigError, parse_config
from uavrelay.config import _MODEL_SWEEPS, _SWEEPS

from test_config import ATG3D_RAW, FREESPACE_RAW, variant
from test_config_mutations import BASES, DELETE, at, cases, paths

NAMES = ("suburban", "urban", "high-rise", "bcd", "exhaustive", "height", "x",
         "total_blocklength", "power_budget_w", "hop2_environment")

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10 ** 400), 10 ** 400)
    | st.integers(-(10 ** 6), 10 ** 6).map(float)
    | st.floats()
    | st.sampled_from([1e308, -1e308, 5e-324, 1e-200, 0.0, -0.0, 2.0, 80.0, 3000.0, -3000.0])
    | st.text(max_size=6)
    | st.sampled_from(NAMES)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=8,
)
# deletions, scalars, lists and objects about equally often
MUTATIONS = (st.just(DELETE) | SCALARS | st.lists(JSON_VALUES, max_size=3)
             | st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=3))
# every (base, path) pair equally often, whatever the size of its base
TARGETS = [(name, path) for name, base in BASES.items() for path in paths(base)]


# bases for the sweep property, two of them near the gain-overflow bound
SWEEP_BASES = (
    FREESPACE_RAW,
    ATG3D_RAW,
    variant(FREESPACE_RAW, gains_db={"beta1_db": 1040.0, "beta2_db": 1040.0}),
    variant(ATG3D_RAW, atg={**ATG3D_RAW["atg"], "noise_power_db": -1500.0}),
)
# values of each sweep's JSON type: numbers within the float range, as
# the reader admits them
SWEEP_VALUES = {
    "power_budget_w": (st.floats(allow_nan=False, allow_infinity=False)
                       | st.integers(-(2 ** 1023), 2 ** 1023)
                       | st.sampled_from([5e-324, 1e-300, 1e300, 1.7976931348623157e308])),
    "total_blocklength": st.integers(-(2 ** 1023), 2 ** 1023),
    "packet_bits": st.integers(-(2 ** 1023), 2 ** 1023),
    "hop2_environment": st.sampled_from(sorted(ATG_PRESETS)),
}


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data())
def test_sweep_points_build_or_raise_value_error(data):
    # the config reader builds every sweep point and turns a ValueError into
    # a ConfigError; no value of a sweep's type may raise anything else
    raw = data.draw(st.sampled_from(SWEEP_BASES))
    cfg = parse_config(copy.deepcopy(raw))
    param = data.draw(st.sampled_from(sorted(_MODEL_SWEEPS[cfg.model])))
    value = data.draw(SWEEP_VALUES[param])
    try:
        _SWEEPS[param][1](cfg.scenario, cfg.blk, value)
    except ValueError:
        pass


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_mutated_configs_load_or_raise_config_error(data):
    name, path = data.draw(st.sampled_from(TARGETS))
    raw = copy.deepcopy(BASES[name])
    more = data.draw(st.lists(st.sampled_from(list(paths(BASES[name]))), max_size=1))
    for path in [path, *more]:
        value = data.draw(MUTATIONS)
        try:
            parent = at(raw, path[:-1])
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # the first mutation removed or replaced this path
    try:
        parse_config(raw)
    except ConfigError:
        pass


# the uavrelay fixture reads and resets its capture on every call, so one
# fixture serves all examples
@settings(derandomize=True, deadline=None, max_examples=600,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(list(cases())))
def test_mutated_configs_exit_0_2_or_3_through_the_cli(uavrelay, case):
    name, raw = case
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)  # the configs name relative output paths
        try:
            Path("cfg.json").write_text(json.dumps(raw))
            result = uavrelay(["solve", "--config", "cfg.json", "--out", "r.csv"])
        finally:
            os.chdir(cwd)
    assert result.exit_code in (0, 2, 3), (name, result.stdout + result.stderr)
    if result.exit_code == 2:
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1, name
        assert json.loads(lines[0])["error"] == "config", name
