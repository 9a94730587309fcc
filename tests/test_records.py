"""The value records: repr, equality, hashing, immutability and ``replace``.

The pinned reprs are those of the frozen dataclasses the records replaced;
the config-verdict digests and the trace files hash them.
"""

import copy
import inspect
import pickle

import pytest

from uavrelay import (
    Atg3dScenario,
    AtgEnvironment,
    BlocklengthParams,
    ConfigError,
    ExperimentConfig,
    FreeSpaceScenario,
    GridSpec,
    PowerSplit,
    ProfileSpec,
    SolveResult,
    replace,
)
from uavrelay._record import Record
from uavrelay.harness import CSV_COLUMNS

POWER = "PowerSplit(p1=1.5, p2=2.5)"
BLK = ("BlocklengthParams(packet_bits=100, total_blocklength=80, bandwidth_hz=80000.0, "
       "latency_s=0.001)")
SUBURBAN = ("AtgEnvironment(s_curve_a=4.88, s_curve_b=0.43, excess_loss_los_db=0.1, "
            "excess_loss_nlos_db=21.0, carrier_hz=2500000000.0, noise_power_db=-93.0)")
URBAN = ("AtgEnvironment(s_curve_a=9.61, s_curve_b=0.16, excess_loss_los_db=1.0, "
         "excess_loss_nlos_db=20.0, carrier_hz=2500000000.0, noise_power_db=-93.0)")
SCN3D = (f"Atg3dScenario(D=200.0, d1=20.0, d2=200.0, h_min=10.0, h_max=200.0, env1={SUBURBAN}, "
         f"env2={URBAN}, p_total=4.0, blk={BLK})")
PROFILE = ("ProfileSpec(axis='x', fixed_x_m=None, fixed_height_m=None, step_m=2.0, "
           "sample_range=(50.0, 150.0), hop2_presets=('suburban', 'urban', 'dense-urban', "
           "'high-rise'), p1_w=1.0)")


def build(name):
    """A fresh instance of the named record, built the same way on each call."""
    power = PowerSplit(1.5, 2.5)
    blk = BlocklengthParams.from_bandwidth_latency(100, 80e3, 1e-3)
    urban = AtgEnvironment(9.61, 0.16, 1.0, 20.0, 2.5e9, -93.0)
    scn3d = Atg3dScenario(200.0, 20.0, 200.0, 10.0, 200.0,
                          AtgEnvironment.from_preset("suburban", 2.5e9, -93.0), urban, 4.0, blk)
    profile = ProfileSpec(axis="x", step_m=2.0, sample_range=(50.0, 150.0), p1_w=1.0)
    return {
        "PowerSplit": lambda: power,
        "BlocklengthParams": lambda: blk,
        "SolveResult": lambda: SolveResult("bcd", 100.0, 50.0, power, 12.5, 1e-05, (10.0, 12.5)),
        "GridSpec": lambda: GridSpec(20, 30),
        "FreeSpaceScenario": lambda: FreeSpaceScenario.from_db(200.0, 100.0, 20.0, 180.0,
                                                               50.0, 55.0, 4.0),
        "AtgEnvironment": lambda: urban,
        "Atg3dScenario": lambda: scn3d,
        "ProfileSpec": lambda: profile,
        "ExperimentConfig": lambda: ExperimentConfig(
            "case", scn3d, blk, ("bcd", "fixed-height"), "hop2_environment", ("urban",),
            GridSpec(20, 30, 40), None, profile, "r.csv", None, None),
    }[name]()


# name -> (repr, a change that replace must refuse and its error, or None)
RECORDS = {
    "PowerSplit": (POWER, ({"p1": -1.0}, ValueError)),
    "BlocklengthParams": (BLK, ({"total_blocklength": 81}, ValueError)),
    "SolveResult": (f"SolveResult(solver='bcd', x=100.0, height=50.0, powers={POWER}, "
                    f"snr=12.5, error_prob=1e-05, iterations=2, trace=(10.0, 12.5))", None),
    "GridSpec": ("GridSpec(x=20, p1=30, h=None)", ({"x": 1}, ValueError)),
    "FreeSpaceScenario": ("FreeSpaceScenario(D=200.0, H=100.0, d1=20.0, d2=180.0, "
                          "beta1=100000.0, beta2=316227.7660168379, p_total=4.0)",
                          ({"d1": 190.0}, ValueError)),
    "AtgEnvironment": (URBAN, ({"s_curve_a": -1.0}, ValueError)),
    "Atg3dScenario": (SCN3D, ({"h_min": 300.0}, ValueError)),
    "ProfileSpec": (PROFILE, ({"axis": "z"}, ConfigError)),
    "ExperimentConfig": (f"ExperimentConfig(scenario_id='case', model='atg3d', scenario={SCN3D}, "
                         f"blk={BLK}, solvers=('bcd', 'fixed-height'), "
                         f"sweep_parameter='hop2_environment', sweep_values=('urban',), "
                         f"grid=GridSpec(x=20, p1=30, h=40), fixed_height_m=100.0, "
                         f"profile={PROFILE}, output_csv='r.csv', output_json=None, "
                         f"output_trace=None)", ({"solvers": ("nope",)}, ConfigError)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_the_dataclass_repr(name):
    assert repr(build(name)) == RECORDS[name][0]


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_hash_equal_and_other_classes_are_unequal(name):
    record, twin = build(name), build(name)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    # a subclass, or a tuple, with the same values
    other = type("Other", (type(record),), {"__slots__": ()})
    assert record != other(*(getattr(record, field) for field in type(record)._arguments))
    assert record != tuple(getattr(record, field) for field in type(record)._shown)
    # copy and pickle rebuild through the constructor
    for copied in (copy.copy(record), copy.deepcopy(record),
                   pickle.loads(pickle.dumps(record))):
        assert copied == record and type(copied) is type(record)


@pytest.mark.parametrize("name", RECORDS)
def test_constructor_takes_the_fields_in_slot_order(name):
    # _fill sets the slots in order from the constructor's values, and
    # replace passes _arguments by name
    record = build(name)
    cls = type(record)
    assert {sub.__name__ for sub in Record.__subclasses__()} == RECORDS.keys()
    assert tuple(inspect.signature(cls).parameters) == cls._arguments
    for field in cls.__slots__:
        getattr(record, field)  # AttributeError where a slot was left unset


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment_and_deletion(name):
    record = build(name)
    field = type(record).__slots__[0]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == before


@pytest.mark.parametrize("name", RECORDS)
def test_replace_rebuilds_through_the_checks(name):
    record = build(name)
    assert replace(record) == record and replace(record) is not record
    with pytest.raises(TypeError):
        replace(record, no_such_field=1)
    refused = RECORDS[name][1]
    if refused is not None:
        changes, error = refused
        with pytest.raises(error):
            replace(record, **changes)


@pytest.mark.parametrize("name, field", [
    ("AtgEnvironment", "gain_scale"), ("AtgEnvironment", "gain_exponent"),
    ("Atg3dScenario", "gain_constants"), ("ExperimentConfig", "model"),
    ("SolveResult", "iterations"),
])
def test_replace_refuses_the_derived_fields(name, field):
    record = build(name)
    with pytest.raises(ValueError, match=field):
        replace(record, **{field: getattr(record, field)})


def test_csv_columns_are_the_result_row_fields():
    assert CSV_COLUMNS == ("scenario_id", "solver", "sweep_parameter", "sweep_value", "x_m",
                           "height_m", "p1_w", "p2_w", "snr", "error_prob", "iterations",
                           "status", "wall_time_s")
