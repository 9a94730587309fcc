import json
import sys
from typing import NamedTuple

import numpy as np
import pytest

from uavrelay import (
    AtgEnvironment,
    Atg3dScenario,
    BlocklengthParams,
    FreeSpaceScenario,
    af_snr,
    freespace_gains,
    hop_gains_3d,
)
from uavrelay import atg3d, highsnr
from uavrelay.cli import main


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one line per acceptance criterion after the test summary."""
    module = sys.modules.get("test_acceptance")
    results = getattr(module, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number, status, title in sorted(results):
        terminalreporter.write_line(f"criterion {number}: {status} - {title}")


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


@pytest.fixture
def uavrelay(capsys):
    """Run ``uavrelay ARGS`` in this process and return its CliResult.

    An exception other than SystemExit propagates and fails the test."""

    def run(args):
        capsys.readouterr()
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        return CliResult(code, *capsys.readouterr())

    return run


CARRIER_HZ = 2.5e9
NOISE_DB = -93.0


@pytest.fixture
def blk():
    return BlocklengthParams(packet_bits=100, total_blocklength=80)


@pytest.fixture
def freespace_scn():
    # D=200 m, relay band [30, 170], hop gains 50/59 dB, 4 W budget
    return FreeSpaceScenario.from_db(
        D=200.0,
        H=120.0,
        d1=30.0,
        d2=170.0,
        beta1_db=50.0,
        beta2_db=59.0,
        p_total=4.0,
    )


def make_atg3d(hop2_preset, blk=None, p_total=4.0):
    env1 = AtgEnvironment.from_preset("suburban", CARRIER_HZ, NOISE_DB)
    env2 = AtgEnvironment.from_preset(hop2_preset, CARRIER_HZ, NOISE_DB)
    if blk is None:
        blk = BlocklengthParams(100, 80)
    return Atg3dScenario(
        D=200.0,
        d1=20.0,
        d2=200.0,
        h_min=10.0,
        h_max=200.0,
        env1=env1,
        env2=env2,
        p_total=p_total,
        blk=blk,
    )


def point_snr(scn, x, height, powers):
    """The end-to-end SNR of an air-to-ground scenario at one point."""
    return af_snr(*hop_gains_3d(scn, x, height), powers)


def freespace_snr(scn, x, powers):
    """The end-to-end SNR of a free-space scenario at ground offset x."""
    return af_snr(*freespace_gains(scn, x), powers)


def line_block_move(scn, axis, fixed, powers):
    """Run the solvers' height block (axis 1, fixed = x) or offset block
    (axis 0, fixed = height) once and return the coordinate it moves to.

    The relay starts at the top of the searched span, so the result is
    the block's line search unless that search loses to the start.
    """
    top = atg3d._span(scn, axis)[1]
    x, height = (fixed, top) if axis else (top, fixed)
    state = (x, height, hop_gains_3d(scn, x, height), powers)
    return atg3d._line_block(scn, axis)(state)[axis]


@pytest.fixture
def atg3d_scn():
    return make_atg3d("urban")


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def random_freespace(rng):
    """Draw a random valid free-space scenario."""
    D = rng.uniform(50.0, 500.0)
    H = rng.uniform(10.0, 300.0)
    d1 = rng.uniform(0.0, 0.4) * D
    d2 = rng.uniform(0.6, 1.0) * D
    beta1_db = rng.uniform(30.0, 70.0)
    beta2_db = rng.uniform(30.0, 70.0)
    p_total = rng.uniform(0.5, 10.0)
    return FreeSpaceScenario.from_db(D, H, d1, d2, beta1_db, beta2_db, p_total)


def condition1_hessian(scn, p1, p2):
    """Hessian of the interior-case objective of the high-SNR surrogate in (p1, p2).

    The objective is H^2 (b1 p1 + b2 p2)/(p1 p2) + b1 b2 D^2/(b1 p1 + b2 p2);
    its Hessian is positive definite on p1, p2 > 0, making the interior
    power problem convex.  The tests' convexity reference.
    """
    if p1 <= 0.0 or p2 <= 0.0:
        raise ValueError("Hessian defined for strictly positive powers only")
    b1, b2 = scn.beta1, scn.beta2
    h_sq = scn.H * scn.H
    d_sq = scn.D * scn.D
    s = b1 * p1 + b2 * p2
    cross = 2.0 * b1 * b1 * b2 * b2 * d_sq / s ** 3
    h11 = 2.0 * h_sq * b2 / p1 ** 3 + 2.0 * b1 ** 3 * b2 * d_sq / s ** 3
    h22 = 2.0 * h_sq * b1 / p2 ** 3 + 2.0 * b1 * b2 ** 3 * d_sq / s ** 3
    return np.array([[h11, cross], [cross, h22]])


class HighSnrCase(NamedTuple):
    """One clamp case of the high-SNR surrogate: "I" (x_free inside the
    band), "II" (pinned at d1) or "III" (pinned at d2), with its surrogate
    value, offset and powers."""
    condition: str
    gamma_tilde: float
    x: float
    powers: object


def high_snr_cases(scn) -> dict:
    """Condition -> HighSnrCase, in the solver's tie order, each solved by
    the solver's own helpers; condition I is left out where its power range
    is empty."""
    lo, hi = highsnr._crossing_power(scn, scn.d1), highsnr._crossing_power(scn, scn.d2)
    cases = {"I": highsnr._condition1(scn, lo, hi)} if lo <= hi else {}
    cases["II"] = highsnr._pinned_edge_case(scn, scn.d1, 0.0, lo)
    cases["III"] = highsnr._pinned_edge_case(scn, scn.d2, hi, scn.p_total)
    return {name: HighSnrCase(name, *case) for name, case in cases.items()}


def high_snr_winner(scn) -> HighSnrCase:
    """The high-SNR case with condition I always solved where its range is
    non-empty: the best case by surrogate value, the first on a tie."""
    return max(high_snr_cases(scn).values(), key=lambda case: case.gamma_tilde)


def count_golden_sections(monkeypatch) -> list:
    """Record each golden_section_max call the high-SNR solver makes."""
    calls = []
    golden = highsnr.golden_section_max

    def counted(*args, **kwargs):
        calls.append(args)
        return golden(*args, **kwargs)

    monkeypatch.setattr(highsnr, "golden_section_max", counted)
    return calls


def solve_record(res) -> dict:
    """A result with every float as its exact hex string."""
    return {
        "x": res.x.hex(), "height": res.height.hex(),
        "p1": res.powers.p1.hex(), "p2": res.powers.p2.hex(),
        "snr": res.snr.hex(), "error_prob": res.error_prob.hex(),
        "iterations": res.iterations, "trace": [g.hex() for g in res.trace],
    }


def rewrite_golden(path, table: dict) -> None:
    """Write table (scenario -> solver -> record) to path as a golden file.

    First prints how many (scenario, solver) records were added, removed
    or changed against the file there, and the fields that moved.
    """
    pinned = json.loads(path.read_text()) if path.exists() else {}
    old = {(name, solver): record for name, records in pinned.items()
           for solver, record in records.items()}
    new = {(name, solver): record for name, records in table.items()
           for solver, record in records.items()}
    changed = sorted(key for key in old.keys() & new.keys() if old[key] != new[key])
    print(f"{len(new.keys() - old.keys())} added, {len(old.keys() - new.keys())} removed, "
          f"{len(changed)} changed records")
    for name, solver in changed:
        was, now = old[name, solver], new[name, solver]
        moved = sorted(field for field in was.keys() | now.keys()
                       if was.get(field) != now.get(field))
        print(f"changed: {name} {solver}: {', '.join(moved)}")
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
