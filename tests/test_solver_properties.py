"""Every free-space solver on random scenarios: a feasible row or a refusal.

Scenarios span reference gains from -60 to 160 dB, heights from 1 to
200 m, any placement band and budgets from 0.1 to 10 W.  That reaches
SNRs far below 1e-16 (where 1 + SNR rounds to 1) and gain gaps of more
than 200 dB between the hops (where the high-SNR edge root must not
cancel).  A scenario the constructor refuses is fine; a scenario it
accepts must give, from every solver, a placement inside the band, powers
that are non-negative and within the budget, and an error probability.

The free-space solvers also commute with a change of length unit by a
power of two: the placement scales and the powers, SNR and error
probability stay the same, bit for bit, down to scenarios whose lengths
are near 1e-56 m.
"""

import importlib
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uavrelay
from uavrelay import (
    BlocklengthParams,
    FreeSpaceScenario,
    GridSpec,
    bcd_solve,
    exhaustive_search,
    fixed_location_baseline,
    fixed_power_baseline,
    high_snr_solve,
)

BLK = BlocklengthParams(100, 80)
GRID = GridSpec(x=60, p1=60)
SOLVERS = (
    bcd_solve,
    high_snr_solve,
    lambda scn, blk: exhaustive_search(scn, blk, GRID),
    fixed_location_baseline,
    fixed_power_baseline,
)

unit = st.floats(0.0, 1.0)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    D=st.floats(1.0, 1000.0),
    band=st.tuples(unit, unit).map(sorted),
    H=st.floats(1.0, 200.0),
    beta1_db=st.floats(-60.0, 160.0),
    beta2_db=st.floats(-60.0, 160.0),
    p_total=st.floats(0.1, 10.0),
)
def test_free_space_solvers_return_feasible_rows(D, band, H, beta1_db, beta2_db, p_total):
    try:
        scn = FreeSpaceScenario.from_db(D, H, band[0] * D, band[1] * D,
                                        beta1_db, beta2_db, p_total)
    except ValueError:
        return  # refused at construction, e.g. an empty band
    for solve in SOLVERS:
        res = solve(scn, BLK)
        assert scn.d1 <= res.x <= scn.d2, res
        assert res.height == scn.H
        p1, p2 = res.powers.p1, res.powers.p2
        assert p1 >= 0.0 and p2 >= 0.0 and p1 + p2 <= p_total * (1.0 + 1e-12), res
        assert math.isfinite(res.snr) and res.snr >= 0.0, res
        assert 0.0 <= res.error_prob <= 1.0, res


BENCH = Path(__file__).resolve().parent.parent / "bench"
SCALED_SOLVERS = (bcd_solve, high_snr_solve, fixed_power_baseline, fixed_location_baseline)


def scaled(scn, k):
    """scn with its lengths times 2^k and its reference gains times 4^k."""
    s = 2.0 ** k
    return FreeSpaceScenario(scn.D * s, scn.H * s, scn.d1 * s, scn.d2 * s,
                             scn.beta1 * s * s, scn.beta2 * s * s, scn.p_total)


def assert_scaling_commutes(scn, blk, k):
    # hop gains, powers and SNRs are unit-free; the placement is a length.
    # The trace is left out: the cubic cubes its coefficients with pow,
    # which commutes with the scaling only up to rounding, so bcd's steps
    # before its end point may differ in their last bits
    copy = scaled(scn, k)
    for solve in SCALED_SOLVERS:
        res, res_k = solve(scn, blk), solve(copy, blk)
        assert (res_k.x, res_k.height) == (math.ldexp(res.x, k), math.ldexp(res.height, k)), \
            (solve.__name__, scn, k)
        assert (res_k.powers, res_k.snr, res_k.error_prob, res_k.iterations) == \
            (res.powers, res.snr, res.error_prob, res.iterations), (solve.__name__, scn, k)


def test_free_space_solvers_commute_with_power_of_two_units(monkeypatch):
    # the first 1,500 draws of the benchmark's seed-0 free-space pool
    monkeypatch.syspath_prepend(str(BENCH))
    gen = importlib.import_module("gen")
    for scn, blk in gen.build_freespace(uavrelay, gen.freespace_draws(0, 8192)[:1500]):
        for k in (-40, -20, -7, 7, 20, 40):
            assert_scaling_commutes(scn, blk, k)


@pytest.mark.parametrize("k", [180, 240])
def test_free_space_solvers_commute_with_power_of_two_units_near_underflow(k):
    # b1 b2 D^2 (~3e-337) and the placement cubic's rho^3 and kappa^2 leave
    # the normal float range here; the solvers must still return the
    # 2^-k-scaled results of the copy 2^k larger
    tiny = FreeSpaceScenario(1e-56, 3e-57, 0.0, 1e-56, 1e-112, 3e-113, 1.0)
    assert_scaling_commutes(tiny, BLK, k)
