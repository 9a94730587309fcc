"""Grid oracle and the fixed-variable baselines."""

import numpy as np
import pytest

from uavrelay import (
    BlocklengthParams,
    FreeSpaceScenario,
    GridSpec,
    bcd_solve,
    exhaustive_search,
    fixed_height_baseline,
    fixed_location_baseline,
    fixed_power_baseline,
    optimal_power_for_gains,
)
from uavrelay import freespace_gains

from conftest import freespace_snr, make_atg3d


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(x=1)
    with pytest.raises(ValueError):
        GridSpec(p1=-1)
    with pytest.raises(ValueError):
        GridSpec(h=0)


def test_gridspec_counts(freespace_scn, blk):
    # 141 x-points over [30, 170] put a point on every metre, so the grid
    # argmax (before the refinement) is one of them
    res = exhaustive_search(freespace_scn, blk, GridSpec(x=141, p1=401))
    assert res.snr == pytest.approx(bcd_solve(freespace_scn, blk).snr, rel=1e-6)
    with pytest.raises(ValueError, match="height axis"):
        exhaustive_search(freespace_scn, blk, GridSpec(h=50))  # no height axis here


def test_exhaustive_requires_blocklength(freespace_scn):
    with pytest.raises(ValueError):
        exhaustive_search(freespace_scn)


def test_exhaustive_repeat_determinism(freespace_scn, blk):
    a = exhaustive_search(freespace_scn, blk)
    b = exhaustive_search(freespace_scn, blk)
    assert (a.x, a.height, a.powers, a.snr, a.error_prob) == (
        b.x,
        b.height,
        b.powers,
        b.snr,
        b.error_prob,
    )


def test_exhaustive_agrees_with_bcd(freespace_scn, blk):
    oracle = exhaustive_search(freespace_scn, blk)
    res = bcd_solve(freespace_scn, blk)
    assert oracle.solver == "exhaustive"
    assert oracle.snr == pytest.approx(res.snr, rel=1e-6)
    # the polished grid point cannot beat the converged solver by more
    # than the convergence slack, and vice versa
    assert abs(oracle.snr - res.snr) <= 1e-6 * res.snr


def test_exhaustive_symmetric_scenario_lands_midband(blk):
    scn = FreeSpaceScenario.from_db(200.0, 80.0, 40.0, 160.0, 55.0, 55.0, 4.0)
    res = exhaustive_search(scn, blk)
    assert res.x == pytest.approx(100.0, abs=0.1)
    assert res.powers.p1 == pytest.approx(2.0, abs=0.01)


def test_exhaustive_polish_keeps_the_cell_on_a_zero_grid_step(blk):
    # on a 1e-321 W budget the p1 axis's grid step underflows to 0, so the
    # polish has no interval to search and the best grid cell stands
    scn = FreeSpaceScenario(200.0, 120.0, 30.0, 170.0, 1e5, 1e6, 1e-321)
    res = exhaustive_search(scn, blk)
    assert ([v.hex() for v in (res.x, res.powers.p1, res.powers.p2, res.snr)]
            == [(30.0).hex(), (0.0).hex(), (1e-321).hex(), (0.0).hex()])


def test_exhaustive_3d_with_small_grid():
    scn = make_atg3d("urban")
    grid = GridSpec(x=60, p1=60, h=60)
    res = exhaustive_search(scn, grid=grid)
    # coarse grid plus refinement should still land close to the dense run
    assert res.snr == pytest.approx(11.3685, rel=5e-3)
    assert res.height > scn.h_min


def test_fixed_location_baseline_freespace(freespace_scn, blk):
    res = fixed_location_baseline(freespace_scn, blk)
    assert res.solver == "fixed-location"
    assert res.x == pytest.approx(100.0)  # band midpoint
    h1, h2 = freespace_gains(freespace_scn, 100.0)
    want = optimal_power_for_gains(h1, h2, freespace_scn.p_total)
    assert res.powers.p1 == pytest.approx(want.p1, rel=1e-12)


def test_fixed_power_baseline_freespace(freespace_scn, blk):
    res = fixed_power_baseline(freespace_scn, blk)
    assert res.solver == "fixed-power"
    assert res.powers.p1 == pytest.approx(2.0, rel=1e-15, abs=0.0)
    # location block is exact, so the result maximises over x at even split
    xs = np.linspace(freespace_scn.d1, freespace_scn.d2, 20001)
    best = max(freespace_snr(freespace_scn, float(x), res.powers) for x in xs)
    assert res.snr >= best * (1 - 1e-9)


def test_fixed_height_baseline_only_for_3d(freespace_scn, blk):
    with pytest.raises(TypeError):
        fixed_height_baseline(freespace_scn, blk)


def test_fixed_height_baseline_3d():
    scn = make_atg3d("urban")
    res = fixed_height_baseline(scn)
    assert res.solver == "fixed-height"
    assert res.height == 100.0
    with pytest.raises(ValueError):
        fixed_height_baseline(scn, height=500.0)


def test_baselines_never_beat_exhaustive(freespace_scn, blk):
    oracle = exhaustive_search(freespace_scn, blk)
    for res in (
        fixed_location_baseline(freespace_scn, blk),
        fixed_power_baseline(freespace_scn, blk),
    ):
        assert res.snr <= oracle.snr * (1 + 1e-6)


def test_baselines_3d_never_beat_exhaustive():
    scn = make_atg3d("dense-urban")
    oracle = exhaustive_search(scn)
    for res in (
        fixed_location_baseline(scn),
        fixed_power_baseline(scn),
        fixed_height_baseline(scn),
    ):
        assert res.snr <= oracle.snr * (1 + 1e-3)
