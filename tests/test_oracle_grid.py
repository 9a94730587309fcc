"""The oracle's blocked grid kernels against the full-grid computation.

The reference below builds the whole SNR grid as numpy temporaries and
takes ``np.argmax`` over it, exactly as the oracle did before it swept
the grid in blocks.  The blocked kernels must return the same index and
the same value (``==``, not approximately) on every shape, including
ties and NaN cells.
"""

import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from uavrelay import AtgEnvironment, FreeSpaceScenario
from uavrelay.oracle import (
    _BLOCK_CELLS,
    DEFAULT_POINTS_2D,
    DEFAULT_POINTS_3D,
    _grid_argmax_2d,
    _grid_argmax_3d,
)

from conftest import CARRIER_HZ, make_atg3d

HOP2_PRESETS = ("suburban", "urban", "dense-urban", "high-rise")


def full_grid_2d(scn, xs, ps):
    h_sq = scn.H * scn.H
    g1 = scn.beta1 / (h_sq + xs * xs)
    g2 = scn.beta2 / (h_sq + (scn.D - xs) * (scn.D - xs))
    p2 = scn.p_total - ps
    num = np.outer(g1 * g2, ps * p2)
    den = np.outer(g2, p2) + np.outer(g1, ps) + 1.0
    return num / den


def full_grid_3d(scn, xs, hs, ps):
    xg, hg = np.meshgrid(xs, hs, indexing="ij")
    theta1 = np.degrees(np.arctan2(hg, xg))
    theta2 = np.degrees(np.arctan2(hg, scn.D - xg))
    r1_sq = xg * xg + hg * hg
    r2_sq = (scn.D - xg) * (scn.D - xg) + hg * hg

    def env_gain(env, theta, r_sq):
        s = 1.0 / (1.0 + env.s_curve_a * np.exp(-env.s_curve_b * (theta - env.s_curve_a)))
        return env.gain_scale / r_sq * 10.0 ** (env.gain_exponent * s)

    g1 = env_gain(scn.env1, theta1, r1_sq)[:, :, None]
    g2 = env_gain(scn.env2, theta2, r2_sq)[:, :, None]
    p1 = ps[None, None, :]
    p2 = scn.p_total - p1
    return (g1 * g2 * p1 * p2) / (g2 * p2 + g1 * p1 + 1.0)


def reference_argmax(gam):
    k = int(np.argmax(gam))
    return tuple(int(i) for i in np.unravel_index(k, gam.shape)), float(gam.flat[k])


def blocked_2d(scn, xs, ps):
    index, value = _grid_argmax_2d(scn, xs, ps)
    return tuple(int(i) for i in index), value


def blocked_3d(scn, xs, hs, ps):
    index, value = _grid_argmax_3d(scn, xs, hs, ps)
    return tuple(int(i) for i in index), value


def axes_2d(scn, nx, np_):
    return np.linspace(scn.d1, scn.d2, nx), np.linspace(0.0, scn.p_total, np_)


def axes_3d(scn, nx, nh, np_):
    return (np.linspace(scn.d1, scn.d2, nx), np.linspace(scn.h_min, scn.h_max, nh),
            np.linspace(0.0, scn.p_total, np_))


def assert_same_2d(scn, xs, ps):
    assert blocked_2d(scn, xs, ps) == reference_argmax(full_grid_2d(scn, xs, ps))


def assert_same_3d(scn, xs, hs, ps):
    assert blocked_3d(scn, xs, hs, ps) == reference_argmax(full_grid_3d(scn, xs, hs, ps))


@pytest.mark.parametrize("preset", HOP2_PRESETS)
def test_3d_default_grid_matches_full_grid(preset):
    scn = make_atg3d(preset)
    assert_same_3d(scn, *axes_3d(scn, *(DEFAULT_POINTS_3D,) * 3))


def test_2d_default_grid_matches_full_grid(freespace_scn):
    assert_same_2d(freespace_scn, *axes_2d(freespace_scn, *(DEFAULT_POINTS_2D,) * 2))


@pytest.mark.parametrize("shape", [
    (2001, 7),     # one block of rows
    (5003, 7),     # a full block of rows and a short last one
    (2001, 2001),  # 2001 rows do not fill whole blocks
    (3, 40_000),   # a row wider than a block
    (1, 1), (1, 2), (2, 1), (2, 2),
])
def test_2d_odd_shapes_match_full_grid(freespace_scn, shape):
    assert_same_2d(freespace_scn, *axes_2d(freespace_scn, *shape))


@pytest.mark.parametrize("shape", [
    (37, 91, 53),
    (3, 700, 53),  # a slice of more rows than a block holds
    (2, 3, 40_000),
    (1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 2), (2, 2, 2),
])
def test_3d_odd_shapes_match_full_grid(shape):
    scn = make_atg3d("dense-urban")
    assert_same_3d(scn, *axes_3d(scn, *shape))


def test_block_holds_several_rows_of_the_default_grids():
    # the shapes above exercise multi-block sweeps only if a block is
    # smaller than the grids and larger than one row
    assert DEFAULT_POINTS_2D < _BLOCK_CELLS < 7 * 5003
    assert DEFAULT_POINTS_3D < _BLOCK_CELLS < 700 * 53


def test_exact_tie_goes_to_first_cell_in_c_order(freespace_scn):
    # every x row appears twice, far enough apart to land in different blocks
    xs, ps = axes_2d(freespace_scn, 300, 2000)
    xs = np.concatenate([xs, xs])
    gam = full_grid_2d(freespace_scn, xs, ps)
    assert np.count_nonzero(gam == gam.max()) >= 2
    index, value = blocked_2d(freespace_scn, xs, ps)
    assert (index, value) == reference_argmax(gam)
    assert index[0] < 300

    scn = make_atg3d("urban")
    xs, hs, ps = axes_3d(scn, 20, 30, 40)
    xs = np.concatenate([xs, xs])
    gam = full_grid_3d(scn, xs, hs, ps)
    assert np.count_nonzero(gam == gam.max()) >= 2
    index, value = blocked_3d(scn, xs, hs, ps)
    assert (index, value) == reference_argmax(gam)
    assert index[0] < 20


def nan_scenario():
    # gains near 1e292: g1*g2 overflows to inf, and inf*0 at p1 = 0 is NaN.
    # Atg3dScenario refuses such gains, so the kernel gets a stand-in with
    # the same fields
    env1 = AtgEnvironment.from_preset("suburban", CARRIER_HZ, -3000.0)
    env2 = AtgEnvironment.from_preset("urban", CARRIER_HZ, -3000.0)
    return SimpleNamespace(**{**vars(make_atg3d("urban")), "env1": env1, "env2": env2})


def test_nan_grid_picks_first_nan_quietly():
    scn = nan_scenario()
    axes = axes_3d(scn, 20, 30, 40)
    with np.errstate(all="ignore"):
        gam = full_grid_3d(scn, *axes)
    want_index, want_value = reference_argmax(gam)
    assert np.isnan(want_value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index, value = blocked_3d(scn, *axes)
    assert index == want_index and np.isnan(value)


def test_first_nan_in_a_later_block_beats_earlier_maxima():
    # beta2 so large that g2 overflows only in the last x rows; FreeSpaceScenario
    # refuses such gains, so the kernel gets a stand-in with the same fields
    scn = SimpleNamespace(D=200.0, H=0.5, d1=0.0, d2=200.0, beta1=1.0, beta2=1e308,
                          p_total=4.0)
    xs, ps = np.linspace(0.0, 200.0, 2001), np.linspace(0.5, 3.5, 300)
    with np.errstate(all="ignore"):
        gam = full_grid_2d(scn, xs, ps)
    want_index, want_value = reference_argmax(gam)
    assert np.isnan(want_value) and np.isfinite(np.nanmax(gam[:want_index[0]]))
    assert want_index[0] * len(ps) >= _BLOCK_CELLS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index, value = blocked_2d(scn, xs, ps)
    assert index == want_index and np.isnan(value)


def test_random_scenarios_match_full_grid():
    # many small grids: an operand-order slip changes some argmax value by an ulp
    rng = np.random.default_rng(7)
    for _ in range(200):
        d1 = rng.uniform(0.0, 90.0)
        scn = FreeSpaceScenario.from_db(200.0, rng.uniform(1.0, 300.0), d1,
                                        rng.uniform(d1 + 1.0, 200.0),
                                        rng.uniform(0.0, 90.0), rng.uniform(0.0, 90.0),
                                        rng.uniform(0.1, 10.0))
        assert_same_2d(scn, *axes_2d(scn, *rng.integers(1, 40, size=2)))
    for _ in range(100):
        scn = replace(make_atg3d(str(rng.choice(HOP2_PRESETS))),
                      p_total=rng.uniform(0.01, 100.0))
        assert_same_3d(scn, *axes_3d(scn, *rng.integers(1, 12, size=3)))
