"""The oracle's bounded grid kernel against the full-grid computation.

The reference below computes the hop gains of every grid row itself
(the air-to-ground ones with ``math``, written apart from the oracle's
row generator), builds the whole SNR grid as numpy temporaries and takes
``np.argmax`` over it, as the oracle did before it skipped the rows and
cells that cannot win.  The kernel must return the same index and the
same value (``==``, not approximately) on every shape, including ties
and NaN cells.
"""

import math
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from uavrelay import AtgEnvironment, FreeSpaceScenario, oracle
from uavrelay.config import load_config
from uavrelay.oracle import (
    DEFAULT_POINTS_2D,
    DEFAULT_POINTS_3D,
    _atg_rows,
    _bounded_argmax,
    _first_max,
    _freespace_rows,
    _grid_argmax,
    _linspace,
)

from conftest import CARRIER_HZ, make_atg3d

HOP2_PRESETS = ("suburban", "urban", "dense-urban", "high-rise")


def full_grid(g1, g2, p_total, ps):
    # every cell (g1 g2)(p1 p2) / (g2 p2 + g1 p1 + 1), one row per gain pair
    p2 = p_total - ps
    num = np.outer(g1 * g2, ps * p2)
    den = np.outer(g2, p2) + np.outer(g1, ps) + 1.0
    return num / den


def full_grid_2d(scn, xs, ps):
    h_sq = scn.H * scn.H
    g1 = scn.beta1 / (h_sq + xs * xs)
    g2 = scn.beta2 / (h_sq + (scn.D - xs) * (scn.D - xs))
    return full_grid(g1, g2, scn.p_total, ps)


def s_curve_gain(env, ground, h):
    # the S-curve gain of one hop; where exp overflows, P_los takes its limit 0
    a, b = env.s_curve_a, env.s_curve_b
    try:
        p_los = 1.0 / (1.0 + a * math.exp(-b * (math.degrees(math.atan2(h, ground)) - a)))
    except OverflowError:
        p_los = 0.0
    return env.gain_scale / (ground * ground + h * h) * 10.0 ** (env.gain_exponent * p_los)


def full_grid_3d(scn, xs, hs, ps):
    pairs = [(x, h) for x in xs.tolist() for h in hs.tolist()]
    g1 = np.array([s_curve_gain(scn.env1, x, h) for x, h in pairs])
    g2 = np.array([s_curve_gain(scn.env2, scn.D - x, h) for x, h in pairs])
    return full_grid(g1, g2, scn.p_total, ps).reshape(len(xs), len(hs), len(ps))


def reference_argmax(gam):
    k = int(np.argmax(gam))
    return tuple(int(i) for i in np.unravel_index(k, gam.shape)), float(gam.flat[k])


def blocked_2d(scn, xs, ps):
    r, j, value = _grid_argmax(scn.p_total, ps.tolist(), *_freespace_rows(scn, xs.tolist()))
    return (r, j), value


def blocked_3d(scn, xs, hs, ps):
    r, j, value = _grid_argmax(scn.p_total, ps.tolist(),
                               *_atg_rows(scn, xs.tolist(), hs.tolist()))
    return (*divmod(r, len(hs)), j), value


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
    (2001, 7),     # many short rows
    (5003, 7),     # more short rows
    (2001, 2001),  # odd counts near the default grid
    (3, 40_000),   # a few long rows
    (1, 1), (1, 2), (2, 1), (2, 2),
])
def test_2d_odd_shapes_match_full_grid(freespace_scn, shape):
    assert_same_2d(freespace_scn, *axes_2d(freespace_scn, *shape))


@pytest.mark.parametrize("shape", [
    (37, 91, 53),
    (3, 700, 53),  # slices of many rows
    (2, 3, 40_000),
    (1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 2), (2, 2, 2),
])
def test_3d_odd_shapes_match_full_grid(shape):
    scn = make_atg3d("dense-urban")
    assert_same_3d(scn, *axes_3d(scn, *shape))


def rows_read(monkeypatch):
    # the rows each kernel call reads, in the order it reads them
    read = []
    make = oracle._row_reader

    def counting(*args):
        row_max = make(*args)

        def counted(r, floor):
            read.append(r)
            return row_max(r, floor)

        return counted

    monkeypatch.setattr(oracle, "_row_reader", counting)
    return read


def test_bound_skips_most_rows_of_the_default_grids(monkeypatch, freespace_scn):
    # the equality tests hold for any order of reading; this one checks
    # that the bound does skip: a few of the 2,000 and 40,000 rows are read
    read = rows_read(monkeypatch)
    assert_same_2d(freespace_scn, *axes_2d(freespace_scn, *(DEFAULT_POINTS_2D,) * 2))
    assert 0 < len(read) <= 20
    read.clear()
    scn = make_atg3d("urban")
    assert_same_3d(scn, *axes_3d(scn, *(DEFAULT_POINTS_3D,) * 3))
    assert 0 < len(read) <= 400


def test_shipped_air_to_ground_grids_compute_few_row_gains(monkeypatch):
    # the boxes skip most (x, h) rows before their gains are computed: at
    # most 4,000 of the 40,000 rows of each default grid of the shipped sweep
    computed = []
    rows = oracle._atg_rows

    def counting(*args):
        shape, row, box = rows(*args)
        computed.append(0)

        def counted(i, k):
            computed[-1] += 1
            return row(i, k)

        return shape, counted, box

    monkeypatch.setattr(oracle, "_atg_rows", counting)
    config = load_config(str(Path(__file__).parent.parent / "configs" / "atg3d_environments.json"))
    for value in config.sweep_values:
        oracle.exhaustive_search(config.point(value)[0])
    assert len(computed) == 4 and 0 < max(computed) <= 4000


def test_exact_tie_goes_to_first_cell_in_c_order(freespace_scn):
    # every x row appears twice in a row (the axes must ascend), so equal
    # rows tie wherever the reading starts, in one box or across two
    xs, ps = axes_2d(freespace_scn, 300, 2000)
    xs = np.repeat(xs, 2)
    gam = full_grid_2d(freespace_scn, xs, ps)
    assert np.count_nonzero(gam == gam.max()) >= 2
    index, value = blocked_2d(freespace_scn, xs, ps)
    assert (index, value) == reference_argmax(gam)
    assert index[0] % 2 == 0

    scn = make_atg3d("urban")
    xs, hs, ps = axes_3d(scn, 20, 30, 40)
    xs = np.repeat(xs, 2)
    gam = full_grid_3d(scn, xs, hs, ps)
    assert np.count_nonzero(gam == gam.max()) >= 2
    index, value = blocked_3d(scn, xs, hs, ps)
    assert (index, value) == reference_argmax(gam)
    assert index[0] % 2 == 0


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


def test_first_nan_after_rows_the_bound_skips_beats_earlier_maxima():
    # beta2 so large that g2 overflows only in the last x rows; FreeSpaceScenario
    # refuses such gains, so the kernel gets a stand-in with the same fields
    scn = SimpleNamespace(D=200.0, H=0.5, d1=0.0, d2=200.0, beta1=1.0, beta2=1e308,
                          p_total=4.0)
    xs, ps = np.linspace(0.0, 200.0, 2001), np.linspace(0.5, 3.5, 300)
    with np.errstate(all="ignore"):
        gam = full_grid_2d(scn, xs, ps)
        # each row's closed-form peak over p1 + p2 = p_total
        g1 = scn.beta1 / (scn.H ** 2 + xs * xs)
        g2 = scn.beta2 / (scn.H ** 2 + (scn.D - xs) ** 2)
        peak = scn.p_total ** 2 * g1 * g2 / (np.sqrt(1 + scn.p_total * g1)
                                              + np.sqrt(1 + scn.p_total * g2)) ** 2
    want_index, want_value = reference_argmax(gam)
    assert np.isnan(want_value) and np.isfinite(np.nanmax(gam[:want_index[0]]))
    # most rows before the NaN fall short of the finite maximum by far more
    # than the margin: the bound skips them, and the NaN is found only
    # because the rows that may overflow are read in full, in C order
    assert np.count_nonzero(peak[:want_index[0]] < 0.5 * np.nanmax(gam)) > 1000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index, value = blocked_2d(scn, xs, ps)
    assert index == want_index and np.isnan(value)


def test_first_nan_far_behind_the_boxes_read_first_wins():
    # the rows that may overflow come after more than 4,096 finite rows, in
    # boxes of high bounds that a best-first reading would take first; the
    # stand-ins carry gains that the scenarios refuse (g2 overflows near
    # x = D; at -1625 dB g1 g2 first overflows, and so is NaN at p1 = 0,
    # past row 4,096 of the 9,000 (x, h) rows)
    scn = SimpleNamespace(D=200.0, H=0.5, d1=0.0, d2=200.0, beta1=1.0, beta2=1e308,
                          p_total=4.0)
    xs, ps = np.linspace(0.0, 200.0, 6144), np.linspace(0.5, 3.5, 30)
    env1, env2 = (AtgEnvironment.from_preset(name, CARRIER_HZ, -1625.0)
                  for name in ("suburban", "urban"))
    scn_3d = SimpleNamespace(**{**vars(make_atg3d("urban")), "env1": env1, "env2": env2})
    axes = axes_3d(scn_3d, 300, 30, 40)
    with np.errstate(all="ignore"):
        gam_2d, gam_3d = full_grid_2d(scn, xs, ps), full_grid_3d(scn_3d, *axes)
    want_2d, want_3d = reference_argmax(gam_2d), reference_argmax(gam_3d)
    assert np.isnan(want_2d[1]) and want_2d[0][0] > 4096
    assert np.isnan(want_3d[1]) and want_3d[0][0] * 30 + want_3d[0][1] > 4096
    # the finite maximum, where the highest bounds lie, comes thousands of rows earlier
    assert np.unravel_index(np.nanargmax(gam_2d), gam_2d.shape)[0] < want_2d[0][0] - 4000
    assert np.unravel_index(np.nanargmax(gam_3d), gam_3d.shape)[0] < want_3d[0][0] - 100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_2d, got_3d = blocked_2d(scn, xs, ps), blocked_3d(scn_3d, *axes)
    assert got_2d[0] == want_2d[0] and np.isnan(got_2d[1])
    assert got_3d[0] == want_3d[0] and np.isnan(got_3d[1])


def test_box_bounded_at_the_best_value_is_read_when_it_starts_first():
    # p1 is 0 or the whole budget, so every cell is 0.0 and every finite
    # bound is 0.0.  The stand-in's gain product overflows in the bound of
    # the last 16 rows, not in any row: those rows are read first, in
    # full, and their 0.0 at row 16 must yield to the first box's 0.0 at
    # row 0, whose bound equals it
    scn = SimpleNamespace(D=1e4, H=1.0, d1=0.0, d2=1e4, beta1=1e158, beta2=1e158,
                          p_total=4.0)
    xs = np.concatenate([np.linspace(0.0, 1e3, 16), np.linspace(5e3, 1e4, 16)])
    ps = np.array([0.0, 4.0])
    assert reference_argmax(full_grid_2d(scn, xs, ps)) == ((0, 0), 0.0)
    assert blocked_2d(scn, xs, ps) == ((0, 0), 0.0)


@pytest.mark.parametrize("bounds, wild, best", [
    # row 2 has the highest bound, row 1 ties its maximum and comes first
    ([(3.0, 0), (3.0, 1), (5.0, 2)], [], None),
    # a bound equal to the best value reads an earlier row only
    ([(3.0, 1), (3.0, 3)], [], (2, 0, 3.0)),
    # the wild rows are read in full, and the first NaN wins over inf
    ([(3.0, 0), (5.0, 2)], [4, 5], None),
    # against a best value carried from rows read before
    ([(5.0, 2)], [4], (0, 1, 2.0)),
])
def test_bounded_argmax_picks_as_np_argmax(bounds, wild, best):
    grid = np.array([[1.0, 2.0, 0.5],
                     [0.0, 3.0, 3.0],
                     [3.0, 1.0, 0.0],
                     [3.0, 0.0, 0.0],
                     [0.0, np.inf, 1.0],
                     [1.0, 0.0, np.nan]])
    rows = sorted({r for _, r in bounds} | set(wild) | ({best[0]} if best else set()))
    want_k = reference_argmax(grid[rows])
    want = (rows[want_k[0][0]], want_k[0][1], want_k[1])
    got = _bounded_argmax(bounds, wild, lambda r, floor: _first_max(grid[r].tolist()), best)
    assert got[:2] == want[:2] and (got[2] == want[2] or np.isnan(got[2]) and np.isnan(want[2]))


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


def test_linspace_matches_numpy():
    # the grid axes, made without numpy, on the shipped spans,
    # a span too small to divide (numpy's path for a zero step) and n = 2
    for lo, hi in [(30.0, 170.0), (0.0, 4.0), (0.0, 5e-324), (0.0, 1e-200), (10.0, 200.0),
                   (0.0, 1e200), (-3.5, 7.25)]:
        for n in (2, 3, 7, 200, 1999, 2000):
            want = np.linspace(lo, hi, n).tolist()
            got = _linspace(lo, hi, n)
            assert [float.hex(v) for v in got] == [float.hex(v) for v in want], (lo, hi, n)


@pytest.mark.parametrize("p_total", [1e-200, 1e-300, 1e200])
def test_extreme_budgets_match_full_grid(freespace_scn, p_total):
    # at 1e-200 W and 1e-300 W p1 p2 underflows, so the rows are read in
    # full under the exact float cap g1 g2 max(p1 p2); at 1e200 W it
    # overflows and every row is wild.  The scenarios refuse 1e200 W, so
    # the kernel gets stand-ins with the same fields
    scn = SimpleNamespace(**{**vars(freespace_scn), "p_total": p_total})
    with np.errstate(all="ignore"):
        assert_same_2d(scn, *axes_2d(scn, 300, 300))
        assert_same_2d(scn, *axes_2d(scn, 7, 2000))
        scn = SimpleNamespace(**{**vars(make_atg3d("urban")), "p_total": p_total})
        assert_same_3d(scn, *axes_3d(scn, 20, 30, 40))


def read_row(row_max, r, floor, n):
    """row_max(r, floor) and the cells it read."""
    read = set(range(n))  # unless the row is walked, it is read in full
    walk = oracle._walk

    def recording(cell, *args):
        read.clear()
        return walk(lambda j: read.add(j) or cell(j), *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_walk", recording)
        j, v = row_max(r, floor)
    return (j, v), read


def check_rows(gam, bounds, row_max, cut):
    # every row's bound is at least each of its cells, and a row read
    # against a floor reads every cell that ranks at or above the incumbent
    # (the floor, or the best cell read if that is higher): the first
    # maximum when it reaches the floor, or no cell at the floor at all
    rows = gam.reshape(-1, gam.shape[-1])
    for bound, r in bounds:
        row = rows[r]
        assert not np.isnan(row).any() and row.max() <= bound
        top = float(row.max())
        values = np.unique(row)
        for floor in (top, np.nextafter(top, np.inf), np.nextafter(top, -np.inf),
                      top * (1.0 - 1e-9), top * (1.0 - 3e-9),
                      float(values[int(cut * (len(values) - 1))]), -np.inf):
            (j, v), read = read_row(row_max, r, floor, len(row))
            incumbent = max(floor, row[sorted(read)].max())
            assert set(np.flatnonzero(row >= incumbent)) <= read
            if top >= floor:
                assert (j, v) == (int(np.argmax(row)), top)
            else:
                assert v < floor


def assert_rows_keep_every_cell_at_or_above(kernel, scn, axes, gam, cut):
    # checks the rows that the kernel hands to _bounded_argmax, at each call
    bounded = oracle._bounded_argmax
    calls = []

    def checked(bounds, wild, row_max, best=None):
        calls.append(len(bounds))
        check_rows(gam, bounds, row_max, cut)
        return bounded(bounds, wild, row_max, best)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_bounded_argmax", checked)
        kernel(scn, *axes)
    assert calls


unit = st.floats(0.0, 1.0)
# the scenarios of the property tests: extreme gains, noise and budgets
FREESPACE_DRAWS = dict(D=st.floats(1.0, 1e4), H=st.floats(1e-2, 1e3),
                       band=st.tuples(unit, unit).map(sorted),
                       beta1_db=st.floats(-300.0, 300.0), beta2_db=st.floats(-300.0, 300.0),
                       budget_exp=st.floats(-300.0, 100.0))
ATG_DRAWS = dict(hop1=st.sampled_from(HOP2_PRESETS), hop2=st.sampled_from(HOP2_PRESETS),
                 noise_db=st.floats(-1500.0, 200.0), budget_exp=st.floats(-300.0, 100.0))


def freespace_draw(D, H, band, beta1_db, beta2_db, budget_exp):
    try:
        return FreeSpaceScenario.from_db(D, H, band[0] * D, band[1] * D, beta1_db, beta2_db,
                                         10.0 ** budget_exp)
    except (ValueError, OverflowError):
        return None  # refused at construction


def atg_draw(hop1, hop2, noise_db, budget_exp):
    try:
        return replace(make_atg3d("urban"), p_total=10.0 ** budget_exp,
                       env1=AtgEnvironment.from_preset(hop1, CARRIER_HZ, noise_db),
                       env2=AtgEnvironment.from_preset(hop2, CARRIER_HZ, noise_db))
    except (ValueError, OverflowError):
        return None  # refused at construction


@settings(derandomize=True, deadline=None, max_examples=150)
@given(**FREESPACE_DRAWS, nx=st.integers(1, 6), np_=st.integers(2, 400), cut=unit)
def test_2d_bound_and_walk_keep_every_cell_at_or_above_the_incumbent(nx, np_, cut, **draw):
    scn = freespace_draw(**draw)
    if scn is None:
        return
    axes = axes_2d(scn, nx, np_)
    with np.errstate(all="ignore"):
        gam = full_grid_2d(scn, *axes)
    assert_rows_keep_every_cell_at_or_above(blocked_2d, scn, axes, gam, cut)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(**ATG_DRAWS, shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(2, 300)),
       cut=unit)
def test_3d_bound_and_walk_keep_every_cell_at_or_above_the_incumbent(shape, cut, **draw):
    scn = atg_draw(**draw)
    if scn is None:
        return
    axes = axes_3d(scn, *shape)
    with np.errstate(all="ignore"):
        gam = full_grid_3d(scn, *axes)
    assert_rows_keep_every_cell_at_or_above(blocked_3d, scn, axes, gam, cut)


def assert_boxes_bound_their_cells(rows, scn, axes, gam):
    # every box the kernel bounds, at each of its calls to _box_bound (each
    # right after it asked for the box's gains): a finite bound is at least
    # every cell of the box, none of them NaN; inf marks a box that may hold NaN
    shape, row, box = rows(scn, *(axis.tolist() for axis in axes[:-1]))
    boxes, bounds = [], []
    box_bound = oracle._box_bound

    def asked(*b):
        boxes.append(b)
        return box(*b)

    def recording(*args):
        bounds.append(box_bound(*args))
        return bounds[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_box_bound", recording)
        _grid_argmax(scn.p_total, axes[-1].tolist(), shape, row, asked)
    assert len(boxes) == len(bounds) and boxes[0] == (0, shape[0], 0, shape[1])
    cells = gam.reshape(*shape, -1)
    for (i0, i1, k0, k1), bound in zip(boxes, bounds):
        part = cells[i0:i1, k0:k1]
        assert bound < math.inf or bound == math.inf
        if bound < math.inf:
            assert not np.isnan(part).any() and part.max() <= bound


@settings(derandomize=True, deadline=None, max_examples=150)
@given(**FREESPACE_DRAWS, nx=st.integers(1, 700), np_=st.integers(2, 60))
def test_2d_box_bound_bounds_every_cell_of_its_box(nx, np_, **draw):
    scn = freespace_draw(**draw)
    if scn is None:
        return
    axes = axes_2d(scn, nx, np_)
    with np.errstate(all="ignore"):
        gam = full_grid_2d(scn, *axes)
    assert_boxes_bound_their_cells(_freespace_rows, scn, axes, gam)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(**ATG_DRAWS, shape=st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(2, 30)))
def test_3d_box_bound_bounds_every_cell_of_its_box(shape, **draw):
    scn = atg_draw(**draw)
    if scn is None:
        return
    axes = axes_3d(scn, *shape)
    with np.errstate(all="ignore"):
        gam = full_grid_3d(scn, *axes)
    assert_boxes_bound_their_cells(_atg_rows, scn, axes, gam)
