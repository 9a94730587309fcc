"""The oracle's bounded grid kernel against the full-grid computation.

The reference below computes the hop gains of every grid row itself
(the air-to-ground ones with ``math``, written apart from the oracle's
row generator), builds the whole SNR grid as numpy temporaries and takes
``np.argmax`` over it, as the oracle did before it skipped the rows and
cells that cannot win.  The kernel must return the same index and the
same value (``==``, not approximately) on every shape, including ties,
on the grids of the scenarios the types accept, whose cells are finite.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from uavrelay import AtgEnvironment, FreeSpaceScenario, hop_gains_3d, oracle, replace
from uavrelay.config import load_config
from uavrelay.oracle import (
    DEFAULT_POINTS_2D,
    DEFAULT_POINTS_3D,
    GridSpec,
    _atg_rows,
    _freespace_rows,
    _grid_argmax,
)
from uavrelay.search import _linspace

from conftest import CARRIER_HZ, make_atg3d

HOP2_PRESETS = ("suburban", "urban", "dense-urban", "high-rise")
CONFIGS = Path(__file__).parent.parent / "configs"


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
    # the floor of each row the kernel reads: every read goes through _walk
    read = []
    walk = oracle._walk

    def counting(*args):
        read.append(args[-1])
        return walk(*args)

    monkeypatch.setattr(oracle, "_walk", counting)
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
    # most 1,000 boxes, the rows read among them, have their gains computed
    # on each 40,000-row default grid of the shipped sweep
    computed = []
    rows = oracle._atg_rows

    def counting(*args):
        shape, box = rows(*args)
        computed.append(0)

        def counted(*b):
            computed[-1] += 1
            return box(*b)

        return shape, counted

    monkeypatch.setattr(oracle, "_atg_rows", counting)
    config = load_config(str(CONFIGS / "atg3d_environments.json"))
    for value in config.sweep_values:
        oracle.exhaustive_search(config.point(value)[0])
    assert len(computed) == 4 and 0 < max(computed) <= 1000


def test_few_power_columns_bound_few_boxes(monkeypatch):
    # with three columns a row's continuous peak over p1 lies far above its
    # cells; the cells either side of p1* bound a box tightly, so the
    # 100,000 rows need few box bounds
    bounds = []
    box_bound = oracle._box_bound

    def counted(*args):
        bounds.append(box_bound(*args))
        return bounds[-1]

    monkeypatch.setattr(oracle, "_box_bound", counted)
    config = load_config(str(CONFIGS / "freespace.json"))
    oracle.exhaustive_search(config.scenario, config.blk, GridSpec(x=100_000, p1=3))
    assert 0 < len(bounds) <= 200


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


def edge_scenario(p_total):
    # the refusal edge: at H = 1e-3 m and beta1 = beta2 of about 1481.27 dB,
    # g1 g2 at x = 0 or D is within 1e-9 of the largest double, so the
    # margin's widening of a box's gains overflows where it reaches both ends
    beta = 1e-6 * math.sqrt(sys.float_info.max * (1.0 - 1e-9))
    return FreeSpaceScenario(200.0, 1e-3, 0.0, 200.0, beta, beta, p_total)


def test_box_bounded_at_the_best_value_is_read_when_it_starts_first(monkeypatch):
    # p1 p2 is subnormal at 1e-160 W: g1 g2 p1 p2 rounds to the least
    # subnormal near x = D and to 0.0 near x = 100, and each cell, that
    # over a denominator of at least 2, to 0.0.  The later rows' caps are
    # above 0.0, so one of them is read first; the boxes from row 0 are
    # bounded at its 0.0 and must still be read, and row 0 must win, after
    # which the rest stop
    scn = FreeSpaceScenario(200.0, 1.0, 100.0, 200.0, 4e-163, 2e164, 1e-160)
    xs, ps = np.linspace(100.0, 200.0, 64), np.linspace(0.0, 1e-160, 3)
    read = rows_read(monkeypatch)
    assert reference_argmax(full_grid_2d(scn, xs, ps)) == ((0, 0), 0.0)
    assert blocked_2d(scn, xs, ps) == ((0, 0), 0.0)
    assert len(read) == 2


@pytest.mark.parametrize("p_total", [1e-300, 1e-5, 1.0])
def test_refusal_edge_matches_full_grid(p_total):
    # also with p1 0 or the whole budget: then every cell is 0.0, and the
    # cap of the box whose widened g1 g2 overflows, inf times 0, must not
    # be NaN (at 1e-300 W p1 p2 underflows in every column)
    scn = edge_scenario(p_total)
    for np_ in (500, 2):
        axes = axes_2d(scn, 500, np_)
        gam = full_grid_2d(scn, *axes)
        assert blocked_2d(scn, *axes) == reference_argmax(gam)
        assert_boxes_bound_their_cells(_freespace_rows, scn, axes, gam)


@pytest.mark.parametrize("beta2_db", [400.0, 450.0])
def test_peak_past_the_last_column_matches_full_grid(beta2_db):
    # a second hop some 350 dB above the first puts p1* within an ulp of
    # the budget, and its float may round past the last column
    scn = FreeSpaceScenario.from_db(200.0, 120.0, 30.0, 170.0, 50.0, beta2_db, 3.0)
    assert_same_2d(scn, *axes_2d(scn, 300, 300))


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


@pytest.mark.parametrize("p_total", [1e-200, 1e-300])
def test_extreme_budgets_match_full_grid(freespace_scn, p_total):
    # p1 p2 underflows, so the rows are read in full under the exact float
    # cap g1 g2 max(p1 p2)
    scn = replace(freespace_scn, p_total=p_total)
    assert_same_2d(scn, *axes_2d(scn, 300, 300))
    assert_same_2d(scn, *axes_2d(scn, 7, 2000))
    scn = replace(make_atg3d("urban"), p_total=p_total)
    assert_same_3d(scn, *axes_3d(scn, 20, 30, 40))


def test_subnormal_rows_are_read_in_full():
    # p1 p2 is subnormal (~2.4e-321), so it moves in steps of a few ulps
    # while g1 p1 in the denominator grows smoothly: the last row's cells
    # near p1* = 4.14e-161 read 1.71695e-181 (column 81), 1.71434e-181
    # (82), 1.71523e-181 and 1.71612e-181 (83, 84), 1.71354e-181 (85).  A
    # walk from p1* stops at 82 and 85 and takes 84; the full read takes 81
    scn = FreeSpaceScenario.from_db(100.0, 1.0, 0.0, 100.0, 1640.0, -200.0, 1e-160)
    assert_same_2d(scn, *axes_2d(scn, 2, 200))


def test_row_gains_past_the_exp_range_match_hop_gains_3d():
    # a = 80, b = 20: below 44.5 degrees of elevation exp(-b (theta - a))
    # overflows, and each one-row box takes the limit P_los = 0 as
    # hop_gains_3d does; both low corners see both hops below that angle
    env = AtgEnvironment(80.0, 20.0, 0.1, 21.0, CARRIER_HZ, -93.0)
    scn = replace(make_atg3d("urban"), d1=0.0, env1=env, env2=env)
    xs, hs = [0.0, 20.0, 100.0, 180.0, 200.0], [10.0, 50.0, 150.0, 200.0]
    _, box = _atg_rows(scn, xs, hs)
    steep = 0
    for i, x in enumerate(xs):
        for k, h in enumerate(hs):
            want = hop_gains_3d(scn, x, h)
            assert box(i, i + 1, k, k + 1) == pytest.approx(want * 2, rel=1e-14), (x, h)
            steep += sum(math.degrees(math.atan2(h, ground)) < 44.5 for ground in (x, scn.D - x))
    assert steep > 0


def assert_rows_keep_every_cell_at_or_above(kernel, scn, axes, gam, cut):
    # at each row the kernel reads (each read goes through _walk): the row
    # is one of the reference grid's, and read against a floor it reads
    # every cell that ranks at or above the incumbent (the floor, or the
    # best cell read if that is higher): the first maximum when it reaches
    # the floor, or no cell at the floor at all
    walk = oracle._walk
    rows = gam.reshape(-1, gam.shape[-1])
    calls = []

    def checked(cell, ps, p_star, halo, floor):
        calls.append(floor)
        row = np.array([cell(j) for j in range(len(ps))])
        assert (rows == row).all(axis=1).any()
        top = float(row.max())
        values = np.unique(row)
        for level in (top, np.nextafter(top, np.inf), np.nextafter(top, -np.inf),
                      top * (1.0 - 1e-9), top * (1.0 - 3e-9),
                      float(values[int(cut * (len(values) - 1))]), -np.inf):
            read = set()
            j, v = walk(lambda k: read.add(k) or cell(k), ps, p_star, halo, level)
            incumbent = max(level, row[sorted(read)].max())
            assert set(np.flatnonzero(row >= incumbent)) <= read
            if top >= level:
                assert (j, v) == (int(np.argmax(row)), top)
            else:
                assert v < level
        return walk(cell, ps, p_star, halo, floor)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_walk", checked)
        kernel(scn, *axes)
    assert calls


unit = st.floats(0.0, 1.0)
# the scenarios of the property tests: extreme gains, noise and budgets
FREESPACE_DRAWS = dict(D=st.floats(1.0, 1e4), H=st.floats(1e-3, 1e3),
                       band=st.tuples(unit, unit).map(sorted),
                       beta1_db=st.floats(-1500.0, 1500.0), beta2_db=st.floats(-1500.0, 1500.0),
                       budget_exp=st.floats(-300.0, 100.0))
ATG_DRAWS = dict(hop1=st.sampled_from(HOP2_PRESETS), hop2=st.sampled_from(HOP2_PRESETS),
                 noise_db=st.floats(-1500.0, 200.0), budget_exp=st.floats(-300.0, 100.0))


def freespace_draw(D, H, band, beta1_db, beta2_db, budget_exp):
    try:
        return FreeSpaceScenario.from_db(D, H, band[0] * D, band[1] * D, beta1_db, beta2_db,
                                         10.0 ** budget_exp)
    except ValueError:
        return None  # refused at construction


def atg_draw(hop1, hop2, noise_db, budget_exp):
    try:
        return replace(make_atg3d("urban"), p_total=10.0 ** budget_exp,
                       env1=AtgEnvironment.from_preset(hop1, CARRIER_HZ, noise_db),
                       env2=AtgEnvironment.from_preset(hop2, CARRIER_HZ, noise_db))
    except ValueError:
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
    # right after it asked for the box's gains): the bound is at least
    # every cell of the box
    shape, box = rows(scn, *(axis.tolist() for axis in axes[:-1]))
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
        _grid_argmax(scn.p_total, axes[-1].tolist(), shape, asked)
    assert len(boxes) == len(bounds) and boxes[0] == (0, shape[0], 0, shape[1])
    cells = gam.reshape(*shape, -1)
    for (i0, i1, k0, k1), bound in zip(boxes, bounds):
        assert cells[i0:i1, k0:k1].max() <= bound


@settings(derandomize=True, deadline=None, max_examples=300)
@given(scn=st.one_of(st.builds(freespace_draw, **FREESPACE_DRAWS),
                  st.builds(atg_draw, **ATG_DRAWS)),
       shape=st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(2, 60)))
def test_accepted_scenarios_have_only_finite_cells(scn, shape):
    # the kernel's contract: the types refuse every scenario whose grid
    # could hold an inf or NaN cell
    if scn is None:
        return
    with np.errstate(all="ignore"):
        if isinstance(scn, FreeSpaceScenario):
            gam = full_grid_2d(scn, *axes_2d(scn, shape[0], shape[2]))
        else:
            gam = full_grid_3d(scn, *axes_3d(scn, *shape))
    assert np.isfinite(gam).all()


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
