"""Brute-force reference search and the simple baseline schemes.

The exhaustive search finds the grid cell of the highest exact end-to-end
SNR, the first maximum in C order over a grid of finite cells (the cell
``np.argmax`` over the whole grid picks), and polishes it with one local
golden-section refinement per axis.  It exists to check the analytic
solvers, so it evaluates the SNR itself and takes none of their answers;
the closed-form maximiser of the power split serves only to bound boxes
of grid rows and to start the reading of a row, so that the boxes, rows
and cells that cannot win are skipped.  Both models share one kernel on
plain floats: a row generator per model gives the upper and lower hop
gains over a box of grid rows, the air-to-ground one writing the gain
out again rather than calling the solvers' ``hop_gains_3d``.  The
baselines pin one decision variable (placement or power split) and
optimise the rest, mirroring the usual comparison schemes.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, insort

from . import freespace
from .atg3d import _ascend, _line_block, hop_gains_3d
from .channels import Atg3dScenario, FreeSpaceScenario
from .config import DEFAULT_FIXED_HEIGHT, DEFAULT_POINTS_2D, DEFAULT_POINTS_3D, GridSpec
from .fbl import BlocklengthParams, PowerSplit, af_snr, decoding_error_probability
from .freespace import (
    SolveResult,
    optimal_location_given_power,
    optimal_power_for_gains,
    power_block,
)
from .search import _linspace, golden_section_max

# Relative margin by which a box's gains and its bound are widened before
# they prune, and a walk's stopping value narrowed: far above the few ulps
# by which each cell's value may err, or by which atan2, exp and ** may
# break the gains' monotonicity.
_BOUND_MARGIN = 1e-9
# The smallest normal double.  A product or quotient that lands at or
# above it errs by at most half an ulp, relative.
_TINY = sys.float_info.min


def _resolve_blk(scn, blk: BlocklengthParams | None) -> BlocklengthParams:
    if blk is not None:
        return blk
    if isinstance(scn, Atg3dScenario):
        return scn.blk
    raise ValueError("blocklength parameters are required for this scenario type")


def _peak_bound(g1: float, g2: float, pt: float, low: float) -> tuple[bool, float]:
    """(walk, p1*) for a row of gains g1, g2.

    Over p1 + p2 = pt the SNR g1 g2 p1 p2 / (g2 p2 + g1 p1 + 1) peaks at
    p1* = pt r2 / (r1 + r2) with the value G = pt^2 g1 g2 / (r1 + r2)^2,
    where r_i = sqrt(1 + pt g_i).  The inverse SNR is a sum of terms convex
    in p1, so a row rises to p1* and falls after it.  low is at most every
    nonzero product inside a numerator of the row.  walk says that low over
    the largest denominator, q^2 and G are normal: then, in a row whose
    cells cannot overflow, each cell is within a few ulps of its exact
    value, so the row may be walked from p1*.
    """
    r1, r2 = math.sqrt(1.0 + g1 * pt), math.sqrt(1.0 + g2 * pt)
    q = pt / (r1 + r2)
    qq = q * q
    walk = qq >= _TINY and qq * (g1 * g2) < math.inf and low / (g2 * pt + g1 * pt + 1.0) >= _TINY
    return walk, q * r2


def _walk(cell, ps: list[float], p_star: float, halo: float, floor: float):
    """Index and value of the first maximum of a row that peaks at p_star.

    The cells are read outward from p_star.  Beyond p_star +- halo the row
    falls away from p_star up to rounding, so each side stops at its first
    cell there that is below the larger of floor and the best value read,
    narrowed by the margin: every cell beyond it is below that value.  The
    result is the row's first maximum whenever that is at least floor.  An
    infinite halo reads the whole row.
    """
    k = bisect_left(ps, p_star)
    best_j, best_v = k, -math.inf
    for j in range(k, len(ps)):
        v = cell(j)
        if v > best_v:
            best_j, best_v = j, v
        if ps[j] > p_star + halo and v < max(floor, best_v) * (1.0 - _BOUND_MARGIN):
            break
    for j in range(k - 1, -1, -1):
        v = cell(j)
        if v >= best_v:  # a tie goes to the earlier cell
            best_j, best_v = j, v
        if ps[j] < p_star - halo and v < max(floor, best_v) * (1.0 - _BOUND_MARGIN):
            break
    return best_j, best_v


def _box_bound(gains, pt: float, ps: list[float], cell, pp_top: float, pp_low: float) -> float:
    """A bound on every cell of a box of rows.

    gains holds the box's upper and lower hop gains (g1, g2, l1, l2),
    widened here by the margin; cell(g1, g2, j) gives the cell of a row of
    gains g1, g2 in column j.  At a fixed column a cell rises in both
    gains, and at fixed gains a row rises to p1* and falls after it.  So
    where _peak_bound's normal-range test passes, with the lower gains in
    low, the larger of the two cells at the upper gains in the columns
    either side of p1*, widened, bounds the box; else the cap
    g1 g2 max(p1 p2) does.
    """
    g1, g2, l1, l2 = gains
    up, down = 1.0 + _BOUND_MARGIN, 1.0 - _BOUND_MARGIN
    g1, g2 = g1 * up, g2 * up
    walk, p_star = _peak_bound(g1, g2, pt, l1 * down * (l2 * down) * pp_low)
    if not walk:
        # where p1 p2 is 0 in every column so is every cell, even if the
        # widened g1 g2 overflows
        return g1 * g2 * pp_top if pp_top else 0.0
    # p1* may round past the last column
    k = min(bisect_left(ps, p_star), len(ps) - 1)
    return max(cell(g1, g2, max(k - 1, 0)), cell(g1, g2, k)) * up


def _split(i0: int, i1: int, k0: int, k1: int):
    # halve the longer side of a box of rows [i0, i1) x [k0, k1)
    if i1 - i0 >= k1 - k0:
        m = (i0 + i1) // 2
        return (i0, m, k0, k1), (m, i1, k0, k1)
    m = (k0 + k1) // 2
    return (i0, i1, k0, m), (i0, i1, m, k1)


def _freespace_rows(scn: FreeSpaceScenario, xs: list[float]):
    """(shape, box) of the free-space grid, one row per offset x.

    box(i0, i1, 0, 1) gives the upper and lower hop gains
    beta / (H^2 + d^2) over xs[i0:i1], at its ends: xs ascends within
    [0, D], and each gain falls with its distance.  Over one row both
    pairs are that row's gains.
    """
    D, b1, b2 = scn.D, scn.beta1, scn.beta2
    h_sq = scn.H * scn.H

    def box(i0: int, i1: int, k0: int, k1: int) -> tuple[float, float, float, float]:
        x0, x1 = xs[i0], xs[i1 - 1]
        u0, u1 = D - x1, D - x0  # the second hop's nearest and farthest offsets
        return (b1 / (h_sq + x0 * x0), b2 / (h_sq + u0 * u0),
                b1 / (h_sq + x1 * x1), b2 / (h_sq + u1 * u1))

    return (len(xs), 1), box


def _atg_rows(scn: Atg3dScenario, xs: list[float], hs: list[float]):
    """(shape, box) of the air-to-ground grid, one row per (x, h) pair.

    The S-curve gain of Al-Hourani et al. (IEEE WCL 2014), written out
    here independently of ``atg3d.hop_gains_3d``, which the oracle checks:
    gain_scale / r^2 * 10^(gain_exponent s), with s the LoS probability
    1 / (1 + a exp(-b (theta - a))) at the elevation theta in degrees.
    Where the exponential overflows, s is below 1 / (a e^709.78) and its
    limit 0 is taken.  box(i0, i1, k0, k1) gives the upper and lower hop
    gains over a box of rows; over one row, at (xs[i], hs[k]), both pairs
    are that row's gains.  With xs ascending in [0, D] and hs in
    (0, inf), the gain falls with r and, as a, b > 0 and
    gain_exponent >= 0, rises with theta: the upper gain takes r at the
    box's nearest offset and lowest height, and theta at that offset and
    the top height.
    """

    def gain(env, r_sq: float, ground: float, h: float) -> float:
        a, b = env.s_curve_a, env.s_curve_b
        theta = math.degrees(math.atan2(h, ground))
        try:
            s = 1.0 / (1.0 + a * math.exp(-b * (theta - a)))
        except OverflowError:
            s = 0.0
        return env.gain_scale / r_sq * 10.0 ** (env.gain_exponent * s)

    D, env1, env2 = scn.D, scn.env1, scn.env2

    def box(i0: int, i1: int, k0: int, k1: int) -> tuple[float, float, float, float]:
        x0, x1, low, top = xs[i0], xs[i1 - 1], hs[k0], hs[k1 - 1]
        u0, u1 = D - x1, D - x0  # the second hop's nearest and farthest offsets
        return (gain(env1, x0 * x0 + low * low, x0, top), gain(env2, u0 * u0 + low * low, u0, top),
                gain(env1, x1 * x1 + top * top, x1, low), gain(env2, u1 * u1 + top * top, u1, low))

    return (len(xs), len(hs)), box


def _grid_argmax(pt: float, ps: list[float], shape: tuple[int, int],
                 box) -> tuple[int, int, float]:
    """(row, column, value) of the first SNR maximum in C order over a grid.

    The rows are the pairs (i, k) of shape, row i * nh + k in C order;
    box(i0, i1, k0, k1) gives the upper and lower hop gains (g1, g2) over
    [i0, i1) x [k0, k1).  ps, the columns, ascends within [0, pt]; the
    cell at p1 is (g1 g2)(p1 p2) / (g2 p2 + g1 p1 + 1) with p2 = pt - p1,
    and every cell is finite.  One queue holds boxes of rows by bound and
    takes them best-first until a bound is below the best cell, or equals
    it and starts after it.  A box of several rows is halved; a one-row
    box is walked from p1*, or read in full where the row leaves the
    normal float range.  Memory grows with the boxes held, not with the
    grid.
    """
    p2 = [pt - p for p in ps]
    pp = [a * b for a, b in zip(ps, p2)]
    pp_top = max(pp)
    # the least p1 p2 of a cell with two positive powers; a subnormal one
    # makes every row a full read
    pp_low = min((q for a, b, q in zip(ps, p2, pp) if a > 0.0 and b > 0.0), default=0.0)
    if pp_low < _TINY:
        pp_low = 0.0
    halo = _BOUND_MARGIN * pt
    nh = shape[1]

    def cell(g1: float, g2: float, j: int) -> float:
        # in the operand order of the full-grid expression
        return g1 * g2 * pp[j] / (g2 * p2[j] + g1 * ps[j] + 1.0)

    def entry(b):
        # a box's gains stay with it, so a one-row box is not asked again
        gains = box(*b)
        return _box_bound(gains, pt, ps, cell, pp_top, pp_low), -b[0] * nh - b[2], b, gains

    # held ascends by bound and, among equal bounds, by the negated first
    # row, so that pop() gives the box to take next
    held = [entry((0, shape[0], 0, nh))]
    best = -1, 0, -math.inf
    while held:
        bound, first, b, (g1, g2, _, _) = held.pop()
        row, _, value = best
        if bound < value or (bound == value and -first > row):
            break
        if (b[1] - b[0]) * (b[3] - b[2]) > 1:
            for half in _split(*b):
                insort(held, entry(half))
            continue
        walk, p_star = _peak_bound(g1, g2, pt, g1 * g2 * pp_low)
        j, v = _walk(lambda col: cell(g1, g2, col), ps,
                     *((p_star, halo) if walk else (0.0, math.inf)), value)
        if v > value or (v == value and -first < row):
            best = -first, j, v
    return best


def exhaustive_search(
    scn: FreeSpaceScenario | Atg3dScenario,
    blk: BlocklengthParams | None = None,
    grid: GridSpec | None = None,
) -> SolveResult:
    """Dense grid search over the decision variables, locally refined.

    The axes are x and p1, with the height between them in the
    air-to-ground model.  The best grid cell is polished along each axis
    in turn.  Grid ties are broken towards the lexicographically smallest
    index (x-major order), which makes the result deterministic.
    """
    blk = _resolve_blk(scn, blk)
    grid = grid or GridSpec()
    pt = scn.p_total
    if isinstance(scn, Atg3dScenario):
        n = DEFAULT_POINTS_3D
        bounds = ((scn.d1, scn.d2, grid.x), (scn.h_min, scn.h_max, grid.h), (0.0, pt, grid.p1))
        snr = lambda x, h, p: af_snr(*hop_gains_3d(scn, x, h), PowerSplit(p, pt - p))
        rows = _atg_rows
    else:
        if grid.h is not None:
            raise ValueError("height axis only applies to the air-to-ground model")
        n = DEFAULT_POINTS_2D
        bounds = ((scn.d1, scn.d2, grid.x), (0.0, pt, grid.p1))
        # by the module attribute, so a wrapper set on it sees the call
        snr = lambda x, p: af_snr(*freespace.freespace_gains(scn, x), PowerSplit(p, pt - p))
        rows = _freespace_rows
    axes = [_linspace(lo, hi, n if points is None else points) for lo, hi, points in bounds]

    r, j, v_best = _grid_argmax(pt, axes[-1], *rows(scn, *axes[:-1]))
    index = (*divmod(r, len(axes[1])), j) if len(axes) == 3 else (r, j)
    point = [axis[i] for axis, i in zip(axes, index)]
    for k, (axis, (lo, hi, _)) in enumerate(zip(axes, bounds)):
        # one golden-section polish inside +/- one grid step around the best cell
        step = axis[1] - axis[0]
        a, b = max(lo, point[k] - step), min(hi, point[k] + step)
        if b > a:
            t, v = golden_section_max(lambda t: snr(*point[:k], t, *point[k + 1:]), a, b,
                                      tol=max(step * 1e-6, 1e-12))
            if v > v_best:
                point[k], v_best = t, v

    gamma = snr(*point)
    eps = decoding_error_probability(gamma, blk)
    height = point[1] if len(point) == 3 else scn.H
    return SolveResult("exhaustive", point[0], height, PowerSplit(point[-1], pt - point[-1]),
                       gamma, eps, (gamma,))


def fixed_location_baseline(
    scn: FreeSpaceScenario | Atg3dScenario, blk: BlocklengthParams | None = None
) -> SolveResult:
    """Pin the relay placement (band/box midpoint) and optimise the power split."""
    blk = _resolve_blk(scn, blk)
    x = 0.5 * (scn.d1 + scn.d2)
    if isinstance(scn, Atg3dScenario):
        height = 0.5 * (scn.h_min + scn.h_max)
        h1, h2 = hop_gains_3d(scn, x, height)
    else:
        height = scn.H
        # by the module attribute, so a wrapper set on it sees the call
        h1, h2 = freespace.freespace_gains(scn, x)
    powers = optimal_power_for_gains(h1, h2, scn.p_total)
    gamma = af_snr(h1, h2, powers)
    eps = decoding_error_probability(gamma, blk)
    return SolveResult("fixed-location", x, height, powers, gamma, eps, (gamma,))


def fixed_power_baseline(
    scn: FreeSpaceScenario | Atg3dScenario, blk: BlocklengthParams | None = None
) -> SolveResult:
    """Pin an even power split and optimise the placement."""
    blk = _resolve_blk(scn, blk)
    powers = PowerSplit.even(scn.p_total)
    if isinstance(scn, Atg3dScenario):
        return _ascend(scn, blk, "fixed-power", 0.5 * (scn.d1 + scn.d2),
                       0.5 * (scn.h_min + scn.h_max), powers,
                       (_line_block(scn, 1), _line_block(scn, 0)))
    x = optimal_location_given_power(scn, powers)
    h1, h2 = freespace.freespace_gains(scn, x)
    gamma = af_snr(h1, h2, powers)
    eps = decoding_error_probability(gamma, blk)
    return SolveResult("fixed-power", x, scn.H, powers, gamma, eps, (gamma,))


def fixed_height_baseline(
    scn: Atg3dScenario,
    blk: BlocklengthParams | None = None,
    height: float = DEFAULT_FIXED_HEIGHT,
) -> SolveResult:
    """Pin the flying height and alternate the power and offset blocks."""
    if not isinstance(scn, Atg3dScenario):
        raise TypeError("fixed_height_baseline applies to the air-to-ground model only")
    blk = _resolve_blk(scn, blk)
    if not (scn.h_min <= height <= scn.h_max):
        raise ValueError(f"pinned height {height} outside [{scn.h_min}, {scn.h_max}]")
    return _ascend(scn, blk, "fixed-height", 0.5 * (scn.d1 + scn.d2), height,
                   PowerSplit.even(scn.p_total), (power_block(scn.p_total), _line_block(scn, 0)))
