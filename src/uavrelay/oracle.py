"""Brute-force reference search and the simple baseline schemes.

The exhaustive search finds the grid cell of the highest exact end-to-end
SNR, the cell that ``np.argmax`` over the whole grid picks (the first
maximum in C order, or the first NaN), and polishes it with one local
golden-section refinement per axis.  It exists to check the analytic
solvers, so it evaluates the SNR itself and takes none of their answers;
the closed-form maximum over the power split serves only as an upper bound
that skips the grid rows, and the cells of a row, that cannot win.  The
free-space grid runs on plain floats; the air-to-ground grid computes its
gains with numpy, imported inside that grid only, so a process that runs
no air-to-ground grid never loads it.  The baselines pin one decision
variable (placement or power split) and optimise the rest, mirroring the
usual comparison schemes.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

from . import freespace
from .atg3d import Atg3dScenario, _ascend, _ascent_blocks, _gamma, hop_gains_3d
from .channels import FreeSpaceScenario
from .fbl import BlocklengthParams, PowerSplit, af_snr, decoding_error_probability
from .freespace import (
    SolveResult,
    optimal_location_given_power,
    optimal_power_for_gains,
    snr_at,
)
from .search import golden_section_max

# Default grid density per axis: dense for the two-variable model, coarser
# for the three-variable one.
DEFAULT_POINTS_2D = 2000
DEFAULT_POINTS_3D = 200

# Default pinned flying height of the fixed-height baseline, in metres.
DEFAULT_FIXED_HEIGHT = 100.0

# Relative margin by which a row's closed-form bound is widened before it
# prunes, and a walk's stopping value narrowed: far above the few ulps by
# which the bound and each cell's value may err.
_BOUND_MARGIN = 1e-9
# The smallest normal double.  A product or quotient that lands at or
# above it errs by at most half an ulp, relative.
_TINY = sys.float_info.min
# Grid rows bounded together and read against the best cell of the rows
# before them, so memory does not grow with the grid.
_BATCH_ROWS = 1 << 11


@dataclass(frozen=True)
class GridSpec:
    """Points per axis of the exhaustive search.

    Each axis spans the scenario bounds (the full power budget for p1);
    an unset count takes the model's default.  The height axis h exists
    in the air-to-ground model only.
    """

    x: int | None = None
    p1: int | None = None
    h: int | None = None

    def __post_init__(self):
        for n in (self.x, self.p1, self.h):
            if n is not None and n < 2:
                raise ValueError(f"need at least 2 points per axis, got {n}")


def _resolve_blk(scn, blk: BlocklengthParams | None) -> BlocklengthParams:
    if blk is not None:
        return blk
    if isinstance(scn, Atg3dScenario):
        return scn.blk
    raise ValueError("blocklength parameters are required for this scenario type")


def _refine_axis(f, center: float, step: float, lo: float, hi: float,
                 best: tuple[float, float]) -> tuple[float, float]:
    # one golden-section polish inside +/- one grid step around the best cell
    a = max(lo, center - step)
    b = min(hi, center + step)
    if b <= a:
        return best
    x, v = golden_section_max(f, a, b, tol=max(step * 1e-6, 1e-12))
    if v > best[1]:
        return x, v
    return best


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``np.linspace(lo, hi, n).tolist()`` for n >= 2, on plain floats."""
    div = n - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:  # numpy's path for a span too small to divide
        points = [i / div * delta + lo for i in range(n)]
    else:
        points = [i * step + lo for i in range(n)]
    points[-1] = hi
    return points


def _peak_bound(g1, g2, pt: float, low, sqrt):
    """(walk, G widened by the margin, p1*) for rows of gains g1, g2:
    floats with math.sqrt, or arrays with np.sqrt.

    Over p1 + p2 = pt the SNR g1 g2 p1 p2 / (g2 p2 + g1 p1 + 1) peaks at
    p1* = pt r2 / (r1 + r2) with the value G = pt^2 g1 g2 / (r1 + r2)^2,
    where r_i = sqrt(1 + pt g_i).  The inverse SNR is a sum of terms convex
    in p1, so a row rises to p1* and falls after it.  low is at most every
    nonzero product inside a numerator of the row.  walk says that low over
    the largest denominator, q^2 and G are normal: then, in a row whose
    cells cannot overflow, G and each cell are within a few ulps of their
    exact values, so the row may be walked and bounded by G.
    """
    r1, r2 = sqrt(1.0 + g1 * pt), sqrt(1.0 + g2 * pt)
    q = pt / (r1 + r2)
    qq = q * q
    peak = qq * (g1 * g2)
    walk = ((qq >= _TINY) & (peak < math.inf)
            & (low / (g2 * pt + g1 * pt + 1.0) >= _TINY))
    return walk, peak * (1.0 + _BOUND_MARGIN), q * r2


def _first_max(vals: list[float]) -> tuple[int, float]:
    # np.argmax's pick: the first NaN, else the first maximum
    j = vals.index(max(vals))
    if math.isnan(sum(vals)):  # max() does not see NaN
        j = next((k for k, v in enumerate(vals) if v != v), j)
    return j, vals[j]


def _walk(cell, ps: list[float], p_star: float, halo: float, floor: float):
    """Index and value of the first maximum of a row that peaks at p_star.

    The cells are read outward from p_star.  Beyond p_star +- halo the row
    falls away from p_star up to rounding, so each side stops at its first
    cell there that is below the larger of floor and the best value read,
    narrowed by the margin: every cell beyond it is below that value.  The
    result is the row's first maximum whenever that is at least floor.
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


def _row_reader(row, ps: list[float], p2: list[float], pp: list[float] | None, pt: float):
    """row_max(r, floor) over the rows row(r) = (g1, g2, p1*) of one grid.

    A row whose p1* is None is read in full, any other is walked from p1*.
    Each cell keeps the operand order of the full-grid expression: the
    products pp = p1 p2 give the 2-D numerator (g1 g2)(p1 p2), pp = None
    the 3-D one ((g1 g2) p1) p2; the denominator is (g2 p2 + g1 p1) + 1 in
    both.
    """
    halo = _BOUND_MARGIN * pt

    def row_max(r: int, floor: float) -> tuple[int, float]:
        g1, g2, p_star = row(r)
        c = g1 * g2
        if pp is None:
            cell = lambda j: c * ps[j] * p2[j] / (g2 * p2[j] + g1 * ps[j] + 1.0)
        else:
            cell = lambda j: c * pp[j] / (g2 * p2[j] + g1 * ps[j] + 1.0)
        if p_star is None:
            return _first_max([cell(j) for j in range(len(ps))])
        return _walk(cell, ps, p_star, halo, floor)

    return row_max


def _bounded_argmax(bounds: list[tuple[float, int]], wild: list[int], row_max, best=None):
    """(row, column, value) of np.argmax over a grid read row by row.

    wild lists, ascending, the rows that may overflow, and so hold NaN:
    each is read in full and the first NaN wins.  bounds holds (bound, row)
    for each other row that may hold the maximum, the bound at least every
    cell of the row.  Those rows are read by descending bound until a bound
    falls below the best value found, or equals it on a later row: the
    first maximum in C order wins.  best carries the (row, column, value)
    that rows read before hold.
    """
    for r in wild:
        j, v = row_max(r, -math.inf)
        if v != v:
            return r, j, v
        if best is None or v > best[2] or (v == best[2] and r < best[0]):
            best = r, j, v
    if best is None:
        r = max(bounds, key=itemgetter(0))[1]
        best = (r, *row_max(r, -math.inf))
    ranked = sorted((item for item in bounds if item[0] >= best[2]),
                    key=lambda item: (-item[0], item[1]))
    for bound, r in ranked:
        row, _, value = best
        if bound < value or (bound == value and r > row):
            break
        j, v = row_max(r, value)
        if v > value or (v == value and r < row):
            best = r, j, v
    return best


def _grid_argmax_2d(scn: FreeSpaceScenario, xs, ps):
    """Grid index (ix, ip) and value of the SNR maximum over xs x ps.

    Plain floats, no numpy; ps ascends within [0, p_total].  A row whose
    cap g1 g2 max(p1 p2) overflows is wild.  By monotone rounding no cell
    exceeds the cap, so it bounds any other row, which is read in full
    unless _peak_bound lets it be walked and bounded by its peak G.  The
    rows go to _bounded_argmax a batch at a time, with the best cell of the
    batches before.
    """
    pt, D, b1, b2 = scn.p_total, scn.D, scn.beta1, scn.beta2
    h_sq = scn.H * scn.H
    ps = [float(p) for p in ps]
    p2 = [pt - p for p in ps]
    pp = [a * b for a, b in zip(ps, p2)]
    pp_top = max(pp)
    # the least p1 p2 of a cell with two positive powers; a subnormal one
    # makes every row a full read
    pp_low = min((q for a, b, q in zip(ps, p2, pp) if a > 0.0 and b > 0.0), default=0.0)
    if pp_low < _TINY:
        pp_low = 0.0
    xs = [float(x) for x in xs]
    best = None
    for base in range(0, len(xs), _BATCH_ROWS):
        rows, bounds, wild = [], [], []
        for r, x in enumerate(xs[base:base + _BATCH_ROWS], base):
            g1 = b1 / (h_sq + x * x)
            g2 = b2 / (h_sq + (D - x) * (D - x))
            c = g1 * g2
            cap = c * pp_top
            walk, peak, p_star = _peak_bound(g1, g2, pt, c * pp_low, math.sqrt)
            walk = walk and cap < math.inf
            if cap < math.inf:
                bounds.append((peak if walk else cap, r))
            else:
                wild.append(r)
            rows.append((g1, g2, p_star if walk else None))
        row_max = _row_reader(lambda r: rows[r - base], ps, p2, pp, pt)
        best = _bounded_argmax(bounds, wild, row_max, best)
        if best[2] != best[2]:
            break
    r, j, v = best
    return (r, j), v


def _grid_argmax_3d(scn: Atg3dScenario, xs, hs, ps):
    """Grid index (ix, ih, ip) and value of the SNR maximum over xs x hs x ps.

    The rows are the (x, h) pairs, taken a few x-slices at a time: their
    hop gains come from the S-curve gain of Al-Hourani et al. (IEEE WCL
    2014), written out here independently of ``atg3d.hop_gains_3d``, which
    the oracle checks.  The rows are bounded and read as in
    _grid_argmax_2d, with the caps below in place of g1 g2 max(p1 p2).
    """
    import numpy as np

    def env_gain(env, theta, r_sq):
        s = 1.0 / (1.0 + env.s_curve_a * np.exp(-env.s_curve_b * (theta - env.s_curve_a)))
        return env.gain_scale / r_sq * 10.0 ** (env.gain_exponent * s)

    pt, D = scn.p_total, scn.D
    ps = [float(p) for p in ps]
    p2 = [pt - p for p in ps]
    p1_top, p2_top = max(ps), max(p2)
    pp_top = max(a * b for a, b in zip(ps, p2))
    inner = [(a, b) for a, b in zip(ps, p2) if a > 0.0 and b > 0.0] or [(0.0, 0.0)]
    a_low, b_low = min(a for a, _ in inner), min(b for _, b in inner)
    a_top, b_top = max(a for a, _ in inner), max(b for _, b in inner)
    xs, hs = np.asarray(xs, dtype=float), np.asarray(hs, dtype=float)
    n_h = len(hs)
    step = max(1, _BATCH_ROWS // n_h)
    best = None
    with np.errstate(all="ignore"):
        for ix in range(0, len(xs), step):
            # the rows of x-slices ix, ix + 1, ... in C order, laid out like
            # the full grid's (x, h) mesh
            xg = np.repeat(xs[ix:ix + step], n_h)
            hg = np.tile(hs, len(xg) // n_h)
            g1 = env_gain(scn.env1, np.degrees(np.arctan2(hg, xg)), xg * xg + hg * hg)
            g2 = env_gain(scn.env2, np.degrees(np.arctan2(hg, D - xg)),
                          (D - xg) * (D - xg) + hg * hg)
            c = g1 * g2
            # Two caps on the numerators ((g1 g2) p1) p2.  By monotone
            # rounding, none exceeds it at the largest p1 and p2 of a cell
            # with two positive powers (the others are 0).  And a rounded
            # product exceeds the exact one by at most an ulp or, where it
            # underflows, half the least subnormal, which the slacks of the
            # tight cap on (g1 g2) max(p1 p2) cover
            cap = np.minimum(c * a_top * b_top,
                             c * pp_top * (1.0 + 1e-12) + 1e-322 * (c + p2_top + 2.0))
            low = c * a_low
            walk, peak, p_star = _peak_bound(g1, g2, pt, np.minimum(low, low * b_low), np.sqrt)
            is_wild = ~((c * p1_top < np.inf) & (cap < np.inf))
            walk &= ~is_wild
            bound = np.where(walk, peak, cap)
            bound[is_wild] = -np.inf
            base = ix * n_h

            def row(r):
                i = r - base
                return float(g1[i]), float(g2[i]), float(p_star[i]) if walk[i] else None

            row_max = _row_reader(row, ps, p2, None, pt)
            keep = np.flatnonzero(~is_wild)
            if best is None and len(keep):
                # the first batch's row of highest bound first, to raise the floor
                top = int(np.argmax(bound))
                best = _bounded_argmax([(float(bound[top]), base + top)], [], row_max)
            if best is not None:
                # a row tied with the best value wins only before it in C order
                keep = keep[(bound[keep] > best[2])
                            | ((bound[keep] == best[2]) & (keep + base < best[0]))]
            best = _bounded_argmax(list(zip(bound[keep].tolist(), (keep + base).tolist())),
                                   (np.flatnonzero(is_wild) + base).tolist(), row_max, best)
            if best[2] != best[2]:
                break
    r, j, v = best
    return (*divmod(r, n_h), j), v


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
        snr = lambda x, h, p: _gamma(scn, x, h, PowerSplit(p, pt - p))
        grid_argmax = _grid_argmax_3d
    else:
        if grid.h is not None:
            raise ValueError("height axis only applies to the air-to-ground model")
        n = DEFAULT_POINTS_2D
        bounds = ((scn.d1, scn.d2, grid.x), (0.0, pt, grid.p1))
        snr = lambda x, p: snr_at(scn, x, PowerSplit(p, pt - p))
        grid_argmax = _grid_argmax_2d
    axes = [_linspace(lo, hi, n if points is None else points) for lo, hi, points in bounds]

    index, v_best = grid_argmax(scn, *axes)
    point = [axis[i] for axis, i in zip(axes, index)]
    for k, (axis, (lo, hi, _)) in enumerate(zip(axes, bounds)):
        f = lambda t: snr(*point[:k], t, *point[k + 1:])
        point[k], v_best = _refine_axis(f, point[k], axis[1] - axis[0], lo, hi,
                                        (point[k], v_best))

    gamma = snr(*point)
    eps = decoding_error_probability(gamma, blk)
    height = point[1] if len(point) == 3 else scn.H
    return SolveResult("exhaustive", point[0], height, PowerSplit(point[-1], pt - point[-1]),
                       gamma, eps, 1, (gamma,))


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
    return SolveResult("fixed-location", x, height, powers, gamma, eps, 1, (gamma,))


def fixed_power_baseline(
    scn: FreeSpaceScenario | Atg3dScenario, blk: BlocklengthParams | None = None
) -> SolveResult:
    """Pin an even power split and optimise the placement."""
    blk = _resolve_blk(scn, blk)
    powers = PowerSplit.even(scn.p_total)
    if isinstance(scn, Atg3dScenario):
        score, _, height, offset = _ascent_blocks(scn)
        state = (0.5 * (scn.d1 + scn.d2), 0.5 * (scn.h_min + scn.h_max), powers)
        return _ascend(blk, "fixed-power", score, state, (height, offset))
    x = optimal_location_given_power(scn, powers)
    gamma = snr_at(scn, x, powers)
    eps = decoding_error_probability(gamma, blk)
    return SolveResult("fixed-power", x, scn.H, powers, gamma, eps, 1, (gamma,))


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
    score, power, _, offset = _ascent_blocks(scn)
    state = (0.5 * (scn.d1 + scn.d2), height, PowerSplit.even(scn.p_total))
    return _ascend(blk, "fixed-height", score, state, (power, offset))
