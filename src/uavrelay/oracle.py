"""Brute-force reference search and the simple baseline schemes.

The exhaustive search evaluates the exact end-to-end SNR on a dense
grid (vectorised with numpy, in fixed-size blocks so memory does not
grow with the grid) and polishes the best cell with one local
golden-section refinement per axis.  It exists to check the analytic
solvers, so it deliberately avoids their closed forms.  The baselines
pin one decision variable (placement or power split) and optimise the
rest, mirroring the usual comparison schemes.  numpy is imported inside
the grid functions only: a process that runs no grid never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# Grid cells per block of the exhaustive search: small enough for the two
# block buffers to stay in cache, whatever the grid size.
_BLOCK_CELLS = 1 << 15

# Default pinned flying height of the fixed-height baseline, in metres.
DEFAULT_FIXED_HEIGHT = 100.0


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


def _merge_argmax(best, offset: int, block: np.ndarray):
    # fold one block into the running (flat index, value) maximum the way
    # np.argmax over the whole grid picks it: the first maximum in C order
    # wins, and the first NaN wins over every number
    import numpy as np

    k = int(np.argmax(block))
    v = float(block.flat[k])
    if best is None or v > best[1] or (math.isnan(v) and not math.isnan(best[1])):
        return offset + k, v
    return best


def _block_buffers(n_rows: int, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    # numerator and denominator buffers for blocks of whole grid rows
    import numpy as np

    rows = max(1, min(n_rows, _BLOCK_CELLS // n_cols))
    return np.empty((rows, n_cols)), np.empty((rows, n_cols))


def _argmax_rows(g1, g2, p1, p2, pp, bufs, best, offset: int):
    """Running argmax of the SNR over gain rows (g1, g2) x power columns (p1, p2).

    The rows are swept in blocks written into the reused buffers bufs, so
    memory stays O(axis) at any grid size.  Each cell keeps the operand
    order of the full-grid expression: pp = p1*p2 gives the 2-D numerator
    (g1 g2)(p1 p2), pp = None the 3-D one ((g1 g2) p1) p2; the denominator
    is (g2 p2 + g1 p1) + 1 in both.
    """
    import numpy as np

    num_buf, den_buf = bufs
    rows = len(num_buf)
    for r0 in range(0, len(g1), rows):
        a1, a2 = g1[r0:r0 + rows, None], g2[r0:r0 + rows, None]
        num, den = num_buf[:len(a1)], den_buf[:len(a1)]
        np.multiply(a1, p1, out=num)
        np.multiply(a2, p2, out=den)
        np.add(den, num, out=den)
        np.add(den, 1.0, out=den)
        if pp is None:
            np.multiply(a1 * a2, p1, out=num)
            np.multiply(num, p2, out=num)
        else:
            np.multiply(a1 * a2, pp, out=num)
        np.divide(num, den, out=num)
        best = _merge_argmax(best, offset + r0 * len(p1), num)
    return best


def _grid_argmax_2d(scn: FreeSpaceScenario, xs: np.ndarray, ps: np.ndarray):
    """Grid index (ix, ip) and value of the SNR maximum over xs x ps."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        h_sq = scn.H * scn.H
        g1 = scn.beta1 / (h_sq + xs * xs)
        g2 = scn.beta2 / (h_sq + (scn.D - xs) * (scn.D - xs))
        p2 = scn.p_total - ps
        bufs = _block_buffers(len(xs), len(ps))
        k, v = _argmax_rows(g1, g2, ps, p2, ps * p2, bufs, None, 0)
    return np.unravel_index(k, (len(xs), len(ps))), v


def _grid_argmax_3d(scn: Atg3dScenario, xs: np.ndarray, hs: np.ndarray,
                    ps: np.ndarray):
    """Grid index (ix, ih, ip) and value of the SNR maximum over xs x hs x ps.

    One x-slice at a time: the slice's (h,) hop gains come from the
    S-curve gain of Al-Hourani et al. (IEEE WCL 2014), written out here
    independently of ``atg3d.hop_gains_3d``, which the oracle checks.
    """
    import numpy as np

    def env_gain(env, theta, r_sq):
        s = 1.0 / (1.0 + env.s_curve_a * np.exp(-env.s_curve_b * (theta - env.s_curve_a)))
        return env.gain_scale / r_sq * 10.0 ** (env.gain_exponent * s)

    bufs = _block_buffers(len(hs), len(ps))
    best = None
    with np.errstate(over="ignore", invalid="ignore"):
        p2 = scn.p_total - ps
        for ix, x in enumerate(xs):
            g1 = env_gain(scn.env1, np.degrees(np.arctan2(hs, x)), x * x + hs * hs)
            g2 = env_gain(scn.env2, np.degrees(np.arctan2(hs, scn.D - x)),
                          (scn.D - x) * (scn.D - x) + hs * hs)
            best = _argmax_rows(g1, g2, ps, p2, None, bufs, best,
                                ix * len(hs) * len(ps))
    k, v = best
    return np.unravel_index(k, (len(xs), len(hs), len(ps))), v


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
    import numpy as np

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
    axes = [np.linspace(lo, hi, n if points is None else points) for lo, hi, points in bounds]

    index, v_best = grid_argmax(scn, *axes)
    point = [float(axis[i]) for axis, i in zip(axes, index)]
    for k, (axis, (lo, hi, _)) in enumerate(zip(axes, bounds)):
        f = lambda t: snr(*point[:k], t, *point[k + 1:])
        point[k], v_best = _refine_axis(f, point[k], float(axis[1] - axis[0]), lo, hi,
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
