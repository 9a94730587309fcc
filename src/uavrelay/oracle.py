"""Brute-force reference search and the simple baseline schemes.

The exhaustive search evaluates the exact end-to-end SNR on a dense
grid (vectorised with numpy, in fixed-size blocks so memory does not
grow with the grid) and polishes the best cell with one local
golden-section refinement per axis.  It exists to check the analytic
solvers, so it deliberately avoids their closed forms.  The baselines
pin one decision variable (placement or power split) and optimise the
rest, mirroring the usual comparison schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atg3d import Atg3dScenario, _ascend, _ascent_blocks, _gamma, hop_gains_3d
from .channels import FreeSpaceScenario
from .fbl import BlocklengthParams, PowerSplit, decoding_error_probability
from .freespace import (
    SolveResult,
    optimal_location_given_power,
    optimal_power_for_gains,
    optimal_power_given_x,
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
    """Step sizes for the exhaustive search.

    Each axis spans the scenario bounds (the full power budget for p1);
    unset steps spread the default point count over the axis.
    """

    x_step: float | None = None
    p1_step: float | None = None
    h_step: float | None = None

    def __post_init__(self):
        for name, step in (("x_step", self.x_step), ("p1_step", self.p1_step),
                           ("h_step", self.h_step)):
            if step is not None and not (step > 0.0 and math.isfinite(step)):
                raise ValueError(f"{name} must be positive and finite, got {step}")

    @classmethod
    def with_points(
        cls,
        scn: "FreeSpaceScenario | Atg3dScenario",
        x: int | None = None,
        p1: int | None = None,
        h: int | None = None,
    ) -> "GridSpec":
        """Spec from per-axis point counts over the full scenario ranges."""

        def step_for(n, bounds):
            if n is None:
                return None
            if n < 2:
                raise ValueError(f"need at least 2 points per axis, got {n}")
            return (bounds[1] - bounds[0]) / (n - 1)

        if h is not None and not isinstance(scn, Atg3dScenario):
            raise ValueError("height axis only applies to the air-to-ground model")
        return cls(
            x_step=step_for(x, (scn.d1, scn.d2)),
            p1_step=step_for(p1, (0.0, scn.p_total)),
            h_step=None if h is None else step_for(h, (scn.h_min, scn.h_max)),
        )


def _axis(step, bounds, default_points) -> np.ndarray:
    lo, hi = bounds
    if step is None:
        n = default_points
    else:
        n = max(2, int(round((hi - lo) / step)) + 1)
    return np.linspace(lo, hi, n)


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
    k = int(np.argmax(block))
    v = float(block.flat[k])
    if best is None or v > best[1] or (math.isnan(v) and not math.isnan(best[1])):
        return offset + k, v
    return best


def _block_buffers(n_rows: int, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    # numerator and denominator buffers for blocks of whole grid rows
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
    independently of the scalar channel helpers the oracle checks.
    """

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

    Grid ties are broken towards the lexicographically smallest index
    (x-major order), which makes the result deterministic.
    """
    blk = _resolve_blk(scn, blk)
    if grid is None:
        grid = GridSpec()
    if isinstance(scn, Atg3dScenario):
        return _exhaustive_3d(scn, blk, grid)
    return _exhaustive_2d(scn, blk, grid)


def _exhaustive_2d(
    scn: FreeSpaceScenario, blk: BlocklengthParams, grid: GridSpec
) -> SolveResult:
    xs = _axis(grid.x_step, (scn.d1, scn.d2), DEFAULT_POINTS_2D)
    ps = _axis(grid.p1_step, (0.0, scn.p_total), DEFAULT_POINTS_2D)

    (ix, ip), v_best = _grid_argmax_2d(scn, xs, ps)
    x_best, p_best = float(xs[ix]), float(ps[ip])

    f = lambda x: snr_at(scn, x, PowerSplit(p_best, scn.p_total - p_best))
    x_best, v_best = _refine_axis(f, x_best, float(xs[1] - xs[0]), scn.d1, scn.d2,
                                  (x_best, v_best))
    f = lambda p: snr_at(scn, x_best, PowerSplit(p, scn.p_total - p))
    p_best, v_best = _refine_axis(f, p_best, float(ps[1] - ps[0]), 0.0, scn.p_total,
                                  (p_best, v_best))

    powers = PowerSplit(p_best, scn.p_total - p_best)
    gamma = snr_at(scn, x_best, powers)
    eps = decoding_error_probability(gamma, blk)
    return SolveResult("exhaustive", x_best, scn.H, powers, gamma, eps, 1, (gamma,))


def _exhaustive_3d(
    scn: Atg3dScenario, blk: BlocklengthParams, grid: GridSpec
) -> SolveResult:
    xs = _axis(grid.x_step, (scn.d1, scn.d2), DEFAULT_POINTS_3D)
    hs = _axis(grid.h_step, (scn.h_min, scn.h_max), DEFAULT_POINTS_3D)
    ps = _axis(grid.p1_step, (0.0, scn.p_total), DEFAULT_POINTS_3D)

    (ix, ih, ip), v_best = _grid_argmax_3d(scn, xs, hs, ps)
    x_best, h_best, p_best = float(xs[ix]), float(hs[ih]), float(ps[ip])

    def powers_at(p):
        return PowerSplit(p, scn.p_total - p)

    f = lambda x: _gamma(scn, x, h_best, powers_at(p_best))
    x_best, v_best = _refine_axis(f, x_best, float(xs[1] - xs[0]), scn.d1, scn.d2,
                                  (x_best, v_best))
    f = lambda h: _gamma(scn, x_best, h, powers_at(p_best))
    h_best, v_best = _refine_axis(f, h_best, float(hs[1] - hs[0]), scn.h_min, scn.h_max,
                                  (h_best, v_best))
    f = lambda p: _gamma(scn, x_best, h_best, powers_at(p))
    p_best, v_best = _refine_axis(f, p_best, float(ps[1] - ps[0]), 0.0, scn.p_total,
                                  (p_best, v_best))

    powers = powers_at(p_best)
    gamma = _gamma(scn, x_best, h_best, powers)
    eps = decoding_error_probability(gamma, blk)
    return SolveResult("exhaustive", x_best, h_best, powers, gamma, eps, 1, (gamma,))


def fixed_location_baseline(
    scn: FreeSpaceScenario | Atg3dScenario, blk: BlocklengthParams | None = None
) -> SolveResult:
    """Pin the relay placement (band/box midpoint) and optimise the power split."""
    blk = _resolve_blk(scn, blk)
    x = 0.5 * (scn.d1 + scn.d2)
    if isinstance(scn, Atg3dScenario):
        height = 0.5 * (scn.h_min + scn.h_max)
        powers = optimal_power_for_gains(*hop_gains_3d(scn, x, height), scn.p_total)
        gamma = _gamma(scn, x, height, powers)
    else:
        height = scn.H
        powers = optimal_power_given_x(scn, x)
        gamma = snr_at(scn, x, powers)
    eps = decoding_error_probability(gamma, blk)
    return SolveResult("fixed-location", x, height, powers, gamma, eps, 1, (gamma,))


def fixed_power_baseline(
    scn: FreeSpaceScenario | Atg3dScenario, blk: BlocklengthParams | None = None
) -> SolveResult:
    """Pin an even power split and optimise the placement."""
    blk = _resolve_blk(scn, blk)
    powers = PowerSplit.even(scn.p_total)
    if isinstance(scn, Atg3dScenario):
        _, height, offset = _ascent_blocks(scn)
        state = (0.5 * (scn.d1 + scn.d2), 0.5 * (scn.h_min + scn.h_max), powers)
        return _ascend(scn, blk, "fixed-power", state, (height, offset))
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
    power, _, offset = _ascent_blocks(scn)
    state = (0.5 * (scn.d1 + scn.d2), height, PowerSplit.even(scn.p_total))
    return _ascend(scn, blk, "fixed-height", state, (power, offset))
