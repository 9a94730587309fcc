"""Joint height/offset/power solver for the air-to-ground channel model.

The hop gains follow the elevation-angle model, so the SNR is no longer
rational in the relay position and the placement blocks lose their
closed forms.  Height and ground offset are therefore optimised with
guarded golden-section line searches (with a finite-difference bisection
available as a cross-check), while the power block keeps the closed
form.  Blocks are cycled power -> height -> offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channels import AtgEnvironment, Placement
from .fbl import BlocklengthParams, PowerSplit, af_snr, decoding_error_probability
from .freespace import BCD_MAX_ITERS, BCD_REL_TOL, SolveResult, optimal_power_for_gains
from .search import derivative_bisection_max, line_search_max

# Line-search interval target relative to the searched span.
LINE_SEARCH_RTOL = 1e-4


@dataclass(frozen=True)
class Atg3dScenario:
    """Geometry, environments and budgets for the air-to-ground model.

    The relay may fly anywhere in [d1, d2] x [h_min, h_max]; env1/env2
    describe the source->relay and relay->destination hops.
    """

    D: float
    d1: float
    d2: float
    h_min: float
    h_max: float
    env1: AtgEnvironment
    env2: AtgEnvironment
    p_total: float
    blk: BlocklengthParams

    def __post_init__(self):
        if not (self.D > 0.0 and math.isfinite(self.D)):
            raise ValueError(f"D must be positive and finite, got {self.D}")
        if not (0.0 <= self.d1 < self.d2 <= self.D):
            raise ValueError(
                f"offset bounds must satisfy 0 <= d1 < d2 <= D, got d1={self.d1}, "
                f"d2={self.d2}, D={self.D}"
            )
        if not (0.0 < self.h_min < self.h_max):
            raise ValueError(
                f"height bounds must satisfy 0 < h_min < h_max, got "
                f"h_min={self.h_min}, h_max={self.h_max}"
            )
        if not (self.p_total > 0.0 and math.isfinite(self.p_total)):
            raise ValueError(f"p_total must be positive and finite, got {self.p_total}")


def hop_gains_3d(scn: Atg3dScenario, x: float, height: float) -> tuple[float, float]:
    """Noise-normalised hop gains for a relay at (x, height).

    The hot path of every 3-D solver.  It inlines elevation_angles,
    slant_distances and atg_normalized_gain with the same float
    expressions in the same order, so it returns exactly what their
    composition returns.

    Raises:
        ValueError: when height is not positive (or NaN), or x lies
            outside the ground segment [0, D].
    """
    D = scn.D
    if not (height > 0.0):
        raise ValueError(f"height must be positive, got {height}")
    if not (0.0 <= x <= D):
        raise ValueError(f"x = {x} outside the ground segment [0, {D}]")
    # height > 0 and x in [0, D] keep both angles inside (0, 90] degrees
    x2 = D - x
    env1, env2 = scn.env1, scn.env2
    theta1 = math.degrees(math.atan2(height, x))
    theta2 = math.degrees(math.atan2(height, x2))
    r1 = math.hypot(x, height)
    r2 = math.hypot(x2, height)
    a, b = env1.s_curve_a, env1.s_curve_b
    s1 = 1.0 / (1.0 + a * math.exp(-b * (theta1 - a)))
    a, b = env2.s_curve_a, env2.s_curve_b
    s2 = 1.0 / (1.0 + a * math.exp(-b * (theta2 - a)))
    return (
        env1.gain_scale / (r1 * r1) * 10.0 ** (env1.gain_exponent * s1),
        env2.gain_scale / (r2 * r2) * 10.0 ** (env2.gain_exponent * s2),
    )


def gamma_3d(scn: Atg3dScenario, placement: Placement, powers: PowerSplit) -> float:
    """End-to-end SNR for a relay placement under the air-to-ground model.

    Raises:
        ValueError: when the placement leaves the allowed box.
    """
    if not (scn.d1 <= placement.x <= scn.d2):
        raise ValueError(
            f"x = {placement.x} outside allowed band [{scn.d1}, {scn.d2}]"
        )
    if not (scn.h_min <= placement.height <= scn.h_max):
        raise ValueError(
            f"height = {placement.height} outside allowed band [{scn.h_min}, {scn.h_max}]"
        )
    h1, h2 = hop_gains_3d(scn, placement.x, placement.height)
    return af_snr(h1, h2, powers)


def _gamma(scn: Atg3dScenario, x: float, height: float, powers: PowerSplit) -> float:
    # hot path used by the line searches; bounds are managed by the callers
    h1, h2 = hop_gains_3d(scn, x, height)
    return (h1 * h2 * powers.p1 * powers.p2) / (h2 * powers.p2 + h1 * powers.p1 + 1.0)


def optimize_height(
    scn: Atg3dScenario, x: float, powers: PowerSplit, method: str = "golden"
) -> float:
    """Best flying height at fixed offset and powers.

    "golden" runs a guarded golden-section search over [h_min, h_max];
    "bisect" cross-checks it by bisecting the sign of a finite-difference
    derivative of the SNR.
    """
    tol = LINE_SEARCH_RTOL * (scn.h_max - scn.h_min)
    f = lambda height: _gamma(scn, x, height, powers)
    if method == "golden":
        return line_search_max(f, scn.h_min, scn.h_max, tol)[0]
    if method == "bisect":
        return derivative_bisection_max(f, scn.h_min, scn.h_max, tol)[0]
    raise ValueError(f"unknown method {method!r}; expected 'golden' or 'bisect'")


def optimize_x(
    scn: Atg3dScenario, height: float, powers: PowerSplit, method: str = "golden"
) -> float:
    """Best ground offset at fixed height and powers (same search modes)."""
    tol = LINE_SEARCH_RTOL * (scn.d2 - scn.d1)
    f = lambda x: _gamma(scn, x, height, powers)
    if method == "golden":
        return line_search_max(f, scn.d1, scn.d2, tol)[0]
    if method == "bisect":
        return derivative_bisection_max(f, scn.d1, scn.d2, tol)[0]
    raise ValueError(f"unknown method {method!r}; expected 'golden' or 'bisect'")


def bcd_solve_3d(
    scn: Atg3dScenario,
    placement0: Placement | None = None,
    powers0: PowerSplit | None = None,
    rel_tol: float = BCD_REL_TOL,
    max_cycles: int = BCD_MAX_ITERS,
) -> SolveResult:
    """Cycle power, height and offset blocks until the SNR stalls.

    The power block is exact; the two line-search blocks only replace the
    incumbent coordinate when they actually improve the SNR, so the trace
    is non-decreasing.  Defaults start from the box midpoint and an even
    split.

    Raises:
        ValueError: when the initial placement or powers are infeasible.
    """
    if placement0 is None:
        x = 0.5 * (scn.d1 + scn.d2)
        height = 0.5 * (scn.h_min + scn.h_max)
    else:
        x, height = placement0.x, placement0.height
        if not (scn.d1 <= x <= scn.d2) or not (scn.h_min <= height <= scn.h_max):
            raise ValueError(f"initial placement ({x}, {height}) outside the allowed box")
    if powers0 is None:
        powers = PowerSplit.even(scn.p_total)
    elif powers0.total > scn.p_total * (1.0 + 1e-12):
        raise ValueError(f"initial powers exceed the budget: {powers0.total} > {scn.p_total}")
    else:
        powers = powers0

    gamma = _gamma(scn, x, height, powers)
    trace: list[float] = []
    for _ in range(max_cycles):
        powers = optimal_power_for_gains(*hop_gains_3d(scn, x, height), scn.p_total)
        new_height = optimize_height(scn, x, powers)
        if _gamma(scn, x, new_height, powers) >= _gamma(scn, x, height, powers):
            height = new_height
        new_x = optimize_x(scn, height, powers)
        if _gamma(scn, new_x, height, powers) >= _gamma(scn, x, height, powers):
            x = new_x
        new_gamma = _gamma(scn, x, height, powers)
        trace.append(new_gamma)
        if new_gamma - gamma <= rel_tol * max(gamma, 1e-300):
            gamma = new_gamma
            break
        gamma = new_gamma

    eps = decoding_error_probability(gamma, scn.blk)
    return SolveResult("bcd", x, height, powers, gamma, eps, len(trace), tuple(trace))
