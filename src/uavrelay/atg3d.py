"""Joint height/offset/power solver for the air-to-ground channel model.

The hop gains follow the elevation-angle model, so the SNR is no longer
rational in the relay position and the placement blocks lose their
closed forms.  Height and ground offset are therefore optimised with
guarded golden-section line searches, while the power block keeps the
closed form.  ``coordinate_ascent`` cycles the blocks power -> height ->
offset over states (x, height, gains, powers); the baselines cycle a
subset of them.  Each line-search block builds its pre-sample grid once,
keeps the gains along its current line, so each is evaluated once per
solve, scores each search's pre-sample from the gains it keeps at the
grid's points, and keeps each line search's point and SNR, so a search
that a solve repeats returns them; the outputs are the same floats as
without any of these.
"""

from __future__ import annotations

import math

from .channels import Atg3dScenario
from .fbl import BlocklengthParams, PowerSplit, decoding_error_probability
from .freespace import SolveResult, coordinate_ascent, power_block
from .search import PRESAMPLES, _linspace, line_search_max

# Line-search interval target relative to the searched span.
LINE_SEARCH_RTOL = 1e-4
# radians to degrees: the double that math.degrees multiplies by
_DEGREES = 180.0 / math.pi


def hop_gains_3d(scn: Atg3dScenario, x: float, height: float) -> tuple[float, float]:
    """Noise-normalised hop gains for a relay at (x, height).

    The one scalar evaluation of the air-to-ground gain and the hot path
    of every 3-D solver: hop i sees the relay under the elevation angle
    theta_i = atan(height / ground offset_i) in degrees at slant distance
    r_i, and its gain is gain_scale / r_i^2 * 10^(gain_exponent * P_los),
    with P_los the S-curve 1 / (1 + a exp(-b (theta_i - a))).

    Raises:
        ValueError: when height is not positive (or NaN), or x lies
            outside the ground segment [0, D].
    """
    D, a1, b1, scale1, exponent1, a2, b2, scale2, exponent2 = scn.gain_constants
    if not (height > 0.0):
        raise ValueError(f"height must be positive, got {height}")
    if not (0.0 <= x <= D):
        raise ValueError(f"x = {x} outside the ground segment [0, {D}]")
    # height > 0 and x in [0, D] keep both angles inside (0, 90] degrees
    x2 = D - x
    theta1 = math.atan2(height, x) * _DEGREES
    theta2 = math.atan2(height, x2) * _DEGREES
    r1 = math.hypot(x, height)
    r2 = math.hypot(x2, height)
    try:
        s1 = 1.0 / (1.0 + a1 * math.exp(-b1 * (theta1 - a1)))
        s2 = 1.0 / (1.0 + a2 * math.exp(-b2 * (theta2 - a2)))
    except OverflowError:
        # exp(z), z = -b (theta - a), leaves the double range past z = 709.78,
        # where P_los < 1 / (a e^709.78): such a hop takes the limit P_los = 0
        s1, s2 = (0.0 if z > 709.78 else 1.0 / (1.0 + a * math.exp(z))
                  for a, z in ((a1, -b1 * (theta1 - a1)), (a2, -b2 * (theta2 - a2))))
    return (
        scale1 / (r1 * r1) * 10.0 ** (exponent1 * s1),
        scale2 / (r2 * r2) * 10.0 ** (exponent2 * s2),
    )


def _span(scn: Atg3dScenario, axis: int) -> tuple[float, float]:
    # the box's bounds along one axis: 0 is the ground offset, 1 the height
    return (scn.h_min, scn.h_max) if axis else (scn.d1, scn.d2)


def _line_block(scn: Atg3dScenario, axis: int):
    """The block that moves state[axis] of a state (x, height, gains, powers)
    along the line through it: axis 0 is the ground offset x at a fixed
    height, axis 1 the height at a fixed x.

    The block keeps the gains along its current line, keyed by the
    coordinate t along it; a new line starts with the state's point.  The
    gains do not depend on the powers, so a kept pair is exactly the pair
    that hop_gains_3d returns for that point, and a miss calls hop_gains_3d
    by its module global at call time, so a wrapper installed on it sees
    every real evaluation.  Every search spans the box along the axis, so
    the block builds the pre-sample grid once, when it is created.  On a
    line's first search it also keeps the gain pairs at the grid's points,
    filled in grid order through the line's gains, and every search on the
    line scores its pre-sample from those pairs for its powers and hands
    the values to line_search_max, which calls the objective only off the
    grid.  A
    search's result depends only on its line and the powers, so the block
    keeps the point and SNR each search returns, with the gains there,
    keyed by the fixed coordinate, p1 and p2; a search that repeats returns
    the kept result, and the kept SNR is compared with the incumbent's
    without scoring the point again.  The block only replaces the incumbent
    coordinate when that does not lower the SNR, so any cycle of it and the
    exact power block gives a non-decreasing trace.
    """
    lo, hi = _span(scn, axis)
    tol = LINE_SEARCH_RTOL * (hi - lo)
    xs = _linspace(lo, hi, PRESAMPLES)
    # the grid's first point is 0.0 + lo, which drops the sign of a -0.0 bound
    xs[0] = lo
    held, line, pairs = None, {}, None
    kept = {}

    def block(state):
        nonlocal held, line, pairs
        fixed, t, gains, powers = state[1 - axis], state[axis], state[2], state[3]
        if fixed != held:
            held, line, pairs = fixed, {t: gains}, None
        p1, p2 = powers.p1, powers.p2

        def snr(s):
            pair = line.get(s)
            if pair is None:
                pair = line[s] = (hop_gains_3d(scn, fixed, s) if axis
                                  else hop_gains_3d(scn, s, fixed))
            h1, h2 = pair
            return (h1 * h2 * p1 * p2) / (h2 * p2 + h1 * p1 + 1.0)

        key = (fixed, p1, p2)
        found = kept.get(key)
        if found is None:
            if pairs is None:
                for s in xs:
                    if s not in line:
                        line[s] = (hop_gains_3d(scn, fixed, s) if axis
                                   else hop_gains_3d(scn, s, fixed))
                pairs = [line[s] for s in xs]
            vals = [(h1 * h2 * p1 * p2) / (h2 * p2 + h1 * p1 + 1.0) for h1, h2 in pairs]
            # read at call time: a wrapper on this module's global sees every search
            best, value = line_search_max(snr, xs, vals, tol)
            found = kept[key] = (best, value, line[best])
        best, value, pair = found
        if value >= snr(t):
            return (fixed, best, pair, powers) if axis else (best, fixed, pair, powers)
        return state

    return block


def _ascend(scn: Atg3dScenario, blk: BlocklengthParams, solver: str, height: float,
            blocks) -> SolveResult:
    """Run coordinate_ascent over the given blocks from the offset band's
    centre at the given height, with an even split."""
    x = 0.5 * (scn.d1 + scn.d2)
    start = (x, height, hop_gains_3d(scn, x, height), PowerSplit.even(scn.p_total))
    (x, height, _, powers), gamma, trace = coordinate_ascent(start, blocks)
    eps = decoding_error_probability(gamma, blk)
    return SolveResult(solver, x, height, powers, gamma, eps, trace)


def bcd_solve_3d(scn: Atg3dScenario) -> SolveResult:
    """Cycle power, height and offset blocks until the SNR stalls.

    Starts from the box midpoint and an even split; the trace is
    non-decreasing (see ``_line_block``).
    """
    return _ascend(scn, scn.blk, "bcd", 0.5 * (scn.h_min + scn.h_max),
                   (power_block(scn.p_total), _line_block(scn, 1), _line_block(scn, 0)))
