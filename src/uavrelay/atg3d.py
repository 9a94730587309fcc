"""Joint height/offset/power solver for the air-to-ground channel model.

The hop gains follow the elevation-angle model, so the SNR is no longer
rational in the relay position and the placement blocks lose their
closed forms.  Height and ground offset are therefore optimised with
guarded golden-section line searches, while the power block keeps the
closed form.  ``coordinate_ascent`` cycles the blocks power -> height ->
offset; the baselines cycle a subset of them.  The gains along the
current height line and offset line are kept, so each is evaluated once
per solve, and a line search that a solve repeats returns its kept
result; the outputs are the same floats as without either.
"""

from __future__ import annotations

import math

from .channels import Atg3dScenario
from .fbl import BlocklengthParams, PowerSplit, decoding_error_probability
from .freespace import SolveResult, coordinate_ascent, optimal_power_for_gains
from .search import line_search_max

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


def _gamma(scn: Atg3dScenario, x: float, height: float, powers: PowerSplit) -> float:
    # the SNR at one point (oracle polish); the callers manage the bounds
    h1, h2 = hop_gains_3d(scn, x, height)
    return (h1 * h2 * powers.p1 * powers.p2) / (h2 * powers.p2 + h1 * powers.p1 + 1.0)


def _span(scn: Atg3dScenario, axis: int) -> tuple[float, float]:
    # the box's bounds along one axis: 0 is the ground offset, 1 the height
    return (scn.h_min, scn.h_max) if axis else (scn.d1, scn.d2)


class _GainMemo:
    """Hop gains along the current line of each axis of one solve.

    Axis 0 is the ground offset x at a fixed height and axis 1 the height
    at a fixed x; ``lines[axis]`` holds the fixed coordinate and the gains
    keyed by the coordinate t along the line.  A line starts afresh when
    its fixed coordinate changes, holding only the point where it crosses
    the other line.  The gains do not depend on the powers, so a stored
    pair is exactly the pair that hop_gains_3d returns for that point.
    The SNR along a line uses _gamma's float expression, and a miss calls
    hop_gains_3d by its module global at call time, so a wrapper installed
    on it sees every real evaluation.
    """

    def __init__(self, scn: Atg3dScenario):
        self.scn = scn
        self.lines = [(None, {}), (None, {})]

    def _line(self, axis: int, fixed: float) -> dict:
        held, line = self.lines[axis]
        if fixed != held:
            t, across = self.lines[1 - axis]
            line = {t: across[fixed]} if fixed in across else {}
            self.lines[axis] = (fixed, line)
        return line

    def along(self, axis: int, fixed: float, powers: PowerSplit):
        """The SNR along one line as a function of t: at (t, fixed) on axis 0
        and at (fixed, t) on axis 1."""
        scn, line, p1, p2 = self.scn, self._line(axis, fixed), powers.p1, powers.p2

        def snr(t):
            gains = line.get(t)
            if gains is None:
                gains = line[t] = (hop_gains_3d(scn, fixed, t) if axis
                                   else hop_gains_3d(scn, t, fixed))
            h1, h2 = gains
            return (h1 * h2 * p1 * p2) / (h2 * p2 + h1 * p1 + 1.0)

        return snr

    def gains(self, x: float, height: float) -> tuple[float, float]:
        """The gains at one point, kept on the offset line."""
        line = self._line(0, height)
        pair = line.get(x)
        if pair is None:
            pair = line[x] = hop_gains_3d(self.scn, x, height)
        return pair


def _ascent_blocks(scn: Atg3dScenario):
    """The score and the power, height and offset blocks over states
    (x, height, powers), sharing one gain memo.

    The power block is exact.  The two line-search blocks only replace
    the incumbent coordinate when that does not lower the SNR, so any
    cycle of these blocks gives a non-decreasing trace.  A search's result
    depends only on its line and the powers (the bounds are the box's), so
    the blocks keep their results keyed by the axis, the fixed coordinate,
    p1 and p2, and a search that repeats returns the kept float.
    """
    memo = _GainMemo(scn)
    kept = {}

    def score(state):
        x, height, powers = state
        return memo.along(0, height, powers)(x)

    def power_block(state):
        x, height, _ = state
        return x, height, optimal_power_for_gains(*memo.gains(x, height), scn.p_total)

    def line_block(axis):
        # the block that moves state[axis] along the line through state
        lo, hi = _span(scn, axis)
        tol = LINE_SEARCH_RTOL * (hi - lo)

        def block(state):
            fixed, t, powers = state[1 - axis], state[axis], state[2]
            snr = memo.along(axis, fixed, powers)
            key = (axis, fixed, powers.p1, powers.p2)
            best = kept.get(key)
            if best is None:
                # read at call time: a wrapper on this module's global sees every search
                best = kept[key] = line_search_max(snr, lo, hi, tol)[0]
            if snr(best) >= snr(t):
                return (fixed, best, powers) if axis else (best, fixed, powers)
            return state

        return block

    return score, power_block, line_block(1), line_block(0)


def _ascend(blk: BlocklengthParams, solver: str, score, state, blocks) -> SolveResult:
    """Run coordinate_ascent from state (x, height, powers) over the given blocks."""
    (x, height, powers), gamma, trace = coordinate_ascent(score, state, blocks)
    eps = decoding_error_probability(gamma, blk)
    return SolveResult(solver, x, height, powers, gamma, eps, trace)


def bcd_solve_3d(scn: Atg3dScenario) -> SolveResult:
    """Cycle power, height and offset blocks until the SNR stalls.

    Starts from the box midpoint and an even split; the trace is
    non-decreasing (see ``_ascent_blocks``).
    """
    start = (0.5 * (scn.d1 + scn.d2), 0.5 * (scn.h_min + scn.h_max),
             PowerSplit.even(scn.p_total))
    score, *blocks = _ascent_blocks(scn)
    return _ascend(scn.blk, "bcd", score, start, blocks)
