"""Joint power-split and placement solver for the inverse-square model.

Both blocks of the joint problem have closed forms: at a fixed position
the optimal power split maximising the end-to-end SNR spends the whole
budget and solves a quadratic, while at a fixed split the optimal ground
offset is a stationary point of a cubic (or a boundary of the allowed
band).  Alternating the two blocks yields a monotone SNR sequence.
"""

from __future__ import annotations

import math

from ._record import Record
from .channels import FreeSpaceScenario, freespace_gains
from .cubic import _merge_close, cubic_real_roots
from .fbl import BlocklengthParams, PowerSplit, af_snr, decoding_error_probability

# Stop rule of coordinate_ascent, shared by every alternating solver.
BCD_REL_TOL = 1e-9
BCD_MAX_ITERS = 50


class SolveResult(Record):
    """Outcome of a placement/power optimisation run.

    ``snr``/``error_prob`` are always recomputed from the returned
    placement and powers, and ``trace`` holds the per-iteration SNR of
    iterative solvers (single-entry for one-shot solvers); ``iterations``
    is its length.
    """

    __slots__ = ("solver", "x", "height", "powers", "snr", "error_prob", "iterations", "trace")
    _derived = ("iterations",)

    def __init__(self, solver: str, x: float, height: float, powers: PowerSplit, snr: float,
                 error_prob: float, trace: tuple[float, ...]):
        _set_solver(self, solver)
        _set_x(self, x)
        _set_height(self, height)
        _set_powers(self, powers)
        _set_snr(self, snr)
        _set_error_prob(self, error_prob)
        _set_iterations(self, len(trace))
        _set_trace(self, trace)


# called one by one, as PowerSplit's are: every solve builds a result
(_set_solver, _set_x, _set_height, _set_powers, _set_snr, _set_error_prob, _set_iterations,
 _set_trace) = SolveResult._setters


def coordinate_ascent(state, blocks):
    """Cycle the blocks over state until the SNR stalls.

    A state is (x, height, gains, powers), with gains the hop gains at
    (x, height), and each block maps a state to a state that is no worse.
    A cycle runs every block once, in order, and the loop stops once a
    cycle improves the SNR by at most BCD_REL_TOL relative, or after
    BCD_MAX_ITERS cycles.  Returns the final state, its SNR and the
    per-cycle SNR trace.
    """
    _, _, (h1, h2), powers = state
    gamma = af_snr(h1, h2, powers)
    trace: list[float] = []
    for _ in range(BCD_MAX_ITERS):
        for block in blocks:
            state = block(state)
        _, _, (h1, h2), powers = state
        new_gamma = af_snr(h1, h2, powers)
        trace.append(new_gamma)
        stalled = new_gamma - gamma <= BCD_REL_TOL * max(gamma, 1e-300)
        gamma = new_gamma
        if stalled:
            break
    return state, gamma, tuple(trace)


def power_block(p_total: float):
    """The exact power block of coordinate_ascent: it moves a state's powers
    to the SNR-optimal split of p_total at the state's gains."""

    def block(state):
        x, height, gains, _ = state
        h1, h2 = gains
        return x, height, gains, optimal_power_for_gains(h1, h2, p_total)

    return block


def optimal_power_for_gains(h1: float, h2: float, p_total: float) -> PowerSplit:
    """SNR-optimal power split for fixed hop gains, spending the full budget.

    With A = h1 - h2 and B = p_total h2 + 1 the maximiser is
    p1 = (sqrt(B (B + A p_total)) - B) / A; equal gains degenerate to an
    even split (the limit of the closed form).
    """
    if p_total <= 0.0:
        raise ValueError(f"power budget must be positive, got {p_total}")
    a = h1 - h2
    if abs(a) <= 1e-12 * h1:
        p1 = 0.5 * p_total
    else:
        b = p_total * h2 + 1.0
        p1 = (math.sqrt(b * (b + a * p_total)) - b) / a
        # min(max(p1, 0.0), p_total) without the calls: keeps -0.0 and NaN
        if p1 < 0.0:
            p1 = 0.0
        elif p1 > p_total:
            p1 = p_total
    return PowerSplit(p1, p_total - p1)


def cubic_location_candidates(scn: FreeSpaceScenario, powers: PowerSplit) -> list[float]:
    """Stationary points of the placement objective at a fixed power split.

    These are the real roots of 4 x^3 - 6 D x^2 + c x + d with
    c = 2 (D^2 + 2 H^2 + beta1 p1 + beta2 p2) and
    d = -2 D (H^2 + beta1 p1).  Roots are de-duplicated and sorted, but
    not filtered to the allowed band.
    """
    D, h_sq = scn.D, scn.H * scn.H
    w1, w2 = scn.beta1 * powers.p1, scn.beta2 * powers.p2
    c = 2.0 * (D * D + 2.0 * h_sq + w1 + w2)
    d = -2.0 * D * (h_sq + w1)
    roots = cubic_real_roots(4.0, -6.0 * D, c, d)
    return _merge_close(roots, 1e-9 * D) if len(roots) > 1 else roots


def optimal_location_given_power(scn: FreeSpaceScenario, powers: PowerSplit) -> float:
    """Best ground offset in [d1, d2] at a fixed power split.

    Compares the in-band stationary points against the band edges; when
    every stationary point is out of band the better edge wins.  Ties go
    to the smallest offset.  Minimising w2 D1(x) + w1 D2(x) + D1(x) D2(x),
    with D1 = H^2 + x^2, D2 = H^2 + (D-x)^2 and the power-weighted gains
    w_i = beta_i p_i, maximises the SNR at fixed powers.
    """
    D, d1, d2 = scn.D, scn.d1, scn.d2
    h_sq = scn.H * scn.H
    w1, w2 = scn.beta1 * powers.p1, scn.beta2 * powers.p2
    best_x = None
    best_obj = math.inf
    # the roots ascend, so the in-band ones come in ascending order
    # between the band edges
    for x in (d1, *cubic_location_candidates(scn, powers), d2):
        if d1 <= x <= d2:
            dist1 = h_sq + x * x
            dist2 = h_sq + (D - x) * (D - x)
            obj = w2 * dist1 + w1 * dist2 + dist1 * dist2
            if obj < best_obj:
                best_x, best_obj = x, obj
    return best_x


def bcd_solve(scn: FreeSpaceScenario, blk: BlocklengthParams) -> SolveResult:
    """Alternate the closed-form power and placement blocks until the SNR stalls.

    Starts from the band midpoint and an even split.  Each block is an
    exact maximiser, so the SNR trace is non-decreasing; iteration stops
    as ``coordinate_ascent`` says.
    """

    # the gains at x ride in the state, so each cycle evaluates them once,
    # after the placement block moves x
    H = scn.H

    def location_block(state):
        powers = state[3]
        x = optimal_location_given_power(scn, powers)
        return x, H, freespace_gains(scn, x), powers

    x = 0.5 * (scn.d1 + scn.d2)
    start = (x, H, freespace_gains(scn, x), PowerSplit.even(scn.p_total))
    (x, _, _, powers), gamma, trace = coordinate_ascent(
        start, (power_block(scn.p_total), location_block))
    eps = decoding_error_probability(gamma, blk)
    return SolveResult("bcd", x, H, powers, gamma, eps, trace)
