"""One-shot solver built on the high-SNR surrogate of the relay SNR.

Dropping the +1 noise term of the AF denominator gives the surrogate

    gamma~ = b1 b2 p1 p2 / (b2 p2 (H^2 + x^2) + b1 p1 (H^2 + (D-x)^2))

which never underestimates the true value (gamma~ >= gamma).  At fixed
powers the surrogate peaks at x_free = D b1 p1 / (b1 p1 + b2 p2); clamping
x_free to the allowed band [d1, d2] splits the joint problem into three
cases (x_free interior, pinned left, pinned right), each with a concave or
convex one-dimensional power problem that is solved in closed form or
with a short golden-section search.  The best case by surrogate value is
re-scored with the exact SNR.

high_snr_solve decides in one pass.  It computes the crossing powers
at which x_free meets d1 and d2 once; they bound the p1 range of each
case.  It scores the two pinned cases, which are closed forms, and
solves the interior case (condition I) only when its range is non-empty
and the better pinned value does not strictly beat an upper bound on
condition I's value.  Along its path the surrogate is b1 b2 / F(p1) with
the convex F = H^2 (b2/p1 + b1/p2) + b1 b2 D^2 / (b1 p1 + b2 p2), and
the bound comes from F's tangent line at an end of the range.  Condition
I is solved by golden-section search unless the gains are equal.  It
still wins ties, so the chosen case is the one the full comparison picks.
"""

from __future__ import annotations

import math
import sys

from . import freespace
from .channels import FreeSpaceScenario
from .fbl import BlocklengthParams, PowerSplit, af_snr, decoding_error_probability
from .freespace import SolveResult
from .search import golden_section_max

# Interval width target for the golden-section power search, relative to
# the power budget.
_POWER_SEARCH_RTOL = 1e-10

# _condition1_bound's range for the gains, powers and squared lengths it
# reads (2^-100 .. 2^100): every product and quotient it and gamma_tilde
# form from them is then a normal float with a relative rounding error.
_BOUND_MIN = 2.0 ** -100
_BOUND_MAX = 2.0 ** 100


def gamma_tilde(scn: FreeSpaceScenario, x: float, powers: PowerSplit) -> float:
    """High-SNR surrogate of the end-to-end SNR at offset x."""
    h_sq = scn.H * scn.H
    dist1 = h_sq + x * x
    dist2 = h_sq + (scn.D - x) * (scn.D - x)
    den = scn.beta2 * powers.p2 * dist1 + scn.beta1 * powers.p1 * dist2
    if den == 0.0:
        return 0.0
    return scn.beta1 * scn.beta2 * powers.p1 * powers.p2 / den


def unconstrained_location(
    scn: FreeSpaceScenario, powers: PowerSplit
) -> tuple[float, float]:
    """Surrogate-optimal offset ignoring the band, and its clamp to [d1, d2].

    x_free = D b1 p1 / (b1 p1 + b2 p2); the surrogate is unimodal in x, so
    the clamp is optimal whenever x_free leaves the band.
    """
    weight = scn.beta1 * powers.p1 + scn.beta2 * powers.p2
    if weight == 0.0:
        x_free = 0.5 * scn.D
    else:
        x_free = scn.D * scn.beta1 * powers.p1 / weight
    return x_free, min(max(x_free, scn.d1), scn.d2)


def _crossing_power(scn: FreeSpaceScenario, d: float) -> float:
    # the p1 at which the unconstrained offset x_free(p1) crosses the band edge d,
    # at most p_total: on tiny budgets the quotient can round above it
    pt = scn.p_total
    d_b2 = d * scn.beta2
    den = (scn.D - d) * scn.beta1 + d_b2
    scale = 1.0
    if 0.0 < d_b2 < sys.float_info.min:
        # d b2 itself is subnormal and has lost bits: form it 2^64 times
        # larger, in the normal range (scaling d is exact), and take the
        # scale off the budget
        scale = 2.0 ** 64
        d_b2 = d * scale * scn.beta2
    if d_b2 * (pt / scale) < sys.float_info.min:
        # a subnormal numerator has lost bits; divide before scaling by the budget
        return min(pt * (d_b2 / den) / scale, pt)
    return min(d_b2 * (pt / scale) / den, pt)


def _condition1(
    scn: FreeSpaceScenario, lo: float, hi: float
) -> tuple[float, float, PowerSplit]:
    """Interior case on its non-empty power range [lo, hi]: x tracks x_free(p1).

    Equal reference gains admit a closed form (an even split clamped to
    the range); unequal gains leave a scalar convex problem solved by
    golden-section search.  Returns (gamma_tilde, x, powers).
    """
    pt = scn.p_total
    if abs(scn.beta1 - scn.beta2) <= 1e-12 * max(scn.beta1, scn.beta2):
        # surrogate reduces to maximising p1 (pt - p1) over [lo, hi]
        p1 = min(max(0.5 * pt, lo), hi)
    else:
        b1, b2 = scn.beta1, scn.beta2
        h_sq, d_sq = scn.H * scn.H, scn.D * scn.D
        cross = b1 * b2 * d_sq
        if cross < sys.float_info.min:
            # b1 b2 D^2 has lost bits or flushed to 0.  Where the lengths are
            # small, scale both terms of the objective up by the power of two
            # that brings max(H^2, D^2) to [0.5, 1); that is exact, so the
            # search makes the comparisons of the unscaled objective
            e = -math.frexp(max(h_sq, d_sq))[1]
            if e > 0:
                h_sq, cross = math.ldexp(h_sq, e), b1 * b2 * math.ldexp(d_sq, e)
        # On budgets near the bottom of the float range (below ~1e-300 W
        # at 50-60 dB gains) b1 b2 D^2 / s overflows at every p1 of the
        # range, and the search would see -inf everywhere.  The objective
        # is homogeneous of degree -1 in the powers, so there it is
        # evaluated at the powers divided by the budget; elsewhere unit is
        # 1.0, whose divisions are exact.
        widest = max(b1 * lo + b2 * (pt - lo), b1 * hi + b2 * (pt - hi))
        unit = pt if widest == 0.0 or math.isinf(cross / widest) else 1.0

        def neg_objective(p1: float) -> float:
            # minus the convex objective H^2 s / (p1 p2) + b1 b2 D^2 / s,
            # with s = b1 p1 + b2 p2, so the search maximises it directly
            p2 = (pt - p1) / unit
            p1 /= unit
            if p1 <= 0.0 or p2 <= 0.0:
                return -math.inf
            s = b1 * p1 + b2 * p2
            if s == 0.0:  # small gains times a small budget underflow to 0
                return -math.inf
            # p1 p2 underflows to 0 on budgets near 1e-200 W while the
            # objective stays finite; divide by one power at a time there
            pp = p1 * p2
            first = h_sq * s / pp if pp > 0.0 else h_sq * s / p1 / p2
            return -(first + cross / s)

        # below ~2.47e-314 W the relative tolerance underflows to 0
        p1, _ = golden_section_max(neg_objective, lo, hi, _POWER_SEARCH_RTOL * pt or math.ulp(0.0),
                                   neg_objective(lo), neg_objective(hi))

    powers = PowerSplit(p1, pt - p1)
    _, x = unconstrained_location(scn, powers)
    return gamma_tilde(scn, x, powers), x, powers


def _pinned_edge_case(
    scn: FreeSpaceScenario, x_edge: float, p_lo: float, p_hi: float
) -> tuple[float, float, PowerSplit]:
    """Maximise the surrogate over p1 in [p_lo, p_hi] with x pinned at a band edge.

    At fixed x the surrogate is b1 b2 p1 (pt - p1) / (K p1 + b2 D1 pt)
    with K = b1 D2 - b2 D1, which is concave in p1.  Matched cross gains
    (K = 0) reduce it to p1 (pt - p1); otherwise the stationary point
    p1 = pt sqrt(b2 D1) / (sqrt(b1 D2) + sqrt(b2 D1)) is clamped to
    [p_lo, p_hi].  This form of the root has no cancellation, whatever
    the ratio of the cross gains b1 D2 and b2 D1.  Returns
    (gamma_tilde, x_edge, powers).
    """
    pt = scn.p_total
    h_sq = scn.H * scn.H
    cross1 = scn.beta1 * (h_sq + (scn.D - x_edge) * (scn.D - x_edge))
    cross2 = scn.beta2 * (h_sq + x_edge * x_edge)
    if abs(cross1 - cross2) <= 1e-12 * max(cross1, cross2):
        p1 = 0.5 * pt
    else:
        root2 = math.sqrt(cross2)
        p1 = pt * root2 / (math.sqrt(cross1) + root2)
    p1 = min(max(p1, p_lo), p_hi)
    powers = PowerSplit(p1, pt - p1)
    return gamma_tilde(scn, x_edge, powers), x_edge, powers


def _condition1_bound(scn: FreeSpaceScenario, lo: float, hi: float) -> float:
    """Upper bound on condition I's gamma_tilde on [lo, hi], or inf where none is certain.

    F is convex on condition I's power range [lo, hi], so its tangent at
    either end lies below it there.  Where the tangent at lo rises into
    the range (F'(lo) >= 0), F >= F(lo) on it and b1 b2 / F(lo) bounds the
    surrogate; likewise at hi with F'(hi) <= 0.  Otherwise F has an
    interior minimum and condition I wins: each pinned case is concave in
    p1 and meets condition I's path at its end of the range with the same
    slope, so it peaks there, at b1 b2 / F(lo) or b1 b2 / F(hi).  The bound
    is then inf, and so it is for a slope within its rounding allowance of
    0 and for any input outside [_BOUND_MIN, _BOUND_MAX], where products
    could leave the normal float range.  The bound is widened by a
    relative 1e-9, far above the rounding of F and of gamma_tilde.
    """
    pt, b1, b2 = scn.p_total, scn.beta1, scn.beta2
    h_sq, d_sq = scn.H * scn.H, scn.D * scn.D
    for v in (b1, b2, h_sq, d_sq, pt, lo, pt - hi):
        if not _BOUND_MIN <= v <= _BOUND_MAX:
            return math.inf
    cross = b1 * b2 * d_sq
    for p1, inward in ((lo, 1.0), (hi, -1.0)):
        p2 = pt - p1
        s = b1 * p1 + b2 * p2
        # F'(p1) = H^2 (b1/p2^2 - b2/p1^2) - b1 b2 D^2 (b1 - b2) / s^2; its
        # three terms carry ~15 ulps of relative rounding between them
        rise, fall, pull = h_sq * b1 / p2 / p2, h_sq * b2 / p1 / p1, cross * (b1 - b2) / s / s
        if inward * (rise - fall - pull) >= 1e-13 * (rise + fall + abs(pull)):
            return b1 * b2 / (h_sq * (b2 / p1 + b1 / p2) + cross / s) * (1.0 + 1e-9)
    return math.inf


def high_snr_solve(scn: FreeSpaceScenario, blk: BlocklengthParams) -> SolveResult:
    """Pick the best of the three clamp cases and re-score it exactly.

    The winning case maximises the surrogate (the first of conditions I,
    II, III on a tie); the reported SNR and error probability are
    recomputed from the exact AF expression at the winning placement and
    powers.  Condition I's power range runs between the crossing powers
    of d1 and d2; it is solved only when that range is non-empty and the
    better pinned case does not beat _condition1_bound.
    """
    lo, hi = _crossing_power(scn, scn.d1), _crossing_power(scn, scn.d2)
    left = _pinned_edge_case(scn, scn.d1, 0.0, lo)
    right = _pinned_edge_case(scn, scn.d2, hi, scn.p_total)
    best = right if right[0] > left[0] else left
    if lo <= hi and not best[0] > _condition1_bound(scn, lo, hi):
        best = _condition1(scn, lo, hi)
        for case in (left, right):  # only a strict win displaces condition I
            if case[0] > best[0]:
                best = case
    _, x, powers = best
    # by the module attribute, so a wrapper set on it sees the call
    h1, h2 = freespace.freespace_gains(scn, x)
    gamma = af_snr(h1, h2, powers)
    eps = decoding_error_probability(gamma, blk)
    return SolveResult("high-snr", x, scn.H, powers, gamma, eps, (gamma,))
