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

The two pinned cases are closed forms; the interior case (condition I)
needs the search unless the gains are equal.  Along its path the
surrogate is b1 b2 / F(p1) with the
convex F = H^2 (b2/p1 + b1/p2) + b1 b2 D^2 / (b1 p1 + b2 p2), so
high_snr_solve solves the pinned cases first and runs the search only
when the better of them does not beat an upper bound on condition I's
value.  The bound comes from F's tangent line at an end of condition I's
power range; only a strict win over it skips the search, so condition I
still wins ties and the chosen case is the one the full comparison picks.
"""

from __future__ import annotations

import math
from operator import attrgetter

from ._record import Record, set_field
from .channels import FreeSpaceScenario
from .fbl import BlocklengthParams, PowerSplit, decoding_error_probability
from .freespace import SolveResult, snr_at
from .search import golden_section_max

# Interval width target for the golden-section power search, relative to
# the power budget.
_POWER_SEARCH_RTOL = 1e-10

# _condition1_bound's range for the gains, powers and squared lengths it
# reads (2^-100 .. 2^100): every product and quotient it and gamma_tilde
# form from them is then a normal float with a relative rounding error.
_BOUND_MIN = 2.0 ** -100
_BOUND_MAX = 2.0 ** 100

_SURROGATE_VALUE = attrgetter("gamma_tilde")


class HighSnrCaseReport(Record):
    """One clamp case of the surrogate problem.

    condition is "I" (interior optimum), "II" (pinned at d1) or "III"
    (pinned at d2); case names the analytic branch taken.  gamma_tilde
    is the surrogate value at (x, powers).  Infeasible cases carry zero
    powers and feasible=False.
    """

    __slots__ = ("condition", "case", "x", "powers", "gamma_tilde", "feasible")

    def __init__(self, condition: str, case: str, x: float, powers: PowerSplit,
                 gamma_tilde: float, feasible: bool = True):
        set_field(self, "condition", condition)
        set_field(self, "case", case)
        set_field(self, "x", x)
        set_field(self, "powers", powers)
        set_field(self, "gamma_tilde", gamma_tilde)
        set_field(self, "feasible", feasible)


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
    return min(d * scn.beta2 * pt / ((scn.D - d) * scn.beta1 + d * scn.beta2), pt)


def _interior_power_range(scn: FreeSpaceScenario) -> tuple[float, float]:
    # the p1 range on which x_free(p1) stays inside [d1, d2]; empty if lo > hi
    return max(_crossing_power(scn, scn.d1), 0.0), _crossing_power(scn, scn.d2)


def solve_condition1(scn: FreeSpaceScenario) -> HighSnrCaseReport:
    """Interior case: the clamp is inactive and x tracks x_free(p1).

    Equal reference gains admit a closed form (an even split clamped to
    the feasible power interval); unequal gains leave a scalar convex
    problem solved by golden-section search.
    """
    pt = scn.p_total
    lo, hi = _interior_power_range(scn)
    if lo > hi:
        return HighSnrCaseReport(
            "I", "infeasible", 0.5 * (scn.d1 + scn.d2), PowerSplit(0.0, 0.0), 0.0,
            feasible=False,
        )

    if abs(scn.beta1 - scn.beta2) <= 1e-12 * max(scn.beta1, scn.beta2):
        case = "equal-beta"
        # surrogate reduces to maximising p1 (pt - p1) over [lo, hi]
        p1 = min(max(0.5 * pt, lo), hi)
    else:
        case = "unequal-beta"
        b1, b2 = scn.beta1, scn.beta2
        h_sq = scn.H * scn.H
        cross = b1 * b2 * (scn.D * scn.D)
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
        p1, _ = golden_section_max(neg_objective, lo, hi,
                                   tol=_POWER_SEARCH_RTOL * pt or math.ulp(0.0))

    powers = PowerSplit(p1, pt - p1)
    _, x = unconstrained_location(scn, powers)
    return HighSnrCaseReport(
        "I", case, x, powers, gamma_tilde(scn, x, powers)
    )


def _pinned_edge_case(
    scn: FreeSpaceScenario, condition: str, x_edge: float, p_lo: float, p_hi: float
) -> HighSnrCaseReport:
    """Maximise the surrogate over p1 in [p_lo, p_hi] with x pinned at a band edge.

    At fixed x the surrogate is b1 b2 p1 (pt - p1) / (K p1 + b2 D1 pt)
    with K = b1 D2 - b2 D1, which is concave in p1.  Matched cross gains
    (K = 0) reduce it to p1 (pt - p1); otherwise the stationary point
    p1 = pt sqrt(b2 D1) / (sqrt(b1 D2) + sqrt(b2 D1)) is clamped to
    [p_lo, p_hi].  This form of the root has no cancellation, whatever
    the ratio of the cross gains b1 D2 and b2 D1.
    """
    pt = scn.p_total
    h_sq = scn.H * scn.H
    cross1 = scn.beta1 * (h_sq + (scn.D - x_edge) * (scn.D - x_edge))
    cross2 = scn.beta2 * (h_sq + x_edge * x_edge)
    if abs(cross1 - cross2) <= 1e-12 * max(cross1, cross2):
        p1, case = 0.5 * pt, "matched-cross-gains"
    else:
        root2 = math.sqrt(cross2)
        p1, case = pt * root2 / (math.sqrt(cross1) + root2), "unmatched-cross-gains"
    p1 = min(max(p1, p_lo), p_hi)
    powers = PowerSplit(p1, pt - p1)
    return HighSnrCaseReport(condition, case, x_edge, powers, gamma_tilde(scn, x_edge, powers))


def solve_condition2(scn: FreeSpaceScenario) -> HighSnrCaseReport:
    """Left-edge case: x pinned at d1, feasible whenever x_free(p1) <= d1."""
    return _pinned_edge_case(scn, "II", scn.d1, 0.0, _crossing_power(scn, scn.d1))


def solve_condition3(scn: FreeSpaceScenario) -> HighSnrCaseReport:
    """Right-edge case: x pinned at d2, feasible whenever x_free(p1) >= d2."""
    return _pinned_edge_case(scn, "III", scn.d2, _crossing_power(scn, scn.d2), scn.p_total)


def _condition1_bound(scn: FreeSpaceScenario) -> float:
    """Upper bound on solve_condition1's gamma_tilde, or inf where none is certain.

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
    relative 1e-9, far above the rounding of F and of gamma_tilde.  An
    empty range (lo > hi, condition I infeasible) gives -inf.
    """
    pt, b1, b2 = scn.p_total, scn.beta1, scn.beta2
    h_sq, d_sq = scn.H * scn.H, scn.D * scn.D
    lo, hi = _interior_power_range(scn)
    if lo > hi:
        return -math.inf
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
    powers.  Condition I is solved only when the better pinned case does
    not beat _condition1_bound.
    """
    edges = [solve_condition2(scn), solve_condition3(scn)]
    best = max(edges, key=_SURROGATE_VALUE)
    if not best.gamma_tilde > _condition1_bound(scn):
        reports = [solve_condition1(scn), *edges]
        best = max((r for r in reports if r.feasible), key=_SURROGATE_VALUE)
    gamma = snr_at(scn, best.x, best.powers)
    eps = decoding_error_probability(gamma, blk)
    return SolveResult(
        "high-snr", best.x, scn.H, best.powers, gamma, eps, 1, (gamma,)
    )
