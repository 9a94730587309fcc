"""Closed-form real roots of depressed cubics t^3 + rho t + kappa = 0.

The discriminant 4 rho^3 + 27 kappa^2 decides the branch: positive with
rho < 0 gives a single root in hyperbolic-cosine form, rho > 0 a single
root in hyperbolic-sine form, and a non-positive discriminant three real
roots in trigonometric form.
"""

from __future__ import annotations

import math
import sys

# Relative tolerance for treating the discriminant as zero.  Borderline
# repeated-root cases are routed to the trigonometric branch, whose arccos
# argument is clamped to [-1, 1]; callers de-duplicate near-equal roots.
BOUNDARY_RTOL = 1e-9

_NORMAL_MIN = sys.float_info.min
# Below this, 4 rho^3 + 27 kappa^2 stays inside the float range.
_DISC_SAFE_MAX = sys.float_info.max / 32
# cubic_real_roots polishes a root below this times the shift |b / (3a)|: the
# shift's rounding, up to 2^-53 of the shift, may then exceed 2^-37 of the root
_CANCELLED = 2.0 ** -16


def _cbrt(v: float) -> float:
    # math.cbrt only exists from 3.11 on
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def _three_real(rho: float, kappa: float) -> list[float]:
    radius = math.sqrt(-rho / 3.0)
    arg = 3.0 * kappa / (2.0 * rho) * math.sqrt(-3.0 / rho)
    arg = max(-1.0, min(1.0, arg))
    phi = math.acos(arg)
    roots = [2.0 * radius * math.cos(phi / 3.0 - 2.0 * math.pi * k / 3.0) for k in (0, 1, 2)]
    return sorted(roots)


def _merge_close(roots: list[float], tol: float) -> list[float]:
    # the ascending roots less each one within tol above the last one kept
    out = [roots[0]]
    for r in roots[1:]:
        if r - out[-1] > tol:
            out.append(r)
    return out


def depressed_real_roots(rho: float, kappa: float) -> list[float]:
    """All real roots of t^3 + rho t + kappa = 0, ascending.

    Returns one root when the discriminant is positive, three otherwise.
    On the repeated-root boundary the near-equal pair collapses to a
    single entry, so a double root shows up once.  Where rho^3 and kappa^2
    both fall below the normal float range, or the larger is so large that
    the discriminant could overflow, the roots are found at a power-of-two
    scale and scaled back.

    Raises:
        ValueError: when a coefficient is not finite, or rho^3 overflows.
    """
    if not (math.isfinite(rho) and math.isfinite(kappa)):
        raise ValueError(f"cubic coefficients must be finite, got rho={rho}, kappa={kappa}")
    try:
        rho_cubed = rho ** 3
    except OverflowError:
        raise ValueError(f"cubic coefficients overflow: rho={rho} cubed exceeds the "
                         f"float range (kappa={kappa})") from None
    kappa_sq = kappa * kappa
    # max(abs(rho ** 3), kappa ** 2); abs(rho ** 3) is abs(rho) ** 3 bit for bit
    scale = -rho_cubed if rho_cubed < 0.0 else rho_cubed
    if kappa_sq >= scale:
        scale = kappa_sq
    if scale < _NORMAL_MIN or scale > _DISC_SAFE_MAX:
        if rho == 0.0 and kappa == 0.0:
            return [0.0]
        # rho^3 and kappa^2 have lost bits or flushed to 0, or kappa^2 or
        # the discriminant may overflow: solve for u = t / 2^k, whose
        # coefficients rho / 4^k and kappa / 8^k are exact (bar a rho too
        # small to matter), with 2^k near the larger root size |rho|^(1/2),
        # |kappa|^(1/3) (a zero coefficient leaves k to the other)
        k = max(math.frexp(rho)[1] // 2 if rho else -1075,
                math.frexp(kappa)[1] // 3 if kappa else -1075)
        return [math.ldexp(u, k)
                for u in depressed_real_roots(math.ldexp(rho, -2 * k), math.ldexp(kappa, -3 * k))]
    if rho < 0.0:
        disc = 4.0 * rho_cubed + 27.0 * kappa * kappa
        if abs(disc) <= BOUNDARY_RTOL * scale:
            # |disc| <= tol * scale forces a root pair within ~1e-4 of the
            # root radius, so this merge only ever collapses that pair
            radius = 2.0 * math.sqrt(-rho / 3.0)
            return _merge_close(_three_real(rho, kappa), 1e-4 * radius)
        if disc > 0.0:
            # one root, of the sign opposite to kappa's (disc > 0 needs kappa != 0)
            kappa_abs = kappa if kappa > 0.0 else -kappa
            arg = -3.0 * kappa_abs / (2.0 * rho) * math.sqrt(-3.0 / rho)
            t = 2.0 * math.sqrt(-rho / 3.0) * math.cosh(math.acosh(max(1.0, arg)) / 3.0)
            return [-t] if kappa > 0.0 else [t]
        return _three_real(rho, kappa)
    if rho == 0.0:
        return [_cbrt(-kappa)]
    arg = 3.0 * kappa / (2.0 * rho) * math.sqrt(3.0 / rho)
    return [-2.0 * math.sqrt(rho / 3.0) * math.sinh(math.asinh(arg) / 3.0)]


def cubic_real_roots(a: float, b: float, c: float, d: float) -> list[float]:
    """Real roots of a x^3 + b x^2 + c x + d = 0 with a != 0, ascending.

    Depresses the cubic with the shift x = t - b/(3a), applies
    ``depressed_real_roots`` and polishes a root that the shift cancels.
    """
    if a == 0.0:
        raise ValueError("leading coefficient must be non-zero")
    rho = (3.0 * a * c - b * b) / (3.0 * a * a)
    kappa = (2.0 * b ** 3 - 9.0 * a * b * c + 27.0 * a * a * d) / (27.0 * a ** 3)
    shift = -b / (3.0 * a)
    roots = depressed_real_roots(rho, kappa)
    reach = _CANCELLED * abs(shift)
    # rounded addition of one shift never reverses two roots, so they stay ascending
    xs = [roots[0] + shift] if len(roots) == 1 else [t + shift for t in roots]
    if xs[0] < reach and xs[-1] > -reach:  # a root may lie in (-reach, reach)
        return _polish(a, b, c, d, xs, reach)
    return xs


def _polish(a: float, b: float, c: float, d: float, xs: list[float], reach: float) -> list[float]:
    # xs, each root below reach refined by Newton steps in Horner form from -d / c,
    # the linear part's root; a refined root within reach and no worse stands
    cubic = lambda v: ((a * v + b) * v + c) * v + d
    for i, x in enumerate(xs):
        if abs(x) < reach:
            y = -d / c if c else x
            for _ in range(8):
                slope = (3.0 * a * y + 2.0 * b) * y + c
                y -= cubic(y) / slope if slope else 0.0
            if abs(y - x) <= reach and abs(cubic(y)) <= abs(cubic(x)):
                xs[i] = y
    return sorted(xs)
