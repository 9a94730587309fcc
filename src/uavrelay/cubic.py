"""Closed-form real roots of depressed cubics t^3 + rho t + kappa = 0.

The discriminant 4 rho^3 + 27 kappa^2 decides the branch: positive with
rho < 0 gives a single root in hyperbolic-cosine form, rho > 0 a single
root in hyperbolic-sine form, and a non-positive discriminant three real
roots in trigonometric form.
"""

from __future__ import annotations

import math

# Relative tolerance for treating the discriminant as zero.  Borderline
# repeated-root cases are routed to the trigonometric branch, whose arccos
# argument is clamped to [-1, 1]; callers de-duplicate near-equal roots.
BOUNDARY_RTOL = 1e-9


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
    out = [roots[0]]
    for r in roots[1:]:
        if r - out[-1] > tol:
            out.append(r)
    return out


def depressed_real_roots(rho: float, kappa: float) -> list[float]:
    """All real roots of t^3 + rho t + kappa = 0, ascending.

    Returns one root when the discriminant is positive, three otherwise.
    On the repeated-root boundary the near-equal pair collapses to a
    single entry, so a double root shows up once.

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
    disc = 4.0 * rho_cubed + 27.0 * kappa * kappa
    # abs(rho ** 3) is abs(rho) ** 3 bit for bit: the cube is odd
    scale = max(abs(rho_cubed), kappa * kappa)
    if scale == 0.0:
        return [0.0]
    if abs(disc) <= BOUNDARY_RTOL * scale and rho < 0.0:
        # |disc| <= tol * scale forces a root pair within ~1e-4 of the
        # root radius, so this merge only ever collapses that pair
        radius = 2.0 * math.sqrt(-rho / 3.0)
        return _merge_close(_three_real(rho, kappa), 1e-4 * radius)
    if rho == 0.0:
        return [_cbrt(-kappa)]
    if disc > 0.0 and rho < 0.0:
        arg = max(1.0, -3.0 * abs(kappa) / (2.0 * rho) * math.sqrt(-3.0 / rho))
        t = -2.0 * math.copysign(1.0, kappa) * math.sqrt(-rho / 3.0) \
            * math.cosh(math.acosh(arg) / 3.0)
        return [t]
    if rho > 0.0:
        arg = 3.0 * kappa / (2.0 * rho) * math.sqrt(3.0 / rho)
        return [-2.0 * math.sqrt(rho / 3.0) * math.sinh(math.asinh(arg) / 3.0)]
    return _three_real(rho, kappa)


def cubic_real_roots(a: float, b: float, c: float, d: float) -> list[float]:
    """Real roots of a x^3 + b x^2 + c x + d = 0 with a != 0, ascending.

    Depresses the cubic with the shift x = t - b/(3a) and applies
    ``depressed_real_roots``.
    """
    if a == 0.0:
        raise ValueError("leading coefficient must be non-zero")
    rho = (3.0 * a * c - b * b) / (3.0 * a * a)
    kappa = (2.0 * b ** 3 - 9.0 * a * b * c + 27.0 * a * a * d) / (27.0 * a ** 3)
    shift = -b / (3.0 * a)
    # rounded addition of one shift never reverses two roots, so they stay ascending
    return [t + shift for t in depressed_real_roots(rho, kappa)]
