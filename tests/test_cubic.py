"""Closed-form cubic root extraction vs numpy's eigenvalue solver."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavrelay import FreeSpaceScenario, PowerSplit, cubic_location_candidates
from uavrelay.cubic import cubic_real_roots, depressed_real_roots


def numpy_real_roots(a, b, c, d, imag_tol=1e-7):
    roots = np.roots([a, b, c, d])
    scale = max(1.0, np.abs(roots).max())
    return sorted(float(r.real) for r in roots if abs(r.imag) <= imag_tol * scale)


def assert_root_sets_match(got, want, tol):
    assert len(got) == len(want), (got, want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=tol), (got, want)


def residual(a, b, c, d, x):
    return a * x**3 + b * x**2 + c * x + d


def test_single_real_root_cosh_branch():
    # t^3 + 3t - 36 = 0 has the lone real root t = 3 - 1/... check numerically
    roots = depressed_real_roots(3.0, -36.0)
    assert len(roots) == 1
    assert residual(1.0, 0.0, 3.0, -36.0, roots[0]) == pytest.approx(0.0, abs=1e-9)
    # negative rho but discriminant positive: single root via cosh
    roots = depressed_real_roots(-3.0, 36.0)
    assert len(roots) == 1
    assert residual(1.0, 0.0, -3.0, 36.0, roots[0]) == pytest.approx(0.0, abs=1e-9)


def test_three_real_roots_trig_branch():
    # (t-1)(t)(t+1) = t^3 - t
    roots = depressed_real_roots(-1.0, 0.0)
    assert_root_sets_match(roots, [-1.0, 0.0, 1.0], 1e-12)


def test_zero_rho():
    # t^3 = 8 -> t = 2
    roots = depressed_real_roots(0.0, -8.0)
    assert roots == [pytest.approx(2.0, rel=1e-14)]
    roots = depressed_real_roots(0.0, 8.0)
    assert roots == [pytest.approx(-2.0, rel=1e-14)]
    assert depressed_real_roots(0.0, 0.0) == [0.0]
    # kappa^2 flushes to 0, the cube root does not
    want = pytest.approx(-2.154434690031884e-57, rel=1e-15, abs=0.0)
    assert depressed_real_roots(0.0, 1e-170) == [want]


def test_double_root_boundary():
    # (t-1)^2 (t+2) = t^3 - 3t + 2, discriminant exactly zero
    roots = depressed_real_roots(-3.0, 2.0)
    assert_root_sets_match(roots, [-2.0, 1.0], 1e-7)


def test_near_double_root_stays_finite():
    # tiny perturbation off the double-root surface must not blow up
    for eps in (1e-13, -1e-13, 1e-10, -1e-10):
        roots = depressed_real_roots(-3.0, 2.0 + eps)
        assert all(math.isfinite(r) for r in roots)
        for r in roots:
            assert abs(residual(1.0, 0.0, -3.0, 2.0 + eps, r)) < 1e-6


# the exact roots on each branch, recorded from the library: the closed
# forms above are checked at a tolerance, this holds every bit
EXACT_ROOTS = {
    (-3.0, 36.0): [-3.604008539492461],  # one root, cosh form, kappa > 0
    (-3.0, -36.0): [3.604008539492461],  # one root, cosh form, kappa < 0
    (3.0, -36.0): [3.000000000000001],  # one root, sinh form
    (-7.0, 6.0): [-3.0000000000000004, 1.0000000000000013, 2.0],  # three real roots
    (-3.0, 2.0): [-2.0, 1.0000000000000002],  # double root, merged
    (0.0, -8.0): [2.0],  # rho = 0
    (0.0, 0.0): [0.0],  # rho = kappa = 0
}


@pytest.mark.parametrize("rho,kappa", EXACT_ROOTS)
def test_roots_keep_every_bit(rho, kappa):
    got = depressed_real_roots(rho, kappa)
    assert [r.hex() for r in got] == [r.hex() for r in EXACT_ROOTS[rho, kappa]]


@pytest.mark.parametrize("rho,kappa,message", [
    (math.nan, 1.0, "cubic coefficients must be finite, got rho=nan, kappa=1.0"),
    (1.0, math.inf, "cubic coefficients must be finite, got rho=1.0, kappa=inf"),
    (1e103, 1.0, "cubic coefficients overflow: rho=1e+103 cubed exceeds the float range "
                 "(kappa=1.0)"),
])
def test_refusals_state_the_cause(rho, kappa, message):
    with pytest.raises(ValueError) as exc:
        depressed_real_roots(rho, kappa)
    assert str(exc.value) == message


@pytest.mark.parametrize("rho,kappa,k", [
    (-1e-110, 1e-170, 180),  # three roots near 1e-55; rho^3 and kappa^2 flush to 0
    (-1e-110, 1e-167, 180),  # one root; both powers subnormal
    (1e-110, 1e-170, 180),  # one root, sinh form
    (-1e-110, 0.0, 180),
    (-5e-324, 5e-324, 500),
])
def test_roots_below_the_normal_range_scale_with_the_coefficients(rho, kappa, k):
    # t -> 2^k t maps the roots of t^3 + rho t + kappa to those of
    # t^3 + 4^k rho t + 8^k kappa; where rho^3 and kappa^2 are subnormal or
    # 0, the roots must still be the 2^-k-scaled roots of the copy in range
    want = [math.ldexp(r, -k) for r in
            depressed_real_roots(math.ldexp(rho, 2 * k), math.ldexp(kappa, 3 * k))]
    assert depressed_real_roots(rho, kappa) == want


def mp_real_roots(*coeffs):
    """Real roots of the cubic with these float coefficients (highest first),
    found at 50 digits and rounded to floats, ascending."""
    with mpmath.workdps(50):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in coeffs], maxsteps=400, extraprec=2000)
        return sorted(float(mpmath.re(r)) for r in roots
                      if abs(mpmath.im(r)) <= mpmath.mpf(10) ** -40 * abs(r))


def mp_root_near(x0, *coeffs):
    """The real root next to x0 of the cubic with these float coefficients
    (highest first), found by Newton's method at 60 digits and rounded to a
    float.  Unlike mp_real_roots, it keeps its relative accuracy on a root
    far smaller than the others."""
    with mpmath.workdps(60):
        # in z = x / x0, whose root is near 1, with the cubic scaled to
        # order 1 there, as findroot's tolerances are absolute
        a, b, c, d = (mpmath.mpf(v) for v in coeffs)
        u = mpmath.mpf(x0)
        a, b, c = a * u ** 3, b * u ** 2, c * u
        norm = abs(a) + abs(b) + abs(c) + abs(d)
        z = mpmath.findroot(lambda z: (((a * z + b) * z + c) * z + d) / norm, mpmath.mpf(1))
        return float(z * u)


@pytest.mark.parametrize("rho,kappa", [
    (-1e90, 1.25e155),  # kappa^2 overflows while rho^3 is finite
    (-5e102, 1.34e154),  # 4 rho^3 is -inf and 27 kappa^2 +inf: a NaN discriminant
])
def test_roots_where_the_discriminant_leaves_the_float_range(rho, kappa):
    # the roots come from a power-of-two rescaled copy, not from an
    # infinite or NaN discriminant
    want = mp_real_roots(1.0, 0.0, rho, kappa)
    got = depressed_real_roots(rho, kappa)
    assert len(want) == 1
    assert got == [pytest.approx(want[0], rel=2e-15)]


def test_placement_cubic_beyond_the_discriminant_range():
    # an accepted scenario whose placement cubic has kappa^2 = inf; its one
    # real root, ~1e-52, lies far below ulp(D/2), the rounding of the shift
    # x = t + D/2, and is polished on the cubic itself
    scn = FreeSpaceScenario(1e52, 1.0, 0.0, 1e52, 1.0, 0.999999e104, 1.0)
    powers = PowerSplit.even(1.0)
    w1, w2 = scn.beta1 * powers.p1, scn.beta2 * powers.p2
    c = 2.0 * (scn.D * scn.D + 2.0 + w1 + w2)
    d = -2.0 * scn.D * (1.0 + w1)
    assert len(mp_real_roots(4.0, -6.0 * scn.D, c, d)) == 1
    want = mp_root_near(-d / c, 4.0, -6.0 * scn.D, c, d)
    assert cubic_location_candidates(scn, powers) == [pytest.approx(want, rel=1e-14, abs=0.0)]


@settings(max_examples=200, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(-50.0, 45.0),
       st.one_of(st.floats(-2.0, -0.5), st.floats(0.5, 2.0)),
       st.floats(0.1, 2.0), st.floats(9.0, 60.0), st.booleans())
@example(1.0, 0.0, 1.0, 1.0, 9.0, False)
def test_one_tiny_root_survives_the_shift(a, scale_exp, u, v, tiny_exp, negative):
    # a (x - r)(x^2 - 2 s u x + s^2 (u^2 + v^2)) has one real root r, with
    # |r| <= 1e-9 s; the shift b / (3a), near 2 s u / 3 with |u| >= 0.5, is
    # over 1e8 times larger, so t + shift cancels more than half of the bits
    # of r, which must still come out to the relative accuracy of its float
    # coefficients
    s = 10.0 ** scale_exp
    r = math.copysign(s * 10.0 ** -tiny_exp, -1.0 if negative else 1.0)
    p, q = -2.0 * s * u, s * s * (u * u + v * v)
    b, c, d = a * (p - r), a * (q - r * p), -a * r * q
    want = mp_root_near(r, a, b, c, d)
    assert cubic_real_roots(a, b, c, d) == [pytest.approx(want, rel=1e-12, abs=0.0)]


def test_general_cubic_shift():
    # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    roots = cubic_real_roots(1.0, -6.0, 11.0, -6.0)
    assert_root_sets_match(roots, [1.0, 2.0, 3.0], 1e-9)
    # scaling every coefficient leaves the roots alone
    roots = cubic_real_roots(7.0, -42.0, 77.0, -42.0)
    assert_root_sets_match(roots, [1.0, 2.0, 3.0], 1e-9)


def test_rejects_degenerate_leading_coefficient():
    with pytest.raises(ValueError):
        cubic_real_roots(0.0, 1.0, 2.0, 3.0)


def test_random_cubics_match_numpy(rng):
    for _ in range(500):
        target = sorted(rng.uniform(-50.0, 50.0, size=3))
        a = float(rng.uniform(0.5, 8.0))
        b = -a * sum(target)
        c = a * (target[0] * target[1] + target[0] * target[2] + target[1] * target[2])
        d = -a * target[0] * target[1] * target[2]
        got = cubic_real_roots(a, b, c, d)
        want = numpy_real_roots(a, b, c, d)
        scale = max(1.0, max(abs(t) for t in target))
        assert_root_sets_match(got, want, 1e-7 * scale)
        for r in got:
            assert abs(residual(a, b, c, d, r)) < 1e-6 * a * scale**3


def test_random_one_real_root_cubics_match_numpy(rng):
    # real root plus a conjugate pair: construct (x - r)(x^2 + px + q), p^2 < 4q
    for _ in range(500):
        r = float(rng.uniform(-50.0, 50.0))
        re = float(rng.uniform(-20.0, 20.0))
        im = float(rng.uniform(0.5, 30.0))
        p = -2.0 * re
        q = re * re + im * im
        a = float(rng.uniform(0.5, 8.0))
        b = a * (p - r)
        c = a * (q - r * p)
        d = -a * r * q
        got = cubic_real_roots(a, b, c, d)
        assert len(got) == 1
        assert got[0] == pytest.approx(r, abs=1e-7 * max(1.0, abs(r)))


def test_roots_returned_sorted_and_deduplicated(rng):
    for _ in range(100):
        coeffs = rng.uniform(-10.0, 10.0, size=4)
        coeffs[0] = abs(coeffs[0]) + 0.5
        roots = cubic_real_roots(*coeffs)
        assert roots == sorted(roots)
        for u, v in zip(roots, roots[1:]):
            assert v > u


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(rho=st.floats(allow_nan=False, allow_infinity=False))
@example(rho=5e-324)
@example(rho=-5e-324)
@example(rho=2.2250738585072014e-308)
@example(rho=-1.7e-103)
@example(rho=5.643803094122362e+102)
@example(rho=-5.643803094122363e+102)
def test_abs_of_the_cube_is_the_cube_of_abs(rho):
    # depressed_real_roots cubes rho once and scales by abs(rho ** 3); the
    # cube is odd, so that is abs(rho) ** 3 bit for bit, and both overflow
    # together
    try:
        want = abs(rho) ** 3
    except OverflowError:
        with pytest.raises(OverflowError):
            rho ** 3
        return
    assert abs(rho ** 3).hex() == want.hex()


@settings(derandomize=True, deadline=None, max_examples=500)
@given(coeffs=st.tuples(*[st.floats(-1e6, 1e6)] * 3), a=st.floats(0.01, 100.0))
def test_cubic_roots_ascend(coeffs, a):
    # the roots come back ascending without a sort: the shift is one rounded
    # addition, which never reverses two depressed roots
    roots = cubic_real_roots(a, *coeffs)
    assert roots == sorted(roots)
