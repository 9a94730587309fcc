import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavrelay.search import (
    FALLBACK_POINTS,
    PRESAMPLES,
    _linspace,
    golden_section_max,
    interior_local_maxima,
    line_search_max,
)


def presamples(f, lo, hi):
    # the pre-sample grid a line-search caller builds for [lo, hi], and
    # f's values on it, which the caller scores
    xs = _linspace(lo, hi, PRESAMPLES)
    return xs, [f(x) for x in xs]


def golden(f, lo, hi, tol):
    # golden_section_max with its end values scored by the caller
    return golden_section_max(f, lo, hi, tol, f(lo), f(hi))


def test_golden_section_quadratic():
    x, v = golden(lambda t: -(t - 3.7) ** 2, 0.0, 10.0, 1e-10)
    assert x == pytest.approx(3.7, abs=1e-8)
    assert v == pytest.approx(0.0, abs=1e-15)


def test_golden_section_boundary_maximum():
    # increasing on the whole interval: maximiser is the right endpoint
    x, v = golden(math.sin, 0.0, 1.2, 1e-10)
    assert x == pytest.approx(1.2, abs=1e-8)
    assert v == pytest.approx(math.sin(1.2), rel=1e-12)
    x, _ = golden(lambda t: -t, 2.0, 5.0, 1e-10)
    assert x == pytest.approx(2.0, abs=1e-8)


def test_golden_section_degenerate_interval():
    x, v = golden(lambda t: t, 4.0, 4.0, 1e-10)
    assert (x, v) == (4.0, 4.0)
    with pytest.raises(ValueError):
        golden(lambda t: t, 5.0, 4.0, 1e-10)


@pytest.mark.parametrize("tol", [0.0, -1e-10])
def test_golden_section_refuses_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(ValueError, match=f"^tolerance must be positive, got {tol}$"):
        golden(lambda t: t, 0.0, 1.0, tol)


def test_line_search_degenerate_interval():
    # a one-point interval is that point, with the value the caller scored
    calls = []
    f = lambda t: calls.append(t) or -t
    xs, vals = presamples(f, 4.0, 4.0)
    calls.clear()
    assert line_search_max(f, xs, vals, 1e-10) == (4.0, -4.0)
    assert calls == []
    with pytest.raises(ValueError, match=r"^empty interval \[5.0, 4.0\]$"):
        line_search_max(lambda t: t, *presamples(lambda t: t, 5.0, 4.0), 1e-10)


def test_golden_section_nonsmooth_peak():
    x, _ = golden(lambda t: -abs(t - 2.5), 0.0, 10.0, 1e-12)
    assert x == pytest.approx(2.5, abs=1e-9)


def test_interior_local_maxima():
    assert interior_local_maxima([0, 1, 0]) == [1]
    assert interior_local_maxima([0, 1, 2, 3]) == []
    assert interior_local_maxima([3, 2, 1, 0]) == []
    assert interior_local_maxima([0, 2, 1, 3, 0]) == [1, 3]
    # plateaus are not strict maxima
    assert interior_local_maxima([0, 1, 1, 0]) == []
    assert interior_local_maxima([7]) == []
    assert interior_local_maxima([]) == []


def test_line_search_unimodal_matches_golden():
    f = lambda t: -(t - 1.3) ** 2
    x, v = line_search_max(f, *presamples(f, -4.0, 4.0), tol=1e-9)
    assert x == pytest.approx(1.3, abs=1e-6)


def test_line_search_multimodal_finds_global_peak():
    # two peaks, the taller one off-center at x ~ 7.4
    def f(t):
        return math.exp(-((t - 2.0) ** 2)) + 1.5 * math.exp(-((t - 7.4) ** 2) / 0.5)

    x, v = line_search_max(f, *presamples(f, 0.0, 10.0), tol=1e-9)
    assert x == pytest.approx(7.4, abs=1e-4)
    # never worse than a dense reference grid
    grid = np.linspace(0.0, 10.0, 20001)
    assert v >= max(f(t) for t in grid) - 1e-12


def test_line_search_never_leaves_the_box():
    # lo + (hi - lo) * 16 / 16 rounds past hi here
    lo, hi = 151.585, 446.497
    x, v = line_search_max(lambda t: t, *presamples(lambda t: t, lo, hi), 0.0294912)
    assert (x, v) == (hi, hi)


def test_line_search_fallback_grid_stays_in_the_box():
    # the presamples stay inside, but lo + (hi - lo) / 511 * 511 rounds past hi
    lo, hi = 44.601, 172.463

    def wavy(t):
        # rises to hi through several interior peaks, so the dense grid runs
        if not (lo <= t <= hi):
            raise ValueError(f"{t} evaluated outside [{lo}, {hi}]")
        u = (t - lo) / (hi - lo)
        return u + 0.2 * math.sin(6.0 * math.pi * u)

    vals = [wavy(lo + (hi - lo) * i / 16) for i in range(16)] + [wavy(hi)]
    assert len(interior_local_maxima(vals)) >= 2
    x, v = line_search_max(wavy, *presamples(wavy, lo, hi), 1e-6)
    assert (x, v) == (hi, wavy(hi))


def _best(f, candidates):
    # ascending candidates: the smallest x wins ties
    values = [f(x) for x in candidates]
    i = max(range(len(candidates)), key=lambda k: (values[k], -k))
    return candidates[i], values[i]


def derivative_bisection_max(f, lo, hi, tol, fd_step=None):
    """Cross-check maximiser: bisect on the sign of a finite-difference slope.

    The reference the golden-section searches are checked against.  It
    assumes f is smooth and unimodal; when the slope does not change sign
    across [lo, hi] the profile is monotone and the better endpoint is
    returned.
    """
    if hi <= lo:
        return lo, f(lo)
    if fd_step is None:
        fd_step = 1e-6 * (hi - lo)

    def slope(x):
        a = max(lo, x - fd_step)
        b = min(hi, x + fd_step)
        return (f(b) - f(a)) / (b - a)

    a, b = lo, hi
    if slope(a) <= 0.0 or slope(b) >= 0.0:
        return _best(f, (lo, hi))
    while b - a > tol:
        mid = 0.5 * (a + b)
        if slope(mid) > 0.0:
            a = mid
        else:
            b = mid
    return _best(f, (lo, 0.5 * (a + b), hi))


def test_derivative_bisection_interior_peak():
    x, v = derivative_bisection_max(lambda t: -(t - 3.25) ** 2, 0.0, 8.0, tol=1e-10)
    assert x == pytest.approx(3.25, abs=1e-6)


def test_derivative_bisection_monotone_function():
    x, _ = derivative_bisection_max(lambda t: 2.0 * t, 1.0, 6.0, tol=1e-10)
    assert x == pytest.approx(6.0, abs=1e-9)
    x, _ = derivative_bisection_max(lambda t: -t, 1.0, 6.0, tol=1e-10)
    assert x == pytest.approx(1.0, abs=1e-9)


def test_nan_everywhere_is_an_error_naming_the_interval():
    nan = lambda t: math.nan
    named = r"NaN at every sampled point of \[1.5, 4.0\]"
    with pytest.raises(ValueError, match=named):
        golden(nan, 1.5, 4.0, 1e-6)
    with pytest.raises(ValueError, match=named):
        line_search_max(nan, *presamples(nan, 1.5, 4.0), 1e-6)
    with pytest.raises(ValueError, match="NaN at every sampled point"):
        golden(nan, 2.0, 2.0, 1e-6)


def test_nan_points_never_win():
    # NaN on the left half only: the best finite point still wins
    f = lambda t: math.nan if t < 2.0 else -t
    x, v = golden(f, 0.0, 4.0, 1e-9)
    assert math.isfinite(v) and x >= 2.0


# samples as line_search_max ranks them: ties, signed zeros, infinities,
# one shared NaN object and NaNs made one at a time
SAMPLES = st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=False),
    st.builds(float, st.just("nan")),
), min_size=1, max_size=40)


@settings(derandomize=True, deadline=None, max_examples=2000)
@given(vals=SAMPLES)
def test_index_of_max_is_the_first_best_sample(vals):
    # line_search_max picks vals.index(max(vals)); the (value, -index) key
    # that it replaced picked the same sample
    assert vals.index(max(vals)) == max(range(len(vals)), key=lambda k: (vals[k], -k))


def test_line_search_refuses_values_that_do_not_match_the_grid():
    xs, vals = presamples(lambda t: -t, 0.0, 1.0)
    for short in (vals[:-1], vals + [0.0], []):
        with pytest.raises(ValueError, match=f"^{len(short)} values for 17 pre-sample points$"):
            line_search_max(lambda t: -t, xs, short, 1e-9)


# profiles whose pre-sample shows at most one interior peak, so the line
# search runs its golden section on the whole grid
CLEAN_PROFILES = {
    "interior peak": lambda t: -(t - 1.3) ** 2,
    "rising": lambda t: t,
    "falling": lambda t: -t,
    "plateau": lambda t: min(t, 2.0),
    "flat": lambda t: 0.0,
    "NaN left": lambda t: math.nan if t < 1.0 else -t,
}


@pytest.mark.parametrize("name", CLEAN_PROFILES)
def test_searches_never_score_a_point_their_caller_scored(name):
    calls = []
    f = lambda t: calls.append(t) or CLEAN_PROFILES[name](t)
    golden(f, -4.0, 4.0, 1e-6)
    assert calls[:2] == [-4.0, 4.0] and not {-4.0, 4.0} & set(calls[2:])
    xs, vals = presamples(f, -4.0, 4.0)
    assert len(interior_local_maxima(vals)) <= 1
    calls.clear()
    line_search_max(f, xs, vals, 1e-6)
    assert calls and not set(xs) & set(calls)


def reference_pick(f, lo, mid, hi):
    """The golden section's pick, each point scored here by f: of lo, mid
    and hi the first of the largest values that are not NaN; ValueError
    when all three are NaN."""
    scored = [(f(x), -k, x) for k, x in enumerate((lo, mid, hi)) if not math.isnan(f(x))]
    if not scored:
        return ValueError
    v, _, x = max(scored)
    return x, v


def reference_line_pick(f, lo, mid, hi, xs, vals):
    """The line search's pick on top of it: the first best pre-sample, only
    where it is strictly larger."""
    best = reference_pick(f, lo, mid, hi)
    i = max(range(len(vals)), key=lambda k: (vals[k], -k))
    if best is not ValueError and vals[i] > best[1]:
        return xs[i], vals[i]
    return best


def profile(knots, steps, lo, hi):
    """A short profile on [lo, hi] through evenly spaced knots: a staircase
    (ties and plateaus) or the broken line through them; a NaN or an
    infinity makes its pieces NaN or infinite, and several knots make
    several peaks."""
    n = len(knots)

    def f(t):
        u = (t - lo) / (hi - lo) * n
        j = min(int(u), n - 1)
        if steps or j == n - 1:
            return knots[j]
        return knots[j] + (knots[j + 1] - knots[j]) * (u - j)

    return f


def picked(search, *args):
    try:
        return search(*args)
    except ValueError:
        return ValueError


@settings(derandomize=True, deadline=None, max_examples=400)
@given(knots=st.lists(st.sampled_from([0.0, 1.0, 2.0, -1.0, math.inf, -math.inf, math.nan]),
                      min_size=1, max_size=6),
       steps=st.booleans())
@example(knots=[0.0, 2.0, 0.0, 2.0, 0.0], steps=False)  # two peaks: the fallback
@example(knots=[1.0, 2.0, 2.0, 1.0], steps=True)  # a plateau of ties
@example(knots=[0.0, 1.0, 2.0], steps=False)  # monotone
@example(knots=[math.nan, 1.0, math.nan], steps=True)  # NaN ends
@example(knots=[math.nan], steps=True)  # NaN everywhere
def test_searches_pick_as_the_reference_rule_picks(knots, steps):
    # the golden section's last call is its midpoint; a line search that
    # falls back brackets with the two calls after its dense grid
    lo, hi, tol = -3.0, 5.0, 1e-3
    f = profile(knots, steps, lo, hi)
    calls = []
    counted = lambda t: calls.append(t) or f(t)
    got = picked(golden_section_max, counted, lo, hi, tol, f(lo), f(hi))
    assert got == reference_pick(f, lo, calls[-1], hi)
    xs, vals = presamples(f, lo, hi)
    calls.clear()
    got = picked(line_search_max, counted, xs, vals, tol)
    a, b = lo, hi
    if len(calls) >= FALLBACK_POINTS:
        a, b = calls[FALLBACK_POINTS:FALLBACK_POINTS + 2]
    assert got == reference_line_pick(f, a, calls[-1], b, xs, vals)
