"""One-dimensional line-search helpers for (near) unimodal maximisation."""

from __future__ import annotations

import math
from typing import Callable, Sequence

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# line_search_max: points of the coarse pre-sample its callers build, and of
# the dense grid that a profile with several interior peaks falls back to
PRESAMPLES = 17
FALLBACK_POINTS = 512


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float, tol: float, f_lo: float, f_hi: float
) -> tuple[float, float]:
    """Golden-section maximiser on [lo, hi]; exact for unimodal f.

    f_lo and f_hi are f(lo) and f(hi), which the caller has scored, so
    f is called only inside the bracket.  Shrinks the bracket until it is
    narrower than tol, then returns the best of the two original
    endpoints and the bracket midpoint, so a monotone profile yields the
    better endpoint.
    """
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    inv_phi = _INV_PHI
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
    # the best of both ends and the midpoint: ascending candidates + strict
    # improvement = smallest x wins ties; NaN values never win, and a
    # NaN-only objective is an error
    mid = 0.5 * (a + b)
    best_x, best_v = None, -math.inf
    for x, v in ((lo, f_lo), (mid, f(mid)), (hi, f_hi)):
        if v > best_v or (best_x is None and not math.isnan(v)):
            best_x, best_v = x, v
    if best_x is None:
        raise ValueError(f"objective is NaN at every sampled point of [{lo}, {hi}]")
    return best_x, best_v


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``np.linspace(lo, hi, n).tolist()`` for n >= 2, on plain floats."""
    div = n - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:  # numpy's path for a span too small to divide
        points = [i / div * delta + lo for i in range(n)]
    else:
        points = [i * step + lo for i in range(n)]
    points[-1] = hi
    return points


def interior_local_maxima(values: Sequence[float]) -> list[int]:
    """Indices 0 < i < n-1 where values[i] strictly exceeds both neighbours."""
    return [
        i
        for i in range(1, len(values) - 1)
        if values[i - 1] < values[i] and values[i] > values[i + 1]
    ]


def line_search_max(
    f: Callable[[float], float],
    xs: Sequence[float],
    vals: Sequence[float],
    tol: float,
) -> tuple[float, float]:
    """Maximise f on [xs[0], xs[-1]], guarding against non-unimodal profiles.

    xs is the ascending coarse pre-sample grid, whose ends are the bounds,
    and vals holds f at each of its points: a caller that searches one
    interval many times builds the grid once (``_linspace(lo, hi,
    PRESAMPLES)``) and scores it itself, so f is never called at a point
    of xs.  The pre-sample checks for multiple interior peaks.  Clean
    profiles go straight to golden-section search, which is handed the
    end values; suspicious ones fall back to a dense grid of
    FALLBACK_POINTS followed by a local golden-section refinement around
    the best grid point.
    """
    if len(vals) != len(xs):
        raise ValueError(f"{len(vals)} values for {len(xs)} pre-sample points")
    lo, hi = xs[0], xs[-1]
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if hi == lo:
        return lo, vals[0]
    if len(interior_local_maxima(vals)) <= 1:
        x_best, v_best = golden_section_max(f, lo, hi, tol, vals[0], vals[-1])
    else:
        step = (hi - lo) / (FALLBACK_POINTS - 1)
        grid = _linspace(lo, hi, FALLBACK_POINTS)
        grid_vals = [f(x) for x in grid]
        # the first point of the largest value; a NaN wins only as the first point
        i = grid_vals.index(max(grid_vals))
        a = max(lo, grid[i] - step)
        b = min(hi, grid[i] + step)
        x_best, v_best = golden_section_max(f, a, b, tol, f(a), f(b))
    # keep the sampled evidence: never return less than the best pre-sample
    i = vals.index(max(vals))
    if vals[i] > v_best:
        return xs[i], vals[i]
    return x_best, v_best
