"""Free-space solver blocks against brute-force grid oracles, and the
exact outputs of the free-space solvers on scenarios that reach each of
their branches.

Regenerate ``tests/golden/freespace_solves.json`` (after a deliberate
change of the numbers) with

    PYTHONPATH=src python tests/test_freespace.py

which first prints each (scenario, solver) record that changed and the
fields that moved.
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavrelay import (
    BlocklengthParams,
    FreeSpaceScenario,
    PowerSplit,
    bcd_solve,
    cubic_location_candidates,
    decoding_error_probability,
    fixed_location_baseline,
    fixed_power_baseline,
    freespace_gains,
    high_snr_solve,
    optimal_location_given_power,
    optimal_power_for_gains,
    replace,
)
from uavrelay import freespace
from uavrelay.freespace import BCD_MAX_ITERS

from conftest import (count_golden_sections, freespace_snr, high_snr_cases, high_snr_winner,
                      random_freespace, rewrite_golden, solve_record)


def grid_power_argmax(h1, h2, p_total, step_frac=1e-5):
    """Brute-force p1 maximising the relay SNR, independent of the library."""
    p1 = np.arange(step_frac, 1.0, step_frac) * p_total
    p2 = p_total - p1
    num = h1 * h2 * p1 * p2
    den = h1 * p1 + h2 * p2 + 1.0
    return float(p1[int(np.argmax(num / den))])


def grid_location_argmax(scn, powers, step=0.001):
    xs = np.minimum(np.arange(scn.d1, scn.d2 + step / 2, step), scn.d2)
    h1 = scn.beta1 / (scn.H**2 + xs**2)
    h2 = scn.beta2 / (scn.H**2 + (scn.D - xs) ** 2)
    num = h1 * h2 * powers.p1 * powers.p2
    den = h1 * powers.p1 + h2 * powers.p2 + 1.0
    return float(xs[int(np.argmax(num / den))])


def test_reported_snr_is_the_af_snr_at_the_solved_point(freespace_scn, blk):
    # each solver scores its placement and split by the AF formula at the hop gains
    for res in (bcd_solve(freespace_scn, blk), high_snr_solve(freespace_scn, blk),
                fixed_location_baseline(freespace_scn, blk),
                fixed_power_baseline(freespace_scn, blk)):
        h1, h2 = freespace_gains(freespace_scn, res.x)
        p1, p2 = res.powers.p1, res.powers.p2
        want = h1 * h2 * p1 * p2 / (h1 * p1 + h2 * p2 + 1.0)
        assert res.snr == pytest.approx(want, rel=1e-14), res.solver


def test_power_split_matches_grid(rng):
    for _ in range(60):
        scn = random_freespace(rng)
        x = float(rng.uniform(scn.d1, scn.d2))
        h1, h2 = freespace_gains(scn, x)
        got = optimal_power_for_gains(h1, h2, scn.p_total)
        want_p1 = grid_power_argmax(h1, h2, scn.p_total)
        assert abs(got.p1 - want_p1) <= 1e-4 * scn.p_total
        assert got.p1 + got.p2 == pytest.approx(scn.p_total, rel=1e-12)


def test_power_split_stationarity(rng):
    # closed form should zero the derivative of gamma in p1
    for _ in range(100):
        scn = random_freespace(rng)
        x = float(rng.uniform(scn.d1, scn.d2))
        h1, h2 = freespace_gains(scn, x)
        ps = optimal_power_for_gains(h1, h2, scn.p_total)
        g0 = freespace_snr(scn, x, ps)
        dp = 1e-7 * scn.p_total
        gp = freespace_snr(scn, x, PowerSplit(ps.p1 + dp, ps.p2 - dp))
        gm = freespace_snr(scn, x, PowerSplit(ps.p1 - dp, ps.p2 + dp))
        slope = (gp - gm) / (2 * dp)
        assert abs(slope) <= 1e-6 * g0 / scn.p_total
        assert g0 >= max(gp, gm) - 1e-12 * g0


def test_power_split_symmetric_gains():
    # equal gains: exact even split, not only approximately
    ps = optimal_power_for_gains(2.5e-3, 2.5e-3, 4.0)
    assert ps.p1 == 2.0
    # near-equal within the symmetric tolerance
    ps = optimal_power_for_gains(2.5e-3, 2.5e-3 * (1 + 1e-13), 4.0)
    assert ps.p1 == 2.0


def test_power_split_favors_weaker_hop():
    # more power flows into the weaker link
    ps = optimal_power_for_gains(1e-4, 1e-2, 4.0)
    assert ps.p1 > 2.0
    ps = optimal_power_for_gains(1e-2, 1e-4, 4.0)
    assert ps.p1 < 2.0


def test_power_split_invalid_inputs():
    with pytest.raises(ValueError):
        optimal_power_for_gains(-1.0, 1.0, 4.0)
    with pytest.raises(ValueError):
        optimal_power_for_gains(1.0, 1.0, 0.0)


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(raw=st.floats(), p_total=st.floats(5e-324, 1e308), falling=st.booleans())
@example(raw=0.0, p_total=1.0, falling=False)
@example(raw=-0.0, p_total=1.0, falling=True)
@example(raw=math.nan, p_total=1.0, falling=False)
@example(raw=math.inf, p_total=1.0, falling=False)
@example(raw=-math.inf, p_total=1.0, falling=True)
@example(raw=5e-324, p_total=5e-324, falling=False)
def test_power_clamp_equals_min_of_max(raw, p_total, falling):
    # optimal_power_for_gains clamps p1 = (sqrt(...) - b) / a with two
    # comparisons; stub the square root so that the unclamped p1 takes any
    # value, signed zeros, NaN and infinities included, and compare the
    # clamp with min(max(p1, 0.0), p_total) bit for bit
    h1, h2 = (1.0, 2.0) if falling else (2.0, 1.0)
    a, b = h1 - h2, p_total * h2 + 1.0
    root = raw * a + b
    p1 = (root - b) / a
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(freespace, "math", SimpleNamespace(sqrt=lambda v: root))
        patch.setattr(freespace, "PowerSplit", lambda p1, p2: p1)
        got = optimal_power_for_gains(h1, h2, p_total)
    assert got.hex() == min(max(p1, 0.0), p_total).hex()


def test_bcd_evaluates_the_gains_once_per_cycle(monkeypatch):
    # the start point, then one evaluation after each placement block
    for name, (scn, blk) in golden_scenarios().items():
        calls = []
        real = freespace.freespace_gains
        monkeypatch.setattr(freespace, "freespace_gains",
                            lambda *args: calls.append(args) or real(*args))
        res = bcd_solve(scn, blk)
        monkeypatch.undo()
        assert len(calls) == res.iterations + 1, name


def power_at(scn, x):
    # the closed-form power split at the hop gains of ground offset x
    return optimal_power_for_gains(*freespace_gains(scn, x), scn.p_total)


def test_optimal_power_given_x(freespace_scn, blk):
    # fixed-location's split is the closed form at the gains of its offset
    res = fixed_location_baseline(freespace_scn, blk)
    h1, h2 = freespace_gains(freespace_scn, res.x)
    assert res.powers == optimal_power_for_gains(h1, h2, freespace_scn.p_total)


def test_cubic_candidates_symmetric_scenario():
    # equal gains and even power: x = D/2 must be a stationary point
    scn = FreeSpaceScenario.from_db(200.0, 120.0, 10.0, 190.0, 55.0, 55.0, 4.0)
    ps = PowerSplit.even(4.0)
    cands = cubic_location_candidates(scn, ps)
    assert any(abs(c - 100.0) <= 1e-8 * scn.D for c in cands)


def test_cubic_candidates_are_stationary(rng):
    # every returned candidate zeroes the derivative of the denominator
    for _ in range(50):
        scn = random_freespace(rng)
        ps = power_at(scn, 0.5 * (scn.d1 + scn.d2))
        w1, w2 = scn.beta1 * ps.p1, scn.beta2 * ps.p2

        def objective(x):
            # w2 D1 + w1 D2 + D1 D2 with D1 = H^2 + x^2 and D2 = H^2 + (D - x)^2:
            # the SNR at fixed powers is largest where this is smallest
            dist1 = scn.H**2 + x**2
            dist2 = scn.H**2 + (scn.D - x) ** 2
            return w2 * dist1 + w1 * dist2 + dist1 * dist2

        for c in cubic_location_candidates(scn, ps):
            h = 1e-6 * scn.D
            slope = (objective(c + h) - objective(c - h)) / (2 * h)
            mid = objective(c)
            assert abs(slope) * h <= 1e-9 * abs(mid)


def test_location_matches_grid(rng):
    for _ in range(25):
        scn = random_freespace(rng)
        ps = power_at(scn, 0.5 * (scn.d1 + scn.d2))
        got = optimal_location_given_power(scn, ps)
        want = grid_location_argmax(scn, ps)
        step = 0.001
        assert abs(got - want) <= max(2 * step, 1e-6 * scn.D)
        # and the returned point is at least as good as the grid winner
        assert freespace_snr(scn, got, ps) >= freespace_snr(scn, want, ps) * (1 - 1e-12)


def test_location_stays_in_band(rng):
    for _ in range(50):
        scn = random_freespace(rng)
        ps = PowerSplit.even(scn.p_total)
        x = optimal_location_given_power(scn, ps)
        assert scn.d1 <= x <= scn.d2


def test_bcd_reference_scenario(freespace_scn, blk):
    res = bcd_solve(freespace_scn, blk)
    assert res.solver == "bcd"
    assert res.iterations <= 10
    # frozen from this library's own converged fixed point; guards regressions
    assert res.snr == pytest.approx(10.0402303484, rel=1e-9)
    assert res.x == pytest.approx(36.34, abs=0.05)
    assert res.powers.p1 == pytest.approx(2.5289, abs=1e-3)
    assert res.error_prob == pytest.approx(1.085453e-05, rel=1e-5)


def test_bcd_trace_monotone(freespace_scn, blk):
    res = bcd_solve(freespace_scn, blk)
    assert len(res.trace) == res.iterations
    assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
    assert res.trace[-1] == pytest.approx(res.snr, rel=1e-12)


def test_bcd_fixed_point(freespace_scn, blk):
    # re-solving each block at the reported optimum does not move it
    # the stopping rule bounds the SNR improvement, so the block variables
    # are pinned down only to about sqrt(rel_tol) in relative terms
    res = bcd_solve(freespace_scn, blk)
    ps = power_at(freespace_scn, res.x)
    assert ps.p1 == pytest.approx(res.powers.p1, rel=1e-4)
    x = optimal_location_given_power(freespace_scn, res.powers)
    assert x == pytest.approx(res.x, abs=1e-4 * freespace_scn.D)


def test_bcd_monotone_on_random_scenarios(rng):
    blk = BlocklengthParams(100, 80)
    for _ in range(25):
        scn = random_freespace(rng)
        res = bcd_solve(scn, blk)
        assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
        assert scn.d1 <= res.x <= scn.d2
        assert res.error_prob == pytest.approx(
            decoding_error_probability(res.snr, blk), rel=1e-14, abs=0.0
        )


GOLDEN_SOLVES = Path(__file__).resolve().parent / "golden" / "freespace_solves.json"
SOLVERS_2D = {
    "bcd": bcd_solve,
    "high-snr": high_snr_solve,
    "fixed-location": fixed_location_baseline,
    "fixed-power": fixed_power_baseline,
}


def golden_scenarios():
    """Name -> (scenario, blocklength).

    "base" is the base of configs/freespace.json, where condition I of
    the high-SNR solver wins; "winner-II"/"winner-III" move the winner to
    the left/right band edge, and "gain-gap" reaches it with hop gains
    175 dB apart.  "equal-beta" takes condition I's closed form and
    "matched-cross-gains" condition II's.  On "cap", a draw of the seed-0
    free-space benchmark pool, bcd stops at BCD_MAX_ITERS.  The last two
    sit at the bottom of the float range: a 1e-200 W budget, whose power
    products underflow, and -3200 dB gains, which are 0.0 at the relay.
    """
    blk = BlocklengthParams(100, 80)
    base = FreeSpaceScenario.from_db(200.0, 120.0, 30.0, 170.0, 50.0, 59.0, 4.0)
    D, H, d1 = 200.0, 50.0, 30.0
    # b1 D2 == b2 D1 at x = d1
    ratio = (H**2 + (D - d1) ** 2) / (H**2 + d1**2)
    cap = FreeSpaceScenario(*map(float.fromhex, (
        "0x1.b005aec2ae246p+9", "0x1.a509726094eb3p+6", "0x1.b4d409ba82513p+5",
        "0x1.73967dbaa6ba9p+9", "0x1.cc43584076b09p+18", "0x1.b3fd4724057b1p+18",
        "0x1.dba1a06f886b9p+3")))
    cases = {
        "base": base,
        "winner-II": replace(base, beta1=10 ** 4.5, beta2=10 ** 6.5),
        "winner-III": replace(base, beta1=10 ** 6.5, beta2=10 ** 4.5),
        "gain-gap": FreeSpaceScenario.from_db(200.0, 1.0, 30.0, 170.0, -40.0, 135.0, 5.0),
        "equal-beta": replace(base, beta1=10 ** 5.5, beta2=10 ** 5.5),
        "matched-cross-gains": FreeSpaceScenario(D, H, d1, 170.0, 1e5, 1e5 * ratio, 4.0),
        "budget-1e-200": replace(base, p_total=1e-200),
        "gains-3200": FreeSpaceScenario.from_db(200.0, 120.0, 30.0, 170.0, -3200.0, -3200.0,
                                                4.0),
    }
    return {**{name: (scn, blk) for name, scn in cases.items()},
            "cap": (cap, BlocklengthParams(238, 364))}


def test_golden_scenarios_reach_their_branches():
    scenarios = golden_scenarios()
    for name, condition in (("base", "I"), ("winner-II", "II"), ("winner-III", "III"),
                            ("gain-gap", "II")):
        assert high_snr_winner(scenarios[name][0]).condition == condition, name
    # condition I's closed form and condition II's are the even split
    assert high_snr_cases(scenarios["equal-beta"][0])["I"].powers == PowerSplit(2.0, 2.0)
    assert high_snr_cases(scenarios["matched-cross-gains"][0])["II"].powers == PowerSplit(2.0, 2.0)
    scn, blk = scenarios["cap"]
    assert bcd_solve(scn, blk).iterations == BCD_MAX_ITERS
    assert freespace_gains(scenarios["gains-3200"][0], 100.0) == (0.0, 0.0)


# golden_section_max calls in one high_snr_solve: one where condition I's
# search wins, none where a pinned case wins or condition I is the even
# split.  "gain-gap" searches although condition II wins: its condition-I
# range is the single power p_total (the relay gets 0 W), where F has no
# finite value to bound.  "budget-1e-200" lies below the bound's range.
GOLDEN_SEARCHES = {"base": 1, "winner-II": 0, "winner-III": 0, "gain-gap": 1, "equal-beta": 0,
                   "matched-cross-gains": 0, "budget-1e-200": 1, "gains-3200": 0, "cap": 1}


def test_high_snr_searches_condition1_only_where_it_can_win(monkeypatch):
    calls = count_golden_sections(monkeypatch)
    scenarios = golden_scenarios()
    assert sorted(GOLDEN_SEARCHES) == sorted(scenarios)
    for name, (scn, blk) in scenarios.items():
        calls.clear()
        high_snr_solve(scn, blk)
        assert len(calls) == GOLDEN_SEARCHES[name], name


def test_2d_solves_match_golden():
    golden = json.loads(GOLDEN_SOLVES.read_text())
    scenarios = golden_scenarios()
    assert sorted(golden) == sorted(scenarios)
    for name, (scn, blk) in scenarios.items():
        for solver, solve in SOLVERS_2D.items():
            assert solve_record(solve(scn, blk)) == golden[name][solver], (name, solver)


if __name__ == "__main__":
    rewrite_golden(GOLDEN_SOLVES, {
        name: {solver: solve_record(solve(scn, blk)) for solver, solve in SOLVERS_2D.items()}
        for name, (scn, blk) in golden_scenarios().items()})
