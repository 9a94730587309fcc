"""High-SNR closed-form solver: per-case grid oracles, convexity
certificates, the crossing powers and the case-selection logic."""

import inspect
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uavrelay import (
    BlocklengthParams,
    FreeSpaceScenario,
    PowerSplit,
    SolveResult,
    decoding_error_probability,
    gamma_tilde,
    high_snr_solve,
    replace,
    unconstrained_location,
)
from uavrelay import highsnr
from uavrelay.highsnr import _condition1_bound, _crossing_power

from conftest import (condition1_hessian, count_golden_sections, freespace_snr, high_snr_cases,
                      high_snr_winner, random_freespace)


def gamma_tilde_grid(scn, x_grid, p1_grid):
    """Vectorised surrogate over (x, p1) grids, independent of the library."""
    x = np.asarray(x_grid)[:, None]
    p1 = np.asarray(p1_grid)[None, :]
    p2 = scn.p_total - p1
    d1_sq = scn.H**2 + x**2
    d2_sq = scn.H**2 + (scn.D - x) ** 2
    num = scn.beta1 * scn.beta2 * p1 * p2
    den = scn.beta2 * p2 * d1_sq + scn.beta1 * p1 * d2_sq
    return num / den


def mirror(scn):
    """Reflect the geometry about D/2 and swap the hop gains."""
    return FreeSpaceScenario(
        D=scn.D,
        H=scn.H,
        d1=scn.D - scn.d2,
        d2=scn.D - scn.d1,
        beta1=scn.beta2,
        beta2=scn.beta1,
        p_total=scn.p_total,
    )


def test_gamma_tilde_never_underestimates(rng):
    for _ in range(200):
        scn = random_freespace(rng)
        x = float(rng.uniform(scn.d1, scn.d2))
        p1 = float(rng.uniform(0.05, 0.95)) * scn.p_total
        ps = PowerSplit(p1, scn.p_total - p1)
        assert gamma_tilde(scn, x, ps) >= freespace_snr(scn, x, ps)


def test_unconstrained_location(freespace_scn):
    # equal weighted gains put the surrogate optimum at the midpoint
    ps = PowerSplit(freespace_scn.beta2, freespace_scn.beta1)
    x0, clamped = unconstrained_location(freespace_scn, ps)
    assert x0 == pytest.approx(100.0, rel=1e-12)
    assert clamped == x0
    # all the weight on hop 2 drags the optimum to the source side
    ps = PowerSplit(1e-6, 4.0)
    x0, clamped = unconstrained_location(freespace_scn, ps)
    assert x0 < freespace_scn.d1
    assert clamped == freespace_scn.d1


def test_hessian_positive_definite(rng):
    for _ in range(200):
        scn = random_freespace(rng)
        p1 = float(rng.uniform(0.01, 0.99)) * scn.p_total
        h = condition1_hessian(scn, p1, scn.p_total - p1)
        assert h[0, 1] == h[1, 0]
        eigs = np.linalg.eigvalsh(h)
        assert eigs.min() > 0.0


def test_hessian_rejects_nonpositive_power(freespace_scn):
    with pytest.raises(ValueError):
        condition1_hessian(freespace_scn, 0.0, 4.0)


def test_condition1_interior_stationarity(freespace_scn, monkeypatch):
    # unequal gains: condition I is found by one golden-section search
    calls = count_golden_sections(monkeypatch)
    rep = high_snr_cases(freespace_scn)["I"]
    assert len(calls) == 1
    # surrogate flat in p1 along the x0(p1) path at the reported optimum
    def path_value(p1):
        ps = PowerSplit(p1, freespace_scn.p_total - p1)
        _, x = unconstrained_location(freespace_scn, ps)
        return gamma_tilde(freespace_scn, x, ps)

    dp = 1e-7 * freespace_scn.p_total
    v0 = path_value(rep.powers.p1)
    assert v0 >= path_value(rep.powers.p1 + dp) - 1e-12 * v0
    assert v0 >= path_value(rep.powers.p1 - dp) - 1e-12 * v0


def test_condition1_equal_beta_closed_form():
    # equal gains: the even split, which lies inside condition I's range
    scn = FreeSpaceScenario.from_db(200.0, 120.0, 30.0, 170.0, 55.0, 55.0, 4.0)
    rep = high_snr_cases(scn)["I"]
    assert rep.powers == PowerSplit(2.0, 2.0)
    _, x = unconstrained_location(scn, rep.powers)
    assert rep.x == pytest.approx(x, rel=1e-12)


def test_condition1_split_holds_on_budgets_near_underflow(freespace_scn, blk):
    # the surrogate is homogeneous in the powers, so the interior split
    # p1 / p_total does not depend on the budget; at 1e-200 W the product
    # p1 p2 underflows to 0 while the objective (~6e210) does not
    want = high_snr_cases(freespace_scn)["I"].powers.p1 / freespace_scn.p_total
    tiny = replace(freespace_scn, p_total=1e-200)
    rep = high_snr_cases(tiny)["I"]
    assert rep.powers.p1 / tiny.p_total == pytest.approx(want, rel=1e-6)
    res = high_snr_solve(tiny, blk)
    assert 0.0 < res.powers.p1 and 0.0 < res.powers.p2
    assert res.powers.p1 + res.powers.p2 <= tiny.p_total * (1.0 + 1e-12)
    assert res.error_prob == 1.0

    # below ~1e-300 W b1 b2 D^2 / s overflows for every p1, and below
    # ~2.47e-314 W the search's relative tolerance underflows to 0; the
    # split still holds at 2.4e-314 and 1e-314 W (p1 has ~31 bits there),
    # and down to the smallest double condition I and the chosen row
    # still sit inside the band and the budget
    for beta1_db, beta2_db in ((50.0, 59.0), (59.0, 50.0), (40.0, 70.0)):
        scn = FreeSpaceScenario.from_db(200.0, 120.0, 30.0, 170.0, beta1_db, beta2_db, 4.0)
        want = high_snr_cases(scn)["I"].powers.p1 / scn.p_total
        for p_total in (2.4e-314, 1e-314, 1e-320, 5e-324):
            scn = replace(scn, p_total=p_total)
            cases = high_snr_cases(scn)
            assert "I" in cases, (beta1_db, beta2_db, p_total)
            rep = cases["I"]
            if p_total >= 1e-314:
                assert rep.powers.p1 / p_total == pytest.approx(want, abs=1e-6), \
                    (beta1_db, beta2_db, p_total)
            for row in (rep, high_snr_solve(scn, blk)):
                assert scn.d1 <= row.x <= scn.d2
                assert row.powers.p1 + row.powers.p2 <= p_total



def test_condition1_objective_is_infinite_where_the_weight_underflows(blk):
    # b1 p1 + b2 p2 underflows to 0 here, which the condition-I objective
    # divides by; it is +inf there, and the exact SNR at the winner is 0
    scn = FreeSpaceScenario.from_db(4.35e59, 2.72e11, 8.25e58, 2.92e59,
                                    -185.8, -1315.1, 9.46e-201)
    res = high_snr_solve(scn, blk)
    assert res.snr == 0.0
    assert res.error_prob == 1.0


def executed_lines(module, call):
    """The line numbers of module that run while call() runs, and its result."""
    lines = set()

    def trace(frame, event, arg):
        if frame.f_code.co_filename != module.__file__:
            return None
        if event == "line":
            lines.add(frame.f_lineno)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return lines, result


def test_condition1_search_steps_over_powers_where_the_weight_underflows(blk):
    # gains near 1e-307 and 1e-309 on a 1.7e-16 W budget: condition I is
    # searched, and at some of its powers b1 p1 + b2 p2 underflows to 0,
    # where its objective returns -inf; the row stays feasible
    scn = FreeSpaceScenario(71627.91313473143, 621.7904360509003, 15254.467371306275,
                            65252.153823917404, 4.8495259047680585e-307, 1.56235839754882e-309,
                            1.747243947978681e-16)
    source = inspect.getsource(highsnr).splitlines()
    guard = next(i for i, line in enumerate(source, 1) if "if s == 0.0:" in line)
    assert source[guard].strip() == "return -math.inf"
    lines, res = executed_lines(highsnr, lambda: high_snr_solve(scn, blk))
    assert guard + 1 in lines
    assert res.x == 39211.0
    assert scn.d1 <= res.x <= scn.d2
    assert 0.0 <= res.powers.p1 and 0.0 <= res.powers.p2
    assert res.powers.p1 + res.powers.p2 <= scn.p_total
    assert res.snr == 0.0
    assert res.error_prob == 1.0


def test_edge_cases_keep_the_split_inside_the_budget(blk):
    # on this budget the crossing power of d1 rounds above p_total; the
    # edge cases clamp p1 to it, which left the relay a negative power
    scn = FreeSpaceScenario(*map(float.fromhex, (
        "0x1.c5740fa38a742p+63", "0x1.c70b2c08d05e4p+84", "0x1.150f6817ef826p+63",
        "0x1.948c696f5b50bp+63", "0x1.4569d5d7d33adp-294", "0x1.60427be2992afp+623",
        "0x1.a385c3b5786f3p-878")))
    for rep in high_snr_cases(scn).values():
        assert 0.0 <= rep.powers.p1 <= scn.p_total, rep
    res = high_snr_solve(scn, blk)
    assert res.snr == 0.0
    assert res.error_prob == 1.0


def test_condition1_reports_a_band_it_cannot_reach_infeasible(blk, monkeypatch):
    # on a band of two adjacent floats the crossing power of d1 rounds
    # above that of d2, so no p1 keeps x_free(p1) inside the band; condition
    # I is not searched, and an edge case wins inside the band and the budget
    scn = FreeSpaceScenario(200.0, 1.0, 118.11245631326052, 118.11245631326054,
                            0.01331983175460442, 3.1026011843648695, 0.0013612336177626307)
    assert _crossing_power(scn, scn.d1) > _crossing_power(scn, scn.d2)
    calls = count_golden_sections(monkeypatch)
    res = high_snr_solve(scn, blk)
    assert calls == []
    assert repr(res) == repr(full_selection(scn, blk))
    assert scn.d1 <= res.x <= scn.d2
    assert 0.0 <= res.powers.p1 and 0.0 <= res.powers.p2
    assert res.powers.p1 + res.powers.p2 <= scn.p_total


def unclamped_offset(scn, p1):
    return scn.D * scn.beta1 * p1 / (scn.beta1 * p1 + scn.beta2 * (scn.p_total - p1))


def test_condition2_matches_grid(rng):
    # left-edge case: maximise over the p1 range whose free offset
    # lands at or left of d1
    for _ in range(20):
        scn = random_freespace(rng)
        rep = high_snr_cases(scn)["II"]
        assert rep.x == scn.d1
        p1 = np.linspace(1e-9, 1.0 - 1e-9, 1_000_001) * scn.p_total
        mask = unclamped_offset(scn, p1) <= scn.d1
        assert mask.any()
        vals = gamma_tilde_grid(scn, [scn.d1], p1[mask])[0]
        best = float(p1[mask][int(np.argmax(vals))])
        assert abs(rep.powers.p1 - best) <= 1e-4 * scn.p_total


def test_condition3_matches_grid(rng):
    for _ in range(20):
        scn = random_freespace(rng)
        rep = high_snr_cases(scn)["III"]
        assert rep.x == scn.d2
        p1 = np.linspace(1e-9, 1.0 - 1e-9, 1_000_001) * scn.p_total
        mask = unclamped_offset(scn, p1) >= scn.d2
        assert mask.any()
        vals = gamma_tilde_grid(scn, [scn.d2], p1[mask])[0]
        best = float(p1[mask][int(np.argmax(vals))])
        assert abs(rep.powers.p1 - best) <= 1e-4 * scn.p_total


def test_selection_matches_profile_grid(rng):
    # the three cases together must reproduce the brute-force optimum of
    # the surrogate over (x, p1) with x free to clamp
    for _ in range(10):
        scn = random_freespace(rng)
        p1 = np.linspace(1e-9, 1.0 - 1e-9, 200_001) * scn.p_total
        x = np.clip(unclamped_offset(scn, p1), scn.d1, scn.d2)
        p2 = scn.p_total - p1
        d1_sq = scn.H**2 + x**2
        d2_sq = scn.H**2 + (scn.D - x) ** 2
        profile = (
            scn.beta1 * scn.beta2 * p1 * p2
            / (scn.beta2 * p2 * d1_sq + scn.beta1 * p1 * d2_sq)
        )
        want = float(profile.max())
        got = max(r.gamma_tilde for r in high_snr_cases(scn).values())
        assert got >= want * (1 - 1e-9)


def test_condition2_edge_concavity(freespace_scn):
    # second differences of the surrogate in p1 at x = d1 stay non-positive
    p1 = np.linspace(0.01, 3.99, 2001)
    vals = gamma_tilde_grid(freespace_scn, [freespace_scn.d1], p1)[0]
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    assert second.max() <= 1e-12 * np.abs(vals).max()


def test_condition3_mirror_symmetry(rng):
    # reflecting the scenario swaps the two edge cases
    for _ in range(20):
        scn = random_freespace(rng)
        rep3 = high_snr_cases(scn)["III"]
        rep2m = high_snr_cases(mirror(scn))["II"]
        assert rep3.gamma_tilde == pytest.approx(rep2m.gamma_tilde, rel=1e-10)
        assert rep3.powers.p1 == pytest.approx(rep2m.powers.p2, rel=1e-8, abs=1e-12)


def test_matched_cross_gains_case():
    # b1 D2 == b2 D1 at the edge makes the surrogate denominator constant,
    # so the even split is stationary; H = 50 keeps it inside the case range
    D, H, d1 = 200.0, 50.0, 30.0
    ratio = (H**2 + (D - d1) ** 2) / (H**2 + d1**2)
    scn = FreeSpaceScenario(D, H, d1, 170.0, 1e5, 1e5 * ratio, 4.0)
    rep = high_snr_cases(scn)["II"]
    assert rep.powers == PowerSplit(2.0, 2.0)

    # with H = 120 the even split leaves the case range and is clamped to
    # the boundary where the free offset crosses d1
    H = 120.0
    ratio = (H**2 + (D - d1) ** 2) / (H**2 + d1**2)
    scn = FreeSpaceScenario(D, H, d1, 170.0, 1e5, 1e5 * ratio, 4.0)
    rep = high_snr_cases(scn)["II"]
    p_up = d1 * scn.beta2 * 4.0 / ((D - d1) * scn.beta1 + d1 * scn.beta2)
    assert rep.powers.p1 == pytest.approx(p_up, rel=1e-12)


def test_selection_never_below_any_condition(rng):
    for _ in range(50):
        scn = random_freespace(rng)
        best = max(r.gamma_tilde for r in high_snr_cases(scn).values())
        res = high_snr_solve(scn, BlocklengthParams(100, 80))
        chosen = gamma_tilde(scn, res.x, res.powers)
        assert chosen >= best * (1 - 1e-12)


def test_reference_scenario(freespace_scn, blk):
    res = high_snr_solve(freespace_scn, blk)
    assert res.solver == "high-snr"
    # frozen from this library's converged output
    assert res.x == pytest.approx(35.8736, abs=1e-3)
    assert res.powers.p1 == pytest.approx(2.5381, abs=1e-3)
    assert res.snr == pytest.approx(10.0397605540, rel=1e-9)
    # sits within a percent of the exact BCD answer
    assert res.snr == pytest.approx(10.0402303484, rel=1e-2)


def test_reports_stay_in_bounds(rng):
    for _ in range(50):
        scn = random_freespace(rng)
        for rep in high_snr_cases(scn).values():
            assert scn.d1 <= rep.x <= scn.d2
            assert 0.0 <= rep.powers.p1 <= scn.p_total
            assert rep.powers.p1 + rep.powers.p2 == pytest.approx(scn.p_total, rel=1e-9)


@pytest.mark.parametrize("beta2_db,p_total", [(135.0, 5.0), (108.0, 3.0)])
def test_edge_root_survives_huge_gain_gaps(beta2_db, p_total):
    # hop 2 is 148 / 175 dB stronger than hop 1: the root written as
    # -e + sqrt(e (e + pt)) cancelled to p2 = 0 (SNR 0) or divided by zero
    scn = FreeSpaceScenario.from_db(200.0, 1.0, 30.0, 170.0, -40.0, beta2_db, p_total)
    res = high_snr_solve(scn, BlocklengthParams(100, 80))
    assert res.x == scn.d1
    assert res.snr > 0.0
    # the stationary point of the surrogate at x = d1, to 50 digits
    mpmath.mp.dps = 50
    cross1 = mpmath.mpf(scn.beta1) * (scn.H ** 2 + (mpmath.mpf(scn.D) - scn.d1) ** 2)
    cross2 = mpmath.mpf(scn.beta2) * (scn.H ** 2 + mpmath.mpf(scn.d1) ** 2)
    p2 = p_total * mpmath.sqrt(cross1) / (mpmath.sqrt(cross1) + mpmath.sqrt(cross2))
    assert res.powers.p2 == pytest.approx(float(p2), rel=1e-6, abs=0.0)


def full_selection(scn, blk):
    """high_snr_solve with condition I always solved, re-scored exactly."""
    best = high_snr_winner(scn)
    gamma = freespace_snr(scn, best.x, best.powers)
    return SolveResult("high-snr", best.x, scn.H, best.powers, gamma,
                       decoding_error_probability(gamma, blk), (gamma,))


unit = st.floats(0.0, 1.0)


@st.composite
def scenarios(draw):
    """Budgets 5e-324..1e6 W (uniform and log-uniform), gains -50..250 dB,
    equal gains and bands that touch 0 or D."""
    D = draw(st.floats(1.0, 1e4))
    lo, hi = sorted((draw(unit), draw(unit)))  # 0.0 and 1.0 come up often
    beta1_db = draw(st.floats(-50.0, 250.0))
    beta2_db = draw(st.one_of(st.just(beta1_db), st.floats(-50.0, 250.0)))
    p_total = draw(st.one_of(st.floats(5e-324, 1e6),
                             st.floats(-323.0, 6.0).map(lambda e: 10.0 ** e)))
    try:
        return FreeSpaceScenario.from_db(D, draw(st.floats(0.1, 1e3)), D * lo, D * hi,
                                         beta1_db, beta2_db, p_total)
    except ValueError:  # the gains overflow, or D * lo == D * hi
        assume(False)


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(scn=scenarios())
@example(scn=FreeSpaceScenario.from_db(200.0, 120.0, 30.0, 170.0, 45.0, 65.0, 4.0))
@example(scn=FreeSpaceScenario.from_db(200.0, 120.0, 0.0, 200.0, 50.0, 59.0, 5e-324))
@example(scn=FreeSpaceScenario.from_db(200.0, 1.0, 30.0, 170.0, -40.0, 135.0, 5.0))
def test_high_snr_solve_matches_the_full_selection(scn):
    # skipping condition I's search never changes the chosen case
    blk = BlocklengthParams(100, 80)
    assert repr(high_snr_solve(scn, blk)) == repr(full_selection(scn, blk))


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(scn=scenarios())
@example(scn=FreeSpaceScenario.from_db(200.0, 120.0, 30.0, 170.0, 45.0, 65.0, 4.0))
@example(scn=FreeSpaceScenario.from_db(200.0, 120.0, 30.0, 170.0, 65.0, 45.0, 4.0))
def test_condition1_bound_is_sound(scn):
    lo, hi = _crossing_power(scn, scn.d1), _crossing_power(scn, scn.d2)
    assume(lo <= hi)
    assert _condition1_bound(scn, lo, hi) >= high_snr_cases(scn)["I"].gamma_tilde


def exact_crossing_power(scn, d):
    """The crossing power of edge d, min(d b2 pt / ((D - d) b1 + d b2), pt), as a Fraction."""
    pt, b1, b2, d = map(Fraction, (scn.p_total, scn.beta1, scn.beta2, d))
    return min(d * b2 * pt / ((Fraction(scn.D) - d) * b1 + d * b2), pt)


def test_crossing_power_keeps_the_whole_budget_on_a_subnormal_budget():
    # d2 = D, so x_free crosses d2 only at p1 = p_total; d2 b2 pt is
    # subnormal and rounding it before the division lost 1.5% of the budget
    scn = FreeSpaceScenario(1.4702952198403105, 1.0, 0.12284454673924665, 1.4702952198403105,
                            9.373521276459561e+23, 1.2025849700193035e-06, 8.2277997e-317)
    assert _crossing_power(scn, scn.d2) == scn.p_total


def test_crossing_power_keeps_its_bits_on_a_subnormal_edge():
    # d1 b2 is itself subnormal: forming it at that size kept 3.2998644e-317 W
    # of the exact 3.2999633e-317 W, about 200 ulps off
    scn = FreeSpaceScenario(1.0, 1.0, 1e-320, 1.0, 1.0, 3.3, 1000.0)
    assert _crossing_power(scn, scn.d1) == float(exact_crossing_power(scn, scn.d1))


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(scn=scenarios(), right=st.booleans(), shift=st.floats(0.0, 64.0), tiny_edge=st.booleans())
def test_crossing_power_is_within_2_ulps_on_subnormal_numerators(scn, right, shift, tiny_edge):
    d = scn.d2 if right else scn.d1
    if tiny_edge:
        # the edge is moved so that d b2 itself falls below the smallest
        # normal double, by 2^-shift; the budget stays as drawn
        d = sys.float_info.min / scn.beta2 * 2.0 ** -shift
        assume(0.0 < d * scn.beta2 < sys.float_info.min)
        try:
            scn = replace(scn, d1=0.0, d2=d) if right else replace(scn, d1=d)
        except ValueError:  # d1 is not below d2
            assume(False)
    else:
        # the budget is scaled so that d b2 pt falls below the smallest normal
        # double, by 2^-shift; the edge and gain product d b2 itself stays normal
        assume(d * scn.beta2 >= sys.float_info.min)
        pt = sys.float_info.min / (d * scn.beta2) * 2.0 ** -shift
        assume(0.0 < pt <= 1e6)
        try:
            scn = replace(scn, p_total=pt)
        except ValueError:  # the gains times this budget overflow
            assume(False)
        assume(d * scn.beta2 * pt < sys.float_info.min)
    want = exact_crossing_power(scn, d)
    got = Fraction(_crossing_power(scn, d))
    assert abs(got - want) <= 2 * Fraction(math.ulp(float(want))), (scn, right, tiny_edge)
