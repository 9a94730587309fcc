"""Air-to-ground 3-D solver: line searches against metre-scale grids,
height monotonicity in the no-excess-loss case, the alternating
solver against the dense-grid oracle, and the exact outputs of the 3-D
solvers on scenarios beyond the shipped configs.

Regenerate ``tests/golden/atg3d_solves.json`` (after a deliberate change
of the numbers) with

    PYTHONPATH=src python tests/test_atg3d.py

which first prints each (scenario, solver) record that changed and the
fields that moved.

Its ``gain_calls`` are the hop_gains_3d calls each solve made before the
solvers kept a gain memo; regenerating keeps them, and only a scenario
new to the file gets the current count.
"""

import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavrelay import (
    ATG_PRESETS,
    AtgEnvironment,
    Atg3dScenario,
    BlocklengthParams,
    PowerSplit,
    bcd_solve_3d,
    decoding_error_probability,
    exhaustive_search,
    fixed_height_baseline,
    hop_gains_3d,
    interior_local_maxima,
    replace,
)
from uavrelay import atg3d, oracle
from uavrelay.freespace import BCD_MAX_ITERS
from uavrelay.oracle import fixed_power_baseline
from uavrelay.search import FALLBACK_POINTS

from conftest import (
    CARRIER_HZ, NOISE_DB, line_block_move, make_atg3d, point_snr, rewrite_golden, solve_record,
)
from test_channels import mp_hop_gains
from test_search import derivative_bisection_max

# converged outputs of this library on the reference geometry
# (suburban source hop, 2.5 GHz, -93 dB noise, 4 W, L=100, M=80)
BCD3D_REFERENCE = {
    "suburban": (100.00, 37.07, 2.0000, 14.90005800),
    "urban": (151.89, 50.84, 2.6620, 11.36851183),
    "dense-urban": (172.20, 54.85, 2.7842, 9.50059532),
    "high-rise": (200.00, 56.52, 2.5568, 5.34113731),
}


def test_hop_gains_match_channel_model(atg3d_scn):
    # one placement of the reference geometry (suburban, then urban hop)
    x, h = 120.0, 80.0
    want = mp_hop_gains(("suburban", "urban"), CARRIER_HZ, NOISE_DB, atg3d_scn.D, x, h)
    assert hop_gains_3d(atg3d_scn, x, h) == pytest.approx(want, rel=1e-14)


def test_hop_gains_equal_scalar_reference(blk):
    # every preset pair against the 40-digit scalar model, at random
    # placements, the segment ends, the box corners and a near-zero height
    rng = np.random.default_rng(7)
    for hop1 in ATG_PRESETS:
        for hop2 in ATG_PRESETS:
            D = float(rng.uniform(100.0, 800.0))
            noise_db = float(rng.uniform(-120.0, -60.0))
            scn = Atg3dScenario(
                D, 0.1 * D, 0.9 * D, 5.0, 400.0,
                AtgEnvironment.from_preset(hop1, 2.5e9, noise_db),
                AtgEnvironment.from_preset(hop2, 2.5e9, noise_db),
                4.0, blk,
            )
            points = [(float(x), float(h)) for x, h in zip(
                rng.uniform(0.0, D, 50), rng.uniform(1e-3, 1000.0, 50))]
            points += [(x, h) for x in (0.0, scn.d1, scn.d2, D)
                       for h in (scn.h_min, scn.h_max, 1e-9)]
            for x, h in points:
                want = mp_hop_gains((hop1, hop2), 2.5e9, noise_db, D, x, h)
                assert hop_gains_3d(scn, x, h) == pytest.approx(want, rel=1e-13, abs=0.0), (x, h)


def attribute_hop_gains(scn, x, height):
    """hop_gains_3d's float expression, every constant read off scn and its
    environments when it is used."""
    x2 = scn.D - x
    theta1 = math.degrees(math.atan2(height, x))
    theta2 = math.degrees(math.atan2(height, x2))
    r1 = math.hypot(x, height)
    r2 = math.hypot(x2, height)
    s1 = 1.0 / (1.0 + scn.env1.s_curve_a
                * math.exp(-scn.env1.s_curve_b * (theta1 - scn.env1.s_curve_a)))
    s2 = 1.0 / (1.0 + scn.env2.s_curve_a
                * math.exp(-scn.env2.s_curve_b * (theta2 - scn.env2.s_curve_a)))
    return (
        scn.env1.gain_scale / (r1 * r1) * 10.0 ** (scn.env1.gain_exponent * s1),
        scn.env2.gain_scale / (r2 * r2) * 10.0 ** (scn.env2.gain_exponent * s2),
    )


def test_hop_gains_read_the_constants_gathered_at_construction(blk):
    # the same floats as reading every constant at each call, for every
    # preset pair at the box corners, both signed zeros, x = D and random points
    rng = random.Random(11)
    for hop1, hop2 in itertools.product(ATG_PRESETS, repeat=2):
        D, noise_db = rng.uniform(100.0, 800.0), rng.uniform(-120.0, -60.0)
        scn = Atg3dScenario(
            D, rng.uniform(0.0, 0.25) * D, rng.uniform(0.75, 1.0) * D,
            rng.uniform(5.0, 40.0), rng.uniform(100.0, 400.0),
            AtgEnvironment.from_preset(hop1, CARRIER_HZ, noise_db),
            AtgEnvironment.from_preset(hop2, CARRIER_HZ, noise_db),
            rng.uniform(0.1, 20.0), blk,
        )
        points = [(x, h) for x in (scn.d1, scn.d2, 0.0, -0.0, D)
                  for h in (scn.h_min, scn.h_max)]
        points += [(rng.uniform(0.0, D), rng.uniform(1e-3, 1000.0)) for _ in range(100)]
        for x, h in points:
            got = [g.hex() for g in hop_gains_3d(scn, x, h)]
            assert got == [g.hex() for g in attribute_hop_gains(scn, x, h)], (hop1, hop2, x, h)


def test_replaced_scenario_gathers_its_own_constants(blk):
    # profile_curves swaps env2 with replace, and a sweep point
    # swaps p_total; each must give the gains of a freshly built scenario
    base = make_atg3d("suburban", blk)
    for preset in ATG_PRESETS:
        env2 = AtgEnvironment.from_preset(preset, CARRIER_HZ, -80.0)
        swapped = replace(base, env2=env2, p_total=2.0)
        fresh = Atg3dScenario(base.D, base.d1, base.d2, base.h_min, base.h_max,
                              base.env1, env2, 2.0, blk)
        assert swapped.gain_constants == fresh.gain_constants
        for x, h in ((20.0, 10.0), (100.0, 57.3), (200.0, 200.0)):
            assert hop_gains_3d(swapped, x, h) == attribute_hop_gains(fresh, x, h)


def test_gain_constants_stay_out_of_repr_eq_and_hash(blk):
    scn = make_atg3d("urban", blk)
    other = make_atg3d("urban", blk)
    object.__setattr__(other, "gain_constants", ())
    assert other == scn and hash(other) == hash(scn)
    assert "gain_constants" not in repr(scn) and repr(other) == repr(scn)
    with pytest.raises(TypeError):
        Atg3dScenario(scn.D, scn.d1, scn.d2, scn.h_min, scn.h_max, scn.env1, scn.env2,
                      scn.p_total, blk, ())


def test_scenario_validation(blk):
    env = AtgEnvironment.from_preset("urban", 2.5e9, -93.0)
    with pytest.raises(ValueError, match=r"^D must be positive and finite, got -1.0$"):
        Atg3dScenario(-1.0, 20.0, 200.0, 10.0, 200.0, env, env, 4.0, blk)
    with pytest.raises(ValueError, match=r"^height bounds must satisfy 0 < h_min < h_max"):
        Atg3dScenario(200.0, 20.0, 200.0, 200.0, 10.0, env, env, 4.0, blk)  # h_min > h_max
    for h_max in (math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^height bounds must satisfy 0 < h_min < h_max "
                                             r"and be finite, got h_min=10.0, h_max="):
            Atg3dScenario(200.0, 20.0, 200.0, 10.0, h_max, env, env, 4.0, blk)
    with pytest.raises(ValueError, match=r"^offset bounds must satisfy 0 <= d1 < d2 <= D, "
                                         r"got d1=220.0, d2=200.0, D=200.0$"):
        Atg3dScenario(200.0, 220.0, 200.0, 10.0, 200.0, env, env, 4.0, blk)
    with pytest.raises(ValueError, match=r"^p_total must be positive and finite, got inf$"):
        Atg3dScenario(200.0, 20.0, 200.0, 10.0, 200.0, env, env, math.inf, blk)
    # gains near 1e292 per hop: their product overflows
    loud = AtgEnvironment.from_preset("urban", 2.5e9, -3000.0)
    with pytest.raises(ValueError, match=r"^hop gains overflow: the gain product bound "
                                         r"g1 g2 p_total\^2 is inf "
                                         r"\(noise power -3000.0 / -3000.0 dB\)$"):
        Atg3dScenario(200.0, 20.0, 200.0, 10.0, 200.0, loud, loud, 4.0, blk)


def test_no_excess_loss_prefers_lowest_height(blk):
    # equal LoS/NLoS losses: climbing only adds distance, so the best
    # height is the floor
    env = AtgEnvironment(9.61, 0.16, 1.0, 1.0, 2.5e9, -93.0)
    assert env.gain_exponent == 0.0
    scn = Atg3dScenario(200.0, 20.0, 200.0, 10.0, 200.0, env, env, 4.0, blk)
    h = line_block_move(scn, 1, 100.0, PowerSplit.even(4.0))
    assert h == pytest.approx(10.0, abs=1e-6)


def test_interior_height_peak_counts():
    # one strict interior peak of gamma(H) at x = 100 m per environment
    for preset in ("suburban", "urban", "dense-urban", "high-rise"):
        scn = make_atg3d(preset)
        ps = PowerSplit.even(4.0)
        heights = np.arange(scn.h_min, scn.h_max + 1e-9, 1.0)
        vals = [point_snr(scn, 100.0, h, ps) for h in heights]
        assert len(interior_local_maxima(vals)) == 1, preset


def test_height_block_beats_metre_grid():
    for preset in ("suburban", "urban", "dense-urban", "high-rise"):
        scn = make_atg3d(preset)
        ps = PowerSplit.even(4.0)
        for x in (20.0, 100.0, 180.0):
            h_star = line_block_move(scn, 1, x, ps)
            grid_best = max(
                point_snr(scn, x, h, ps)
                for h in np.arange(scn.h_min, scn.h_max + 1e-9, 1.0)
            )
            assert point_snr(scn, x, h_star, ps) >= grid_best * (1 - 1e-6)


def test_height_block_bisect_agrees(atg3d_scn):
    # the golden-section search against the finite-difference bisection
    scn, ps = atg3d_scn, PowerSplit.even(4.0)
    tol = 1e-4 * (scn.h_max - scn.h_min)
    for x in (50.0, 100.0, 150.0):
        hg = line_block_move(scn, 1, x, ps)
        hb, _ = derivative_bisection_max(lambda h: point_snr(scn, x, h, ps),
                                         scn.h_min, scn.h_max, tol)
        gg = point_snr(scn, x, hg, ps)
        gb = point_snr(scn, x, hb, ps)
        assert gb == pytest.approx(gg, rel=1e-6)


def test_offset_block_beats_metre_grid(atg3d_scn):
    ps = PowerSplit.even(4.0)
    for h in (20.0, 60.0, 150.0):
        x_star = line_block_move(atg3d_scn, 0, h, ps)
        grid_best = max(
            point_snr(atg3d_scn, x, h, ps)
            for x in np.arange(atg3d_scn.d1, atg3d_scn.d2 + 1e-9, 1.0)
        )
        assert point_snr(atg3d_scn, x_star, h, ps) >= grid_best * (1 - 1e-6)


def test_offset_block_keeps_the_sign_of_a_zero_bound(blk):
    # the SNR falls along x from a box edge given as -0.0: the block returns
    # that bound as given, not the 0.0 + lo that the pre-sample grid starts at
    env = AtgEnvironment.from_preset("high-rise", 2.5e9, -93.0)
    scn = Atg3dScenario(200.0, -0.0, 50.0, 10.0, 200.0, env, env, 4.0, blk)
    assert repr(line_block_move(scn, 0, 50.0, PowerSplit(0.001, 3.999))) == "-0.0"


def test_bcd3d_reference_scenarios():
    for preset, (want_x, want_h, want_p1, want_g) in BCD3D_REFERENCE.items():
        res = bcd_solve_3d(make_atg3d(preset))
        assert res.solver == "bcd"
        assert res.snr == pytest.approx(want_g, rel=1e-6), preset
        assert res.x == pytest.approx(want_x, abs=0.25), preset
        assert res.height == pytest.approx(want_h, abs=0.25), preset
        assert res.powers.p1 == pytest.approx(want_p1, abs=5e-3), preset


def test_bcd3d_trace_monotone_and_error_consistent():
    scn = make_atg3d("dense-urban")
    res = bcd_solve_3d(scn)
    assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
    assert res.error_prob == pytest.approx(
        decoding_error_probability(res.snr, scn.blk), rel=1e-14, abs=0.0
    )


def test_bcd3d_respects_bounds():
    for preset in ("suburban", "high-rise"):
        scn = make_atg3d(preset)
        res = bcd_solve_3d(scn)
        assert scn.d1 <= res.x <= scn.d2
        assert scn.h_min <= res.height <= scn.h_max
        assert res.powers.p1 + res.powers.p2 == pytest.approx(scn.p_total, rel=1e-12)


def test_bcd3d_agrees_with_dense_oracle():
    for preset in ("urban", "high-rise"):
        scn = make_atg3d(preset)
        res = bcd_solve_3d(scn)
        oracle = exhaustive_search(scn)
        assert res.snr == pytest.approx(oracle.snr, rel=1e-3), preset


def test_bcd3d_dominates_fixed_height():
    margins = []
    for preset in ("suburban", "urban", "dense-urban", "high-rise"):
        scn = make_atg3d(preset)
        res = bcd_solve_3d(scn)
        base = fixed_height_baseline(scn)
        assert res.snr >= base.snr * (1 - 1e-12), preset
        margins.append(res.snr - base.snr)
    assert max(margins) > 0.0


GOLDEN_SOLVES = Path(__file__).resolve().parent / "golden" / "atg3d_solves.json"
SOLVERS_3D = {
    "bcd": bcd_solve_3d,
    "fixed-power": fixed_power_baseline,
    "fixed-height": fixed_height_baseline,
}


def golden_scenarios():
    """Name -> scenario: every hop-preset pair on its own box, then two more.

    "fallback" has a height line with several interior peaks, so its line
    searches fall back to the dense grid; on "cap" bcd_solve_3d creeps up
    a ridge until BCD_MAX_ITERS.
    """
    blk = BlocklengthParams(100, 80)
    cases = {}
    for i, (hop1, hop2) in enumerate(itertools.product(ATG_PRESETS, repeat=2)):
        D = 150.0 + 45.0 * i
        cases[f"{hop1}/{hop2}"] = (
            hop1, hop2, D, 0.05 * (i % 4) * D, D - 0.05 * (i // 4) * D,
            5.0 + 2.5 * i, 105.0 + 22.5 * i, -110.0 + 3.0 * i, 0.5 + 1.25 * i)
    cases["fallback"] = ("urban", "urban", 703.0, 140.0, 667.0, 34.0, 181.0, -71.0, 13.5)
    cases["cap"] = ("high-rise", "high-rise", 317.0, 11.0, 272.0, 18.0, 230.0, -110.0, 9.6)
    return {
        name: Atg3dScenario(D, d1, d2, h_min, h_max,
                            AtgEnvironment.from_preset(hop1, CARRIER_HZ, noise_db),
                            AtgEnvironment.from_preset(hop2, CARRIER_HZ, noise_db),
                            p_total, blk)
        for name, (hop1, hop2, D, d1, d2, h_min, h_max, noise_db, p_total) in cases.items()
    }


def solve_counting_gains(solve, scn):
    """Run solve(scn); return the result and every (x, height) it evaluated."""
    points = []
    real = atg3d.hop_gains_3d

    def counted(scn, x, height):
        points.append((x, height))
        return real(scn, x, height)

    atg3d.hop_gains_3d = counted
    try:
        return solve(scn), points
    finally:
        atg3d.hop_gains_3d = real


def test_3d_solves_match_golden():
    golden = json.loads(GOLDEN_SOLVES.read_text())
    scenarios = golden_scenarios()
    assert sorted(golden) == sorted(scenarios)
    for name, scn in scenarios.items():
        for solver, solve in SOLVERS_3D.items():
            want = dict(golden[name][solver])
            del want["gain_calls"]
            assert solve_record(solve(scn)) == want, (name, solver)
    assert golden["cap"]["bcd"]["iterations"] == BCD_MAX_ITERS


def test_memo_evaluates_each_point_once_per_line_search(monkeypatch):
    # within one line search, its pre-sample included, no point is
    # evaluated twice, and over the golden scenarios the solves make at
    # most 0.65x the pinned calls, which were counted before the gain memo
    golden = json.loads(GOLDEN_SOLVES.read_text())
    real_gains, real_search = atg3d.hop_gains_3d, atg3d.line_search_max
    real_line_block = atg3d._line_block
    points = []
    start = 0
    per_search = []
    fell_back = []

    def gains(scn, x, height):
        points.append((x, height))
        return real_gains(scn, x, height)

    def line_block(scn, axis):
        block = real_line_block(scn, axis)

        def marked(state):
            # the block scores its pre-sample before it calls the search
            nonlocal start
            start = len(points)
            return block(state)

        return marked

    def search(f, xs, vals, tol):
        evals = []
        best = real_search(lambda t: evals.append(t) or f(t), xs, vals, tol)
        per_search.append(points[start:])
        fell_back.append(len(evals) >= FALLBACK_POINTS)
        return best

    monkeypatch.setattr(atg3d, "hop_gains_3d", gains)
    for module in (atg3d, oracle):
        monkeypatch.setattr(module, "_line_block", line_block)
    monkeypatch.setattr(atg3d, "line_search_max", search)
    pinned = 0
    for name, scn in golden_scenarios().items():
        for solver, solve in SOLVERS_3D.items():
            solve(scn)
            pinned += golden[name][solver]["gain_calls"]
    assert any(fell_back)
    for evaluated in per_search:
        assert len(set(evaluated)) == len(evaluated)
    assert len(points) <= 0.65 * pinned


# line searches of the golden solves; 505 before each solve kept its
# search results, when a stalled last cycle searched its lines again
GOLDEN_LINE_SEARCHES = 435


def test_no_line_search_repeats_within_a_solve(monkeypatch):
    # each search is tagged with its line (axis and fixed coordinate), its
    # powers and its bounds; within one solve no tag may appear twice
    real_line_block, real_search = atg3d._line_block, atg3d.line_search_max
    line = None
    searches = []

    def line_block(scn, axis):
        block = real_line_block(scn, axis)

        def tagged(state):
            nonlocal line
            line = (axis, state[1 - axis], state[3].p1, state[3].p2)
            return block(state)

        return tagged

    def search(f, xs, vals, tol):
        searches.append((*line, xs[0], xs[-1]))
        return real_search(f, xs, vals, tol)

    for module in (atg3d, oracle):
        monkeypatch.setattr(module, "_line_block", line_block)
    monkeypatch.setattr(atg3d, "line_search_max", search)
    total = 0
    for name, scn in golden_scenarios().items():
        for solver, solve in SOLVERS_3D.items():
            searches.clear()
            solve(scn)
            assert len(set(searches)) == len(searches), (name, solver)
            total += len(searches)
    assert total == GOLDEN_LINE_SEARCHES


@settings(derandomize=True, deadline=None, max_examples=2000)
@given(t=st.floats(0.0, math.pi / 2))
@example(t=0.0)
@example(t=-0.0)
@example(t=5e-324)
@example(t=2.225073858507201e-308)
@example(t=math.pi / 2)
def test_degrees_constant_matches_math_degrees(t):
    # hop_gains_3d converts its elevation angles with this product
    assert (t * atg3d._DEGREES).hex() == math.degrees(t).hex()


def test_memo_keys_are_exact(blk):
    # the line blocks key gains on floats: 0.0 == -0.0 share a key, so both
    # must give the same gains, and NaN never equals a key, so it must raise
    # each time
    for hop1, hop2 in itertools.product(ATG_PRESETS, repeat=2):
        scn = Atg3dScenario(200.0, 0.0, 200.0, 10.0, 200.0,
                            AtgEnvironment.from_preset(hop1, CARRIER_HZ, -93.0),
                            AtgEnvironment.from_preset(hop2, CARRIER_HZ, -93.0), 4.0, blk)
        for h in (scn.h_min, 57.3, scn.h_max):
            assert ([g.hex() for g in hop_gains_3d(scn, -0.0, h)]
                    == [g.hex() for g in hop_gains_3d(scn, 0.0, h)]), (hop1, hop2, h)
    scn, ps = make_atg3d("urban", blk), PowerSplit.even(4.0)
    offset_block, height_block = atg3d._line_block(scn, 0), atg3d._line_block(scn, 1)
    gains = hop_gains_3d(scn, 100.0, 100.0)
    for call in (lambda: height_block((math.nan, 100.0, gains, ps)),
                 lambda: offset_block((100.0, math.nan, gains, ps))):
        messages = []
        for _ in range(3):
            with pytest.raises(ValueError) as exc:
                call()
            messages.append(str(exc.value))
        assert len(set(messages)) == 1, messages


if __name__ == "__main__":
    pinned = json.loads(GOLDEN_SOLVES.read_text()) if GOLDEN_SOLVES.exists() else {}
    table = {}
    for name, scn in golden_scenarios().items():
        table[name] = {}
        for solver, solve in SOLVERS_3D.items():
            res, points = solve_counting_gains(solve, scn)
            calls = pinned.get(name, {}).get(solver, {}).get("gain_calls", len(points))
            table[name][solver] = {**solve_record(res), "gain_calls": calls}
    rewrite_golden(GOLDEN_SOLVES, table)
