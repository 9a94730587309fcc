"""Acceptance suite: nine numbered criteria covering the whole library.

Each criterion records one pass/fail line; the lines are printed in the
terminal summary (see conftest) and immediately when running with -s.
"""

import contextlib
import csv
import io
import math
import os
import tempfile
import time

import numpy as np

from uavrelay import (
    BlocklengthParams,
    FreeSpaceScenario,
    PowerSplit,
    bcd_solve,
    bcd_solve_3d,
    cubic_location_candidates,
    decoding_error_probability,
    exhaustive_search,
    fixed_height_baseline,
    fixed_location_baseline,
    fixed_power_baseline,
    freespace_gains,
    gamma_tilde,
    high_snr_solve,
    interior_local_maxima,
    optimal_power_for_gains,
    parse_config,
    rate_gap,
    rate_gap_derivative,
    run_experiment,
    write_rows_csv,
)

from conftest import (condition1_hessian, high_snr_cases, line_block_move, make_atg3d,
                      point_snr, random_freespace)
from test_config import ATG3D_RAW, FREESPACE_RAW, variant

RESULTS: list[tuple[int, str, str]] = []


@contextlib.contextmanager
def criterion(number: int, title: str):
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        line = f"criterion {number}: FAIL - {title}"
        RESULTS.append((number, "FAIL", title))
        print(line)
        raise
    detail = f" ({info['detail']})" if info["detail"] else ""
    RESULTS.append((number, "PASS", title + detail))
    print(f"criterion {number}: PASS - {title}{detail}")


def reference_scenario():
    return FreeSpaceScenario.from_db(200.0, 120.0, 30.0, 170.0, 50.0, 59.0, 4.0)


def test_criterion_1_error_monotone_in_snr():
    with criterion(1, "error probability nonincreasing in SNR") as info:
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        violations = 0
        trials = 10_000
        for _ in range(trials):
            bits = int(rng.integers(32, 513))
            m = int(rng.integers(16, 513))
            blk = BlocklengthParams(bits, 2 * m)
            g = 10.0 ** rng.uniform(-6.0, 6.0, size=2)
            lo, hi = float(g.min()), float(g.max())
            if decoding_error_probability(hi, blk) > decoding_error_probability(lo, blk) + 1e-12:
                violations += 1
        elapsed = time.perf_counter() - start
        assert violations == 0
        assert elapsed < 5.0
        info["detail"] = f"{trials} SNR pairs, {violations} violations, {elapsed:.2f}s"


def test_criterion_2_rate_gap_derivative():
    with criterion(2, "rate-gap derivative matches finite differences and its lower bound") as info:
        rng = np.random.default_rng(1002)
        fd_worst = 0.0
        bound_violations = 0
        points = 1000
        for _ in range(points):
            g = float(10.0 ** rng.uniform(-3.0, 5.0))
            bits = int(rng.integers(32, 513))
            m = int(rng.integers(16, 513))
            blk = BlocklengthParams(bits, 2 * m)
            got = rate_gap_derivative(g, blk)
            h = 1e-6 * max(g, 1.0)
            fd = (rate_gap(g + h, blk) - rate_gap(g - h, blk)) / (2.0 * h)
            fd_worst = max(fd_worst, abs(got - fd) / abs(fd))
            bound = math.sqrt(m) / (2.0 * math.sqrt(g * (g + 2.0)))
            if got < bound * (1.0 - 1e-12):
                bound_violations += 1
        assert fd_worst <= 1e-4
        assert bound_violations == 0
        info["detail"] = f"{points} points, worst FD mismatch {fd_worst:.2e}"


def test_criterion_3_power_split_closed_form():
    with criterion(3, "closed-form power split matches the grid argmax") as info:
        rng = np.random.default_rng(1003)
        cases = 1000
        step = 1e-5
        worst = 0.0
        for _ in range(cases):
            scn = random_freespace(rng)
            x = float(rng.uniform(scn.d1, scn.d2))
            h1, h2 = freespace_gains(scn, x)
            got = optimal_power_for_gains(h1, h2, scn.p_total)
            p1 = np.arange(step, 1.0, step) * scn.p_total
            p2 = scn.p_total - p1
            snr = h1 * h2 * p1 * p2 / (h1 * p1 + h2 * p2 + 1.0)
            best = float(p1[int(np.argmax(snr))])
            err = abs(got.p1 - best) / scn.p_total
            worst = max(worst, err)
            assert err <= 1e-4
        # near-identical gains collapse to the even split exactly
        for _ in range(50):
            h1 = float(10.0 ** rng.uniform(-6.0, -1.0))
            pt = float(rng.uniform(0.5, 10.0))
            for h2 in (h1, h1 * (1.0 + 1e-13), h1 * (1.0 - 1e-13)):
                assert optimal_power_for_gains(h1, h2, pt).p1 == 0.5 * pt
        info["detail"] = f"{cases} scenarios, worst offset {worst:.2e} of the budget"


def test_criterion_4_location_cubic():
    with criterion(4, "placement cubic roots match an independent polynomial solver") as info:
        rng = np.random.default_rng(1004)
        cases = 1000
        for _ in range(cases):
            scn = random_freespace(rng)
            frac = float(rng.uniform(0.05, 0.95))
            powers = PowerSplit(frac * scn.p_total, (1.0 - frac) * scn.p_total)
            h_sq = scn.H * scn.H
            a = 4.0
            b = -6.0 * scn.D
            c = 2.0 * (
                scn.D**2 + 2.0 * h_sq + scn.beta1 * powers.p1 + scn.beta2 * powers.p2
            )
            d = -2.0 * scn.D * (h_sq + scn.beta1 * powers.p1)
            got = cubic_location_candidates(scn, powers)
            np_roots = np.roots([a, b, c, d])
            np_real = sorted(
                float(r.real)
                for r in np_roots
                if abs(r.imag) <= 1e-7 * max(1.0, abs(r))
            )
            assert len(got) == len(np_real), (got, np_real)
            scale = max(abs(a) * scn.D**3, abs(b) * scn.D**2, abs(c) * scn.D, abs(d))
            for mine, theirs in zip(got, np_real):
                assert abs(mine - theirs) <= 1e-8 * scn.D
                res = a * mine**3 + b * mine**2 + c * mine + d
                assert abs(res) <= 1e-6 * scale
        # symmetric geometry and even powers always leave a root at D/2
        for _ in range(50):
            D = float(rng.uniform(50.0, 500.0))
            H = float(rng.uniform(10.0, 300.0))
            beta = 10.0 ** rng.uniform(3.0, 7.0)
            scn = FreeSpaceScenario(D, H, 0.1 * D, 0.9 * D, beta, beta, 4.0)
            got = cubic_location_candidates(scn, PowerSplit.even(4.0))
            assert any(abs(r - 0.5 * D) <= 1e-8 * D for r in got)
        info["detail"] = f"{cases} random cubics plus 50 symmetric cases"


def test_criterion_5_bcd_convergence():
    with criterion(5, "alternating solver converges quickly with a monotone trace") as info:
        scn = reference_scenario()
        blk = BlocklengthParams(100, 80)
        start = time.perf_counter()
        res = bcd_solve(scn, blk)
        elapsed = time.perf_counter() - start
        assert res.iterations <= 10
        assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
        assert elapsed < 0.1
        info["detail"] = f"{res.iterations} iterations, {1e3 * elapsed:.1f} ms"


def test_criterion_6_oracle_equivalence_over_blocklengths():
    with criterion(6, "solver error rates track the grid oracle across blocklengths") as info:
        scn = reference_scenario()
        start = time.perf_counter()
        worst_bcd = worst_hs = 0.0
        blocklengths = range(60, 121, 2)  # the parameter type keeps totals even
        count = 0
        for m_total in blocklengths:
            blk = BlocklengthParams(100, m_total)
            res_bcd = bcd_solve(scn, blk)
            res_hs = high_snr_solve(scn, blk)
            res_ex = exhaustive_search(scn, blk)
            res_fl = fixed_location_baseline(scn, blk)
            res_fp = fixed_power_baseline(scn, blk)
            rel_bcd = abs(res_bcd.error_prob - res_ex.error_prob) / res_ex.error_prob
            rel_hs = abs(res_hs.error_prob - res_ex.error_prob) / res_ex.error_prob
            worst_bcd = max(worst_bcd, rel_bcd)
            worst_hs = max(worst_hs, rel_hs)
            assert rel_bcd <= 1e-2, m_total
            assert rel_hs <= 1e-2, m_total
            for solver in (res_bcd, res_hs):
                for baseline in (res_fl, res_fp):
                    assert solver.error_prob <= baseline.error_prob * (1.0 + 1e-9), m_total
            count += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        info["detail"] = (
            f"{count} blocklengths, worst oracle gap {max(worst_bcd, worst_hs):.1e}, "
            f"{elapsed:.1f}s"
        )


def test_criterion_7_high_snr_internals():
    with criterion(7, "surrogate problem convexity and case selection") as info:
        rng = np.random.default_rng(1007)
        # interior-case Hessian positive definite
        for _ in range(1000):
            scn = random_freespace(rng)
            p1 = float(rng.uniform(0.01, 0.99)) * scn.p_total
            eigs = np.linalg.eigvalsh(condition1_hessian(scn, p1, scn.p_total - p1))
            assert eigs.min() > 0.0
        # left-edge power profile concave: nonpositive second differences
        for _ in range(50):
            scn = random_freespace(rng)
            p1 = np.linspace(1e-3, 1.0 - 1e-3, 2001) * scn.p_total
            p2 = scn.p_total - p1
            d1_sq = scn.H**2 + scn.d1**2
            d2_sq = scn.H**2 + (scn.D - scn.d1) ** 2
            vals = (
                scn.beta1 * scn.beta2 * p1 * p2
                / (scn.beta2 * p2 * d1_sq + scn.beta1 * p1 * d2_sq)
            )
            second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
            assert second.max() <= 1e-12 * float(np.abs(vals).max())
        # the selected case is never worse than any feasible case
        blk = BlocklengthParams(100, 80)
        for _ in range(200):
            scn = random_freespace(rng)
            best = max(r.gamma_tilde for r in high_snr_cases(scn).values())
            res = high_snr_solve(scn, blk)
            assert gamma_tilde(scn, res.x, res.powers) >= best * (1.0 - 1e-12)
        info["detail"] = "1000 Hessians, 50 concavity sweeps, 200 selections"


def test_criterion_8_air_to_ground_suite():
    with criterion(8, "air-to-ground height/offset behaviour and 3-D solver dominance") as info:
        start = time.perf_counter()
        presets = ("suburban", "urban", "dense-urban", "high-rise")
        powers = PowerSplit.even(4.0)

        # (a) exactly one interior local maximum of gamma(H) at x = 100 m
        for preset in presets:
            scn = make_atg3d(preset)
            heights = np.arange(scn.h_min, scn.h_max + 1e-9, 1.0)
            curve = [point_snr(scn, 100.0, float(h), powers) for h in heights]
            assert len(interior_local_maxima(curve)) == 1, preset

        # (b) the solvers' height and offset blocks never lose to a metre-spaced grid
        for preset in presets:
            scn = make_atg3d(preset)
            for x in (50.0, 100.0, 150.0):
                h_star = line_block_move(scn, 1, x, powers)
                grid = max(
                    point_snr(scn, x, float(h), powers)
                    for h in np.arange(scn.h_min, scn.h_max + 1e-9, 1.0)
                )
                assert point_snr(scn, x, h_star, powers) >= grid * (1.0 - 1e-6), preset
            for h in (30.0, 100.0, 170.0):
                x_star = line_block_move(scn, 0, h, powers)
                grid = max(
                    point_snr(scn, float(x), h, powers)
                    for x in np.arange(scn.d1, scn.d2 + 1e-9, 1.0)
                )
                assert point_snr(scn, x_star, h, powers) >= grid * (1.0 - 1e-6), preset

        # (c) the 3-D solver weakly dominates the fixed-height baseline
        margins = []
        for preset in presets:
            scn = make_atg3d(preset)
            res = bcd_solve_3d(scn)
            base = fixed_height_baseline(scn, height=100.0)
            assert res.snr >= base.snr * (1.0 - 1e-12), preset
            margins.append(res.snr / base.snr - 1.0)
        assert max(margins) > 0.0
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        info["detail"] = (
            f"4 environments, best fixed-height margin {max(margins):.0%}, {elapsed:.1f}s"
        )


def _sweep_csv_without_wall_time(config) -> tuple[str, tuple]:
    """Run the sweep, write the CSV, and return it minus the last column."""
    results, _, _ = run_experiment(config)
    with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as fh:
        path = fh.name
    try:
        write_rows_csv(results, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row[:-1] for row in csv.reader(fh)]
    finally:
        os.unlink(path)
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue(), results


def test_criterion_9_harness_determinism():
    with criterion(9, "sweep reruns are byte-identical and rows re-derive") as info:
        fs_cfg = parse_config(variant(
            FREESPACE_RAW,
            solvers=["bcd", "high-snr", "exhaustive", "fixed-location", "fixed-power"],
            sweep={"parameter": "total_blocklength", "values": [60, 80, 100, 120]},
        ))
        atg_cfg = parse_config(variant(
            ATG3D_RAW,
            solvers=["bcd", "fixed-height"],
            sweep={
                "parameter": "hop2_environment",
                "values": ["suburban", "urban", "dense-urban", "high-rise"],
            },
        ))
        checked = 0
        for cfg in (fs_cfg, atg_cfg):
            first, rows_a = _sweep_csv_without_wall_time(cfg)
            second, rows_b = _sweep_csv_without_wall_time(cfg)
            assert first == second
            for row in rows_a:
                assert row["status"] == "ok"
                if cfg.sweep_parameter == "total_blocklength":
                    blk = BlocklengthParams(cfg.blk.packet_bits, int(row["sweep_value"]))
                else:
                    blk = cfg.blk
                want = decoding_error_probability(row["snr"], blk)
                assert abs(row["error_prob"] - want) <= 1e-12 * max(want, 1e-300)
                checked += 1
        info["detail"] = f"2 sweep configs, {checked} rows re-derived"
