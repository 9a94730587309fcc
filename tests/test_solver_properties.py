"""Every free-space solver on random scenarios: a feasible row or a refusal.

Scenarios span reference gains from -60 to 160 dB, heights from 1 to
200 m, any placement band and budgets from 0.1 to 10 W.  That reaches
SNRs far below 1e-16 (where 1 + SNR rounds to 1) and gain gaps of more
than 200 dB between the hops (where the high-SNR edge root must not
cancel).  A scenario the constructor refuses is fine; a scenario it
accepts must give, from every solver, a placement inside the band, powers
that are non-negative and within the budget, and an error probability.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from uavrelay import (
    BlocklengthParams,
    FreeSpaceScenario,
    GridSpec,
    bcd_solve,
    exhaustive_search,
    fixed_location_baseline,
    fixed_power_baseline,
    high_snr_solve,
)

BLK = BlocklengthParams(100, 80)
GRID = GridSpec(x=60, p1=60)
SOLVERS = (
    bcd_solve,
    high_snr_solve,
    lambda scn, blk: exhaustive_search(scn, blk, GRID),
    fixed_location_baseline,
    fixed_power_baseline,
)

unit = st.floats(0.0, 1.0)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    D=st.floats(1.0, 1000.0),
    band=st.tuples(unit, unit).map(sorted),
    H=st.floats(1.0, 200.0),
    beta1_db=st.floats(-60.0, 160.0),
    beta2_db=st.floats(-60.0, 160.0),
    p_total=st.floats(0.1, 10.0),
)
def test_free_space_solvers_return_feasible_rows(D, band, H, beta1_db, beta2_db, p_total):
    try:
        scn = FreeSpaceScenario.from_db(D, H, band[0] * D, band[1] * D,
                                        beta1_db, beta2_db, p_total)
    except ValueError:
        return  # refused at construction, e.g. an empty band
    for solve in SOLVERS:
        res = solve(scn, BLK)
        assert scn.d1 <= res.x <= scn.d2, res
        assert res.height == scn.H
        p1, p2 = res.powers.p1, res.powers.p2
        assert p1 >= 0.0 and p2 >= 0.0 and p1 + p2 <= p_total * (1.0 + 1e-12), res
        assert math.isfinite(res.snr) and res.snr >= 0.0, res
        assert 0.0 <= res.error_prob <= 1.0, res
