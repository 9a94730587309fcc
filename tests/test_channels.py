"""Channel-model checks: free-space gains, the air-to-ground S-curve
model, and the geometry helpers.

ATG reference values are frozen from a 40-digit mpmath implementation
written separately from the library.
"""

import math

import pytest

from uavrelay import (
    ATG_PRESETS,
    AtgEnvironment,
    FreeSpaceScenario,
    atg_normalized_gain,
    db_to_linear,
    elevation_angles,
    freespace_gains,
    linear_to_db,
    los_probability,
    mean_path_loss,
    slant_distances,
)

# (preset, x, height) -> (theta_deg, P_LoS, path_loss_dB, normalized_gain)
# carrier 2.5 GHz, noise power -93 dB
ATG_REFERENCE = {
    ("suburban", 100.0, 100.0): (45.0, 0.99999984291125511, 83.516668123432044, 8.8783689300985608),
    ("urban", 100.0, 100.0): (45.0, 0.96769189994724234, 85.030518741279671, 6.2653902350359493),
    ("dense-urban", 100.0, 100.0): (45.0, 0.75577408193864573, 90.243099486790257, 1.8866444020776555),
    ("high-rise", 100.0, 100.0): (45.0, 0.1320768404904893, 113.22982899672877, 0.0094845580797357705),
    ("suburban", 150.0, 60.0): (21.801409486351812, 0.99663534949447873, 84.743091152585668, 6.6940797918681383),
    ("high-rise", 20.0, 10.0): (26.565051177077989, 0.033649929073206963, 100.32936217537699, 0.18495402309204737),
}


def test_db_conversions_roundtrip():
    for v in (1e-6, 0.5, 1.0, 794328.2347242822):
        assert db_to_linear(linear_to_db(v)) == pytest.approx(v, rel=1e-12)
    assert db_to_linear(50.0) == pytest.approx(1e5, rel=1e-12)
    assert linear_to_db(1.0) == 0.0


def test_preset_table():
    assert set(ATG_PRESETS) == {"suburban", "urban", "dense-urban", "high-rise"}
    assert ATG_PRESETS["suburban"] == (4.88, 0.43, 0.1, 21.0)
    assert ATG_PRESETS["urban"] == (9.61, 0.16, 1.0, 20.0)
    assert ATG_PRESETS["dense-urban"] == (12.08, 0.11, 1.6, 23.0)
    assert ATG_PRESETS["high-rise"] == (27.23, 0.08, 2.3, 34.0)


def test_unknown_preset():
    with pytest.raises(ValueError):
        AtgEnvironment.from_preset("rural", 2.5e9, -93.0)


def test_freespace_scenario_validation():
    with pytest.raises(ValueError):
        FreeSpaceScenario.from_db(200.0, 120.0, 170.0, 30.0, 50.0, 59.0, 4.0)  # d1 > d2
    with pytest.raises(ValueError):
        FreeSpaceScenario.from_db(200.0, 120.0, -1.0, 170.0, 50.0, 59.0, 4.0)
    with pytest.raises(ValueError):
        FreeSpaceScenario.from_db(200.0, 120.0, 30.0, 201.0, 50.0, 59.0, 4.0)  # d2 > D
    with pytest.raises(ValueError):
        FreeSpaceScenario.from_db(200.0, 0.0, 30.0, 170.0, 50.0, 59.0, 4.0)
    with pytest.raises(ValueError):
        FreeSpaceScenario.from_db(200.0, 120.0, 30.0, 170.0, 50.0, 59.0, 0.0)
    # 1e300 per hop: beta1 beta2 overflows
    with pytest.raises(ValueError, match="overflow"):
        FreeSpaceScenario.from_db(200.0, 120.0, 30.0, 170.0, 3000.0, 3000.0, 4.0)
    # a finite bound (~8e200) is accepted
    FreeSpaceScenario.from_db(200.0, 120.0, 30.0, 170.0, 1040.0, 1040.0, 4.0)
    # each term of the cubic / high-SNR bound just under the float range,
    # then 0.2 dB over it: the cubic's 1728 (D + 1) reach, the cross gains
    # and the surrogate's b1 b2 products
    for beta1_db, beta2_db, p_total in ((3021.0, -10.0, 4.0), (3033.4, -10.0, 1e-50),
                                        (1518.2, 1518.2, 1e-50)):
        FreeSpaceScenario.from_db(200.0, 1.0, 0.0, 170.0, beta1_db, beta2_db, p_total)
        with pytest.raises(ValueError, match="high-SNR cross gains overflow"):
            FreeSpaceScenario.from_db(200.0, 1.0, 0.0, 170.0, beta1_db + 0.2, beta2_db, p_total)


def test_freespace_gains(freespace_scn):
    h1, h2 = freespace_gains(freespace_scn, 50.0)
    assert h1 == pytest.approx(1e5 / (120.0**2 + 50.0**2), rel=1e-14)
    assert h2 == pytest.approx(db_to_linear(59.0) / (120.0**2 + 150.0**2), rel=1e-14)
    with pytest.raises(ValueError):
        freespace_gains(freespace_scn, 29.0)  # outside the placement band
    with pytest.raises(ValueError):
        freespace_gains(freespace_scn, 171.0)


def test_freespace_gain_decreases_with_hop_distance(freespace_scn):
    h1_near, _ = freespace_gains(freespace_scn, 30.0)
    h1_far, _ = freespace_gains(freespace_scn, 170.0)
    assert h1_near > h1_far


def test_elevation_angles():
    t1, t2 = elevation_angles(200.0, 100.0, 100.0)
    assert t1 == pytest.approx(45.0, abs=1e-12)
    assert t2 == pytest.approx(45.0, abs=1e-12)
    t1, t2 = elevation_angles(200.0, 50.0, 86.602540378443865)
    assert t1 == pytest.approx(60.0, rel=1e-12)
    # directly overhead the source
    t1, _ = elevation_angles(200.0, 0.0, 120.0)
    assert t1 == pytest.approx(90.0, abs=1e-12)


def test_slant_distances():
    r1, r2 = slant_distances(200.0, 60.0, 80.0)
    assert r1 == pytest.approx(100.0, rel=1e-14)
    assert r2 == pytest.approx(math.hypot(140.0, 80.0), rel=1e-14)


def test_atg_frozen_reference_values():
    for (preset, x, h), (want_t, want_p, want_l, want_g) in ATG_REFERENCE.items():
        env = AtgEnvironment.from_preset(preset, 2.5e9, -93.0)
        theta = math.degrees(math.atan2(h, x))
        d = math.hypot(x, h)
        assert theta == pytest.approx(want_t, rel=1e-13)
        assert los_probability(env, theta) == pytest.approx(want_p, rel=1e-12)
        assert mean_path_loss(env, theta, d) == pytest.approx(want_l, rel=1e-12)
        assert atg_normalized_gain(env, theta, d) == pytest.approx(want_g, rel=1e-12)


def test_atg_gain_pathloss_identity(suburban):
    # normalized gain is exactly 10^(-L/10) / noise for every geometry
    for x, h in ((100.0, 100.0), (35.0, 177.0), (180.0, 12.0), (5.0, 199.0)):
        theta = math.degrees(math.atan2(h, x))
        d = math.hypot(x, h)
        lhs = atg_normalized_gain(suburban, theta, d)
        rhs = 10.0 ** (-mean_path_loss(suburban, theta, d) / 10.0) / suburban.noise_power_linear
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_los_probability_monotone_in_elevation(suburban):
    probs = [los_probability(suburban, t) for t in range(0, 91, 5)]
    assert all(b > a for a, b in zip(probs, probs[1:]))
    assert probs[-1] == pytest.approx(1.0, abs=1e-6)


def test_los_probability_ordering_across_environments():
    # denser environments block more at the same elevation
    theta = 30.0
    values = [
        los_probability(AtgEnvironment.from_preset(p, 2.5e9, -93.0), theta)
        for p in ("suburban", "urban", "dense-urban", "high-rise")
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_elevation_range_enforced(suburban):
    with pytest.raises(ValueError):
        los_probability(suburban, -1.0)
    with pytest.raises(ValueError):
        los_probability(suburban, 90.5)


def test_mean_path_loss_increases_with_distance(suburban):
    theta = 45.0
    losses = [mean_path_loss(suburban, theta, d) for d in (50.0, 100.0, 200.0, 400.0)]
    assert all(b > a for a, b in zip(losses, losses[1:]))
    # distance doubling adds 6.02 dB at fixed elevation
    assert losses[1] - losses[0] == pytest.approx(20.0 * math.log10(2.0), rel=1e-12)


def test_excess_loss_gap_sign():
    for preset in ATG_PRESETS:
        env = AtgEnvironment.from_preset(preset, 2.5e9, -93.0)
        assert env.excess_loss_gap_db <= 0.0
        assert env.gain_exponent >= 0.0


def test_environment_validation():
    with pytest.raises(ValueError):
        AtgEnvironment(4.88, 0.43, 21.0, 0.1, 2.5e9, -93.0)  # LoS loss above NLoS
    with pytest.raises(ValueError):
        AtgEnvironment(4.88, 0.43, 0.1, 21.0, 0.0, -93.0)
