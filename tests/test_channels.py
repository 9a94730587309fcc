"""Channel-model checks: free-space gains and the air-to-ground S-curve
model, whose one scalar evaluation is ``hop_gains_3d``.

ATG reference values are frozen from a 40-digit mpmath implementation
written separately from the library; ``mp_atg_hop`` below is such an
implementation, built from the preset table and the textbook formulas.
"""

import math
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrelay import (
    ATG_PRESETS,
    AtgEnvironment,
    Atg3dScenario,
    BlocklengthParams,
    FreeSpaceScenario,
    db_to_linear,
    freespace_gains,
    hop_gains_3d,
)
from uavrelay.channels import SPEED_OF_LIGHT

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


def mp_atg_hop(a, b, eta_los_db, eta_nlos_db, carrier_hz, noise_db, ground_m, height_m):
    """(theta_deg, P_LoS, path_loss_dB, noise-normalised gain) of one hop, at 40 digits.

    The air-to-ground model of Al-Hourani et al. (IEEE WCL 2014) as
    written in the paper: the free-space loss 20 log10(4 pi f_c r / c)
    plus the LoS and NLoS excess losses weighted by the S-curve LoS
    probability at the elevation angle.
    """
    with mpmath.workdps(40):
        x, h = mpmath.mpf(ground_m), mpmath.mpf(height_m)
        theta = mpmath.degrees(mpmath.atan2(h, x))
        p_los = 1 / (1 + a * mpmath.exp(-b * (theta - a)))
        fspl = 20 * mpmath.log10(4 * mpmath.pi * carrier_hz * mpmath.sqrt(x * x + h * h)
                                 / SPEED_OF_LIGHT)
        loss = fspl + eta_los_db * p_los + eta_nlos_db * (1 - p_los)
        gain = mpmath.power(10, -loss / 10) / mpmath.power(10, mpmath.mpf(noise_db) / 10)
        return tuple(float(v) for v in (theta, p_los, loss, gain))


def mp_hop_gains(presets, carrier_hz, noise_db, D, x, height):
    """The two hop gains of a relay at (x, height) between nodes 0 and D."""
    with mpmath.workdps(40):
        grounds = (mpmath.mpf(x), mpmath.mpf(D) - x)
        return tuple(mp_atg_hop(*ATG_PRESETS[preset], carrier_hz, noise_db, ground, height)[3]
                     for preset, ground in zip(presets, grounds))


def atg_hop_scenario(preset, D, noise_db=-93.0):
    """Both hops in one preset environment; hop_gains_3d checks only 0 <= x <= D."""
    env = AtgEnvironment.from_preset(preset, 2.5e9, noise_db)
    return Atg3dScenario(D, 0.0, D, 1.0, 2.0, env, env, 4.0, BlocklengthParams(100, 80))


def test_db_conversions_roundtrip():
    for v in (1e-6, 0.5, 1.0, 794328.2347242822):
        assert db_to_linear(10.0 * math.log10(v)) == pytest.approx(v, rel=1e-12, abs=0.0)
    assert db_to_linear(50.0) == pytest.approx(1e5, rel=1e-12)
    assert db_to_linear(0.0) == 1.0


def test_db_values_past_the_float_range_are_refused_by_name():
    with pytest.raises(ValueError, match=r"^3085.0 dB overflows the linear scale$"):
        db_to_linear(3085.0)
    with pytest.raises(ValueError, match=r"^4000.0 dB overflows the linear scale$"):
        AtgEnvironment(4.88, 0.43, 0.1, 21.0, 2.5e9, 4000.0)  # the noise power
    with pytest.raises(ValueError, match=r"^5000 dB overflows the linear scale$"):
        FreeSpaceScenario.from_db(200, 100, 20, 180, 5000, 50, 4)


@pytest.mark.parametrize("carrier_hz,eta_los,eta_nlos", [
    (1e-200, 0.1, 21.0),  # 20 log10(4 pi f / c) is about -4147.6 dB
    (2.5e9, -5000.0, -4000.0),  # an NLoS excess loss far below 0 dB
])
def test_an_overflowing_distance_free_loss_names_the_carrier_and_nlos_loss(
        carrier_hz, eta_los, eta_nlos):
    # the dB value that overflows is -C = -(20 log10(4 pi f / c) + eta_nlos),
    # which the caller never gave; the refusal names the inputs it comes from
    with pytest.raises(ValueError, match=rf"^carrier {carrier_hz} Hz with NLoS excess loss "
                                         rf"{eta_nlos} dB gives a gain at 1 m beyond the float "
                                         rf"range$"):
        AtgEnvironment(4.88, 0.43, eta_los, eta_nlos, carrier_hz, -93.0)


def test_large_finite_distance_free_gains_are_accepted():
    # -C of about 2127 dB and 959 dB: inside the float range, so built as before
    for carrier_hz, eta_los, eta_nlos in ((1e-100, 0.1, 21.0), (2.5e9, -5000.0, -1000.0)):
        env = AtgEnvironment(4.88, 0.43, eta_los, eta_nlos, carrier_hz, -93.0)
        assert 0.0 < env.gain_scale < math.inf


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
    with pytest.raises(ValueError, match=r"^D must be positive and finite, got inf$"):
        FreeSpaceScenario.from_db(math.inf, 120.0, 30.0, 170.0, 50.0, 59.0, 4.0)
    band = r"^placement bounds must satisfy 0 <= d1 < d2 <= D, got d1={}, d2={}, D=200.0$"
    with pytest.raises(ValueError, match=band.format(170.0, 30.0)):
        FreeSpaceScenario.from_db(200.0, 120.0, 170.0, 30.0, 50.0, 59.0, 4.0)  # d1 > d2
    with pytest.raises(ValueError, match=band.format(-1.0, 170.0)):
        FreeSpaceScenario.from_db(200.0, 120.0, -1.0, 170.0, 50.0, 59.0, 4.0)
    with pytest.raises(ValueError, match=band.format(30.0, 201.0)):
        FreeSpaceScenario.from_db(200.0, 120.0, 30.0, 201.0, 50.0, 59.0, 4.0)  # d2 > D
    with pytest.raises(ValueError, match=r"^H must be positive and finite, got 0.0$"):
        FreeSpaceScenario.from_db(200.0, 0.0, 30.0, 170.0, 50.0, 59.0, 4.0)
    for beta1, beta2 in ((0.0, 1e5), (1e5, -1.0), (math.nan, 1e5)):
        with pytest.raises(ValueError, match=r"^reference gains beta1, beta2 must be positive$"):
            FreeSpaceScenario(200.0, 120.0, 30.0, 170.0, beta1, beta2, 4.0)
    with pytest.raises(ValueError, match=r"^p_total must be positive and finite, got 0.0$"):
        FreeSpaceScenario.from_db(200.0, 120.0, 30.0, 170.0, 50.0, 59.0, 0.0)
    with pytest.raises(ValueError, match=r"^p_total must be positive and finite, got nan$"):
        FreeSpaceScenario.from_db(200.0, 120.0, 30.0, 170.0, 50.0, 59.0, math.nan)
    # 1e300 per hop: beta1 beta2 overflows
    with pytest.raises(ValueError, match=r"^hop gains overflow: the gain product bound "
                                         r"g1 g2 p_total\^2 is inf \(g = beta / H\^2\)$"):
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


def test_atg_frozen_reference_values():
    # D = 2x, so both hops see the relay at (x, h)
    noise = db_to_linear(-93.0)
    for (preset, x, h), want in ATG_REFERENCE.items():
        assert mp_atg_hop(*ATG_PRESETS[preset], 2.5e9, -93.0, x, h) \
            == pytest.approx(want, rel=1e-13)
        scn = atg_hop_scenario(preset, 2.0 * x)
        for g in hop_gains_3d(scn, x, h):
            assert g == pytest.approx(want[3], rel=1e-13)
            assert -10.0 * math.log10(g * noise) == pytest.approx(want[2], rel=1e-13)


def test_atg_gain_pathloss_identity():
    # the gain is exactly 10^(-L/10) / noise, with L the model's mean path
    # loss, for every geometry; D = 2x, so both hops see (x, h)
    noise = db_to_linear(-93.0)
    for x, h in ((100.0, 100.0), (35.0, 177.0), (180.0, 12.0), (5.0, 199.0)):
        loss = mp_atg_hop(*ATG_PRESETS["suburban"], 2.5e9, -93.0, x, h)[2]
        scn = atg_hop_scenario("suburban", 2.0 * x)
        for g in hop_gains_3d(scn, x, h):
            assert g == pytest.approx(10.0 ** (-loss / 10.0) / noise, rel=1e-13)


def test_hop_gains_past_the_exp_range_take_the_s_curve_limit():
    # a = 80, b = 20: below 80 - 709.78 / 20 = 44.5 degrees exp(-b (theta - a))
    # overflows a double, and P_los (below 1e-310) is 0 to the gain; the
    # relay sees both hops below that angle, one of them, or neither
    spec = (80.0, 20.0, 0.1, 21.0)
    env = AtgEnvironment(*spec, 2.5e9, -93.0)
    scn = Atg3dScenario(200.0, 0.0, 200.0, 1.0, 200.0, env, env, 4.0, BlocklengthParams(100, 80))
    for x, h in ((100.0, 10.0), (20.0, 100.0), (180.0, 100.0), (100.0, 150.0)):
        want = [mp_atg_hop(*spec, 2.5e9, -93.0, ground, h)[3] for ground in (x, 200.0 - x)]
        assert hop_gains_3d(scn, x, h) == pytest.approx(want, rel=1e-13), (x, h)


def test_los_probability_monotone_in_elevation():
    # at a fixed slant distance only the LoS term moves, so the gain rises
    # with elevation; straight overhead the suburban S-curve is ~1
    r = 150.0
    for preset in ATG_PRESETS:
        scn = atg_hop_scenario(preset, 400.0)
        gains = [hop_gains_3d(scn, r * math.cos(math.radians(t)), r * math.sin(math.radians(t)))[0]
                 for t in range(5, 91, 5)]
        assert all(b > a for a, b in zip(gains, gains[1:])), preset
        if preset == "suburban":
            env = scn.env1
            overhead = env.gain_scale / (r * r) * 10.0 ** env.gain_exponent
            assert gains[-1] == pytest.approx(overhead, rel=1e-6)


def test_los_probability_ordering_across_environments():
    # denser environments block more at the same elevation; the LoS
    # probability is read back from the gain at 30 degrees
    x, h = 100.0 * math.sqrt(3.0), 100.0
    probs = []
    for preset in ("suburban", "urban", "dense-urban", "high-rise"):
        scn = atg_hop_scenario(preset, 2.0 * x)
        g, _ = hop_gains_3d(scn, x, h)
        probs.append(math.log10(g * (x * x + h * h) / scn.env1.gain_scale)
                     / scn.env1.gain_exponent)
    assert all(a > b for a, b in zip(probs, probs[1:]))


def test_elevation_range_enforced():
    # hop_gains_3d keeps both elevations inside (0, 90] degrees: it refuses
    # a height at or below 0 (or NaN) and an offset past either node
    scn = atg_hop_scenario("urban", 200.0)
    for x, h in ((100.0, math.nan), (100.0, 0.0), (100.0, -1.0),
                 (-1e-9, 50.0), (scn.D + 1e-9, 50.0), (math.nan, 50.0)):
        with pytest.raises(ValueError):
            hop_gains_3d(scn, x, h)


def test_mean_path_loss_increases_with_distance():
    # doubling (x, h) keeps the elevation and quarters the gain exactly,
    # i.e. adds 20 log10(2) dB of path loss
    scn = atg_hop_scenario("suburban", 800.0)
    noise = db_to_linear(-93.0)
    gains = [hop_gains_3d(scn, d, d)[0] for d in (50.0, 100.0, 200.0, 400.0)]
    assert all(b == 0.25 * a for a, b in zip(gains, gains[1:]))
    losses = [-10.0 * math.log10(g * noise) for g in gains]
    for a, b in zip(losses, losses[1:]):
        assert b - a == pytest.approx(20.0 * math.log10(2.0), rel=1e-12)


def test_excess_loss_gap_sign():
    # the LoS excess loss never exceeds the NLoS one, so the LoS term can
    # only raise the gain
    for preset in ATG_PRESETS:
        env = AtgEnvironment.from_preset(preset, 2.5e9, -93.0)
        assert env.excess_loss_los_db <= env.excess_loss_nlos_db
        assert env.gain_exponent >= 0.0


def test_environment_validation():
    with pytest.raises(ValueError):
        AtgEnvironment(4.88, 0.43, 21.0, 0.1, 2.5e9, -93.0)  # LoS loss above NLoS
    with pytest.raises(ValueError):
        AtgEnvironment(4.88, 0.43, 0.1, 21.0, 0.0, -93.0)
    # non-finite constants: each would leave every solver a NaN or zero SNR
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="S-curve constants a, b must be positive and finite"):
            AtgEnvironment(bad, 0.43, 0.1, 21.0, 2.5e9, -93.0)
        with pytest.raises(ValueError, match="S-curve constants a, b must be positive and finite"):
            AtgEnvironment(4.88, bad, 0.1, 21.0, 2.5e9, -93.0)
        with pytest.raises(ValueError, match="excess losses must be finite"):
            AtgEnvironment(4.88, 0.43, -bad, 21.0, 2.5e9, -93.0)
        with pytest.raises(ValueError, match="excess losses must be finite"):
            AtgEnvironment(4.88, 0.43, 0.1, bad, 2.5e9, -93.0)
        with pytest.raises(ValueError, match=f"carrier frequency must be positive and finite, "
                                             f"got {bad}"):
            AtgEnvironment(4.88, 0.43, 0.1, 21.0, bad, -93.0)
        with pytest.raises(ValueError, match=r"^noise power \(dB\) must be finite$"):
            AtgEnvironment(4.88, 0.43, 0.1, 21.0, 2.5e9, bad)
    # a positive carrier whose 4 pi f / c underflows: named, not a math domain error
    with pytest.raises(ValueError, match=r"^carrier frequency 5e-324 Hz underflows 4 pi f / c "
                                         r"to zero$"):
        AtgEnvironment(4.88, 0.43, 0.1, 21.0, 5e-324, -93.0)


# Floats of both signs: any float (NaN and the infinities included), the
# edges of the float range, and subnormal and near-overflow magnitudes
_EDGES = [0.0, 5e-324, sys.float_info.min, 1e-300, 1e154, 1e300, sys.float_info.max, math.inf]
ANY_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from(_EDGES + [-v for v in _EDGES] + [math.nan]),
    st.floats(-1e-300, 1e-300),
    st.floats(1e150, sys.float_info.max).flatmap(lambda v: st.sampled_from((v, -v))),
)
# positive finite magnitudes, from the smallest subnormal to the largest
# float, and ordinary ones
POSITIVE = st.one_of(st.floats(5e-324, sys.float_info.max),
                     st.sampled_from([v for v in _EDGES if 0.0 < v < math.inf]),
                     st.floats(0.5, 500.0))
DB = st.one_of(st.floats(-4000.0, 4000.0), st.floats(-200.0, 200.0))
FRACTION = st.floats(0.0, 1.0)


@st.composite
def spoiled(draw, args, floats=None):
    """args, a list of values in the order and ranges the constructor
    checks, with up to two of them (of the indices in floats, all by
    default) replaced by any float."""
    args = list(args)
    floats = range(len(args)) if floats is None else floats
    for i in draw(st.lists(st.sampled_from(floats), max_size=2)):
        args[i] = draw(ANY_FLOAT)
    return args


@st.composite
def ground(draw):
    # D, d1, d2 with 0 <= d1 < d2 <= D before rounding
    D = draw(POSITIVE)
    lo, hi = sorted((draw(FRACTION), draw(FRACTION)))
    return [D, D * lo, D * hi]


@st.composite
def free_space_args(draw, gains):
    D, d1, d2 = draw(ground())
    return draw(spoiled([D, draw(POSITIVE), d1, d2, draw(gains), draw(gains), draw(POSITIVE)]))


@st.composite
def environment_args(draw):
    los = draw(DB)
    nlos = los + draw(st.floats(0.0, 100.0))
    return draw(spoiled([draw(POSITIVE), draw(POSITIVE), los, nlos, draw(POSITIVE), draw(DB)]))


@st.composite
def environments(draw):
    # a drawn environment where one builds, else a preset
    try:
        return AtgEnvironment(*draw(environment_args()))
    except ValueError:
        return AtgEnvironment.from_preset(draw(st.sampled_from(sorted(ATG_PRESETS))),
                                          2.5e9, -93.0)


@st.composite
def atg3d_args(draw):
    D, d1, d2 = draw(ground())
    h_min = draw(POSITIVE)
    return draw(spoiled([D, d1, d2, h_min, h_min + draw(POSITIVE), draw(environments()),
                         draw(environments()), draw(POSITIVE), BlocklengthParams(100, 80)],
                        floats=(0, 1, 2, 3, 4, 7)))


CONSTRUCTORS = {
    "FreeSpaceScenario": (FreeSpaceScenario, free_space_args(POSITIVE)),
    "FreeSpaceScenario.from_db": (FreeSpaceScenario.from_db, free_space_args(DB)),
    "AtgEnvironment": (AtgEnvironment, environment_args()),
    "Atg3dScenario": (Atg3dScenario, atg3d_args()),
}


@pytest.mark.parametrize("name", CONSTRUCTORS)
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_constructors_build_or_refuse_with_value_error(name, data):
    # any other exception (OverflowError, ZeroDivisionError, a math domain
    # error) escapes and fails the property
    build, args = CONSTRUCTORS[name]
    try:
        build(*data.draw(args))
    except ValueError:
        pass
