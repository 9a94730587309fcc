"""Checks for the short-packet error model.

Frozen expected values were produced with a 50-digit mpmath
implementation written independently from the library code; the
Q-function is additionally cross-checked against the Gaussian tail
integral evaluated with scipy quadrature.
"""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.stats

from uavrelay import (
    BlocklengthParams,
    PowerSplit,
    af_snr,
    channel_dispersion,
    decoding_error_probability,
    q_function,
    rate_gap,
    rate_gap_derivative,
)

# (gamma, packet_bits, total_blocklength) -> epsilon, 50-digit reference
EPS_REFERENCE = {
    (10.0, 100, 80): 1.2027363271247715e-05,
    (10.0402303484, 100, 80): 1.0854529857852858e-05,
    (1.0, 100, 80): 0.99999999999998438,
    (100.0, 100, 80): 1.4954463211295774e-74,
    (5.0, 32, 16): 0.99755016080835187,
    (3.0, 256, 300): 0.0050577286578468053,
    (0.5, 48, 128): 0.89024253144840823,
    (14.900058, 100, 80): 2.8940986597843619e-11,
}

# (gamma, packet_bits, total_blocklength) -> eps, the library's exact floats
# on each branch of decoding_error_probability: EPS_REFERENCE checks the
# model at a tolerance, this holds every bit
EPS_EXACT = {
    (1e-17, 100, 80): 1.0,  # 1 + gamma rounds to 1
    (1e-12, 100, 80): 1.0,  # margin -7.7e6, where Q is exactly 1
    (1e4, 100, 80): 0.0,  # margin 47.3, where Q is exactly 0
    (10.0, 100, 80): 1.2027363271247615e-05,
    (3.0, 100, 80): 0.9882070741515661,
    (14.900058, 100, 80): 2.894098659784328e-11,
}

# (gamma, packet_bits, total_blocklength) -> (f, f'), same reference
RATE_GAP_REFERENCE = {
    (10.0, 100, 80): (4.2234907333067234, 0.57415065499772673),
    (1.0, 100, 80): (-7.5930469292757681, 4.9169915382470688),
    (0.5, 48, 128): (-1.2278189585957382, 7.8102543059170541),
    (100.0, 100, 80): (18.229859352171107, 0.062604733651951009),
}


def test_q_function_matches_gaussian_tail_integral():
    for x in (-5.0, -1.3, 0.0, 0.7, 2.0, 4.5):
        tail, err = scipy.integrate.quad(scipy.stats.norm.pdf, x, np.inf)
        assert q_function(x) == pytest.approx(tail, rel=1e-9, abs=1e-12)
        assert err < 1e-6


def test_q_function_symmetry_and_edges():
    assert q_function(0.0) == pytest.approx(0.5, rel=1e-15, abs=0.0)
    for x in (0.3, 1.0, 6.0):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, rel=1e-14)
    assert q_function(37.0) > 0.0
    assert q_function(37.0) < 1e-290
    # deep tail underflows to zero gracefully rather than raising
    assert q_function(40.0) >= 0.0
    assert q_function(40.0) < 1e-300


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(f=st.floats(40.0, allow_infinity=False) | st.floats(max_value=-40.0, allow_infinity=False))
@example(f=40.0)
@example(f=-40.0)
@example(f=1.7976931348623157e308)
@example(f=-1.7976931348623157e308)
def test_q_function_is_flat_beyond_forty(f):
    # erfc saturates inside +-40, so no margin needs clamping before Q
    assert q_function(f) == q_function(math.copysign(40.0, f))


def test_q_function_rejects_nonfinite():
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"finite argument, got {x}$"):
            q_function(x)


def test_channel_dispersion():
    assert channel_dispersion(0.0) == 0.0
    assert channel_dispersion(1.0) == pytest.approx(0.75, rel=1e-15, abs=0.0)
    # V -> 1 as gamma grows
    assert channel_dispersion(1e9) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        channel_dispersion(-0.1)


def test_error_probability_frozen_values():
    for (g, bits, m_total), want in EPS_REFERENCE.items():
        got = decoding_error_probability(g, BlocklengthParams(bits, m_total))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), (g, bits, m_total)


def test_error_probability_keeps_every_bit():
    for (g, bits, m_total), want in EPS_EXACT.items():
        got = decoding_error_probability(g, BlocklengthParams(bits, m_total))
        assert got.hex() == want.hex(), (g, bits, m_total)


@pytest.mark.parametrize("gamma,message", [
    (math.nan, "SNR must be finite, got nan"),
    (math.inf, "SNR must be finite, got inf"),
    (-math.inf, "SNR must be finite, got -inf"),
    (-0.1, "SNR must be non-negative, got -0.1"),
    # 1 + gamma rounds to 1 here too, but the check comes first
    (-1e-17, "SNR must be non-negative, got -1e-17"),
])
def test_error_probability_refusals_state_the_cause(gamma, message):
    with pytest.raises(ValueError) as exc:
        decoding_error_probability(gamma, BlocklengthParams(100, 80))
    assert str(exc.value) == message


def test_error_probability_zero_snr_is_one():
    blk = BlocklengthParams(100, 80)
    assert decoding_error_probability(0.0, blk) == 1.0


def test_error_probability_is_one_where_one_plus_snr_rounds_to_one():
    blk = BlocklengthParams(100, 80)
    assert decoding_error_probability(1e-17, blk) == 1.0
    # just above, Q of the large negative margin gives the same limit value
    assert decoding_error_probability(1e-15, blk) == 1.0
    for gamma in (0.0, 1e-17):
        with pytest.raises(ValueError, match="error probability is 1 there"):
            rate_gap(gamma, blk)
    # tiny but positive SNR: a margin of -7.7e6 still reports certain failure
    assert decoding_error_probability(1e-12, blk) == pytest.approx(1.0, abs=1e-15)


def test_rate_gap_frozen_values():
    for (g, bits, m_total), (want_f, want_fp) in RATE_GAP_REFERENCE.items():
        blk = BlocklengthParams(bits, m_total)
        assert rate_gap(g, blk) == pytest.approx(want_f, rel=1e-13)
        assert rate_gap_derivative(g, blk) == pytest.approx(want_fp, rel=1e-13, abs=0.0)


def test_rate_gap_requires_positive_snr():
    blk = BlocklengthParams(100, 80)
    with pytest.raises(ValueError):
        rate_gap(0.0, blk)
    with pytest.raises(ValueError):
        rate_gap_derivative(-1.0, blk)
    with pytest.raises(ValueError, match="^rate margin derivative undefined at zero SNR$"):
        rate_gap_derivative(0.0, blk)


def test_rate_gap_derivative_matches_finite_differences(rng):
    for _ in range(200):
        g = float(10.0 ** rng.uniform(-2, 5))
        bits = int(rng.integers(32, 513))
        m_total = 2 * int(rng.integers(8, 257))
        blk = BlocklengthParams(bits, m_total)
        h = 1e-6 * max(g, 1.0)
        fd = (rate_gap(g + h, blk) - rate_gap(g - h, blk)) / (2 * h)
        assert rate_gap_derivative(g, blk) == pytest.approx(fd, rel=1e-5)


def test_rate_gap_derivative_lower_bound(rng):
    # f'(gamma) >= sqrt(m) / (2 sqrt((1+gamma)^2 - 1)), all parameters
    for _ in range(500):
        g = float(10.0 ** rng.uniform(-3, 6))
        bits = int(rng.integers(32, 513))
        m_total = 2 * int(rng.integers(8, 257))
        blk = BlocklengthParams(bits, m_total)
        m = m_total // 2
        bound = math.sqrt(m) / (2.0 * math.sqrt(g * (g + 2.0)))
        assert rate_gap_derivative(g, blk) >= bound * (1.0 - 1e-12)


def test_error_probability_monotone_in_snr(rng):
    blk = BlocklengthParams(100, 80)
    gammas = np.sort(10.0 ** rng.uniform(-3, 6, size=400))
    eps = [decoding_error_probability(float(g), blk) for g in gammas]
    for lo, hi in zip(eps[1:], eps[:-1]):
        assert lo <= hi + 1e-12


def test_blocklength_params_validation():
    with pytest.raises(ValueError):
        BlocklengthParams(0, 80)
    with pytest.raises(ValueError):
        BlocklengthParams(100, 79)  # odd
    with pytest.raises(ValueError):
        BlocklengthParams(100, 0)


def test_blocklength_from_bandwidth_latency():
    blk = BlocklengthParams.from_bandwidth_latency(100, bandwidth_hz=80e3, latency_s=1e-3)
    assert blk.total_blocklength == 80
    assert blk.bandwidth_hz == 80e3
    assert blk.latency_s == 1e-3
    with pytest.raises(ValueError):
        # product is odd
        BlocklengthParams.from_bandwidth_latency(100, bandwidth_hz=81e3, latency_s=1e-3)


def test_blocklength_bandwidth_latency_consistency():
    with pytest.raises(ValueError):
        BlocklengthParams(100, 80, bandwidth_hz=100e3, latency_s=1e-3)
    with pytest.raises(ValueError):
        BlocklengthParams(100, 80, bandwidth_hz=80e3)  # latency missing


def test_power_split():
    ps = PowerSplit(1.5, 2.5)
    assert ps.p1 + ps.p2 == 4.0
    assert PowerSplit.even(4.0) == PowerSplit(2.0, 2.0)
    with pytest.raises(ValueError):
        PowerSplit(-0.1, 1.0)
    with pytest.raises(ValueError):
        PowerSplit(float("nan"), 1.0)


def test_af_snr_bounds(rng):
    # end-to-end SNR sits strictly below both per-hop SNRs
    for _ in range(300):
        h1 = float(10.0 ** rng.uniform(-6, 2))
        h2 = float(10.0 ** rng.uniform(-6, 2))
        ps = PowerSplit(float(rng.uniform(0.01, 5)), float(rng.uniform(0.01, 5)))
        g = af_snr(h1, h2, ps)
        assert 0.0 < g < min(h1 * ps.p1, h2 * ps.p2)


def test_af_snr_formula():
    ps = PowerSplit(2.0, 2.0)
    # h1 p1 = 4, h2 p2 = 6, product 24, denominator 4 + 6 + 1
    assert af_snr(2.0, 3.0, ps) == pytest.approx(24.0 / 11.0, rel=1e-15, abs=0.0)
    assert af_snr(0.0, 3.0, ps) == 0.0


@pytest.mark.parametrize("gain", [-1.0, -5e-324, math.nan, math.inf])
def test_af_snr_refuses_a_gain_outside_zero_to_inf(gain):
    ps = PowerSplit(2.0, 2.0)
    with pytest.raises(ValueError, match=f"^h1 must be a finite non-negative gain, got {gain}$"):
        af_snr(gain, 3.0, ps)
    with pytest.raises(ValueError, match=f"^h2 must be a finite non-negative gain, got {gain}$"):
        af_snr(3.0, gain, ps)
