"""The system model, written out again for the correctness gate.

These are the textbook formulas the library implements, kept apart from
its code so the gate does not check the library against itself:
inverse-square and S-curve air-to-ground gains (Al-Hourani et al., IEEE
WCL 2014), the two-hop amplify-and-forward SNR, and the normal
approximation of the decoding error probability (Polyanskiy, Poor and
Verdu, IEEE Trans. IT 2010).
"""

from __future__ import annotations

import math

SPEED_OF_LIGHT = 2.998e8

# (a, b, eta_los_db, eta_nlos_db) of the four environment classes
ATG_PRESETS = {
    "suburban": (4.88, 0.43, 0.1, 21.0),
    "urban": (9.61, 0.16, 1.0, 20.0),
    "dense-urban": (12.08, 0.11, 1.6, 23.0),
    "high-rise": (27.23, 0.08, 2.3, 34.0),
}


def freespace_gain(beta_db: float, height: float, ground: float) -> float:
    return 10.0 ** (beta_db / 10.0) / (height * height + ground * ground)


def atg_gain(preset: str, carrier_hz: float, noise_db: float,
             height: float, ground: float) -> float:
    """Noise-normalised mean gain of one air-to-ground hop."""
    a, b, eta_los, eta_nlos = ATG_PRESETS[preset]
    theta = math.degrees(math.atan2(height, ground))
    p_los = 1.0 / (1.0 + a * math.exp(-b * (theta - a)))
    fspl_db = 20.0 * math.log10(4.0 * math.pi * carrier_hz / SPEED_OF_LIGHT)
    loss_db = (20.0 * math.log10(math.hypot(height, ground)) + fspl_db
               + eta_los * p_los + eta_nlos * (1.0 - p_los))
    return 10.0 ** (-(loss_db + noise_db) / 10.0)


def af_snr(h1: float, h2: float, p1: float, p2: float) -> float:
    return h1 * h2 * p1 * p2 / (h1 * p1 + h2 * p2 + 1.0)


def error_prob(snr: float, packet_bits: int, total_blocklength: int) -> float:
    """Per-hop decoding error probability under the normal approximation."""
    if snr == 0.0:
        return 1.0
    m = total_blocklength // 2
    dispersion = 1.0 - (1.0 + snr) ** -2
    margin = math.sqrt(m / dispersion) * (math.log(1.0 + snr) - packet_bits * math.log(2.0) / m)
    return 0.5 * math.erfc(margin / math.sqrt(2.0))
