"""Finite-blocklength reliability metrics for a two-hop amplify-and-forward link.

Short packets do not operate at Shannon capacity; under the normal
approximation the decoding error probability of a hop with SNR gamma,
blocklength m and payload L bits is

    eps = Q( ln2 * sqrt(m / V(gamma)) * (log2(1 + gamma) - L/m) )

where V(gamma) = 1 - (1 + gamma)^-2 is the channel dispersion and Q is
the Gaussian tail function.  All SNR values here are linear and already
normalised by the noise power.
"""

from __future__ import annotations

import math

from ._record import Record

LN2 = math.log(2.0)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _check_snr(gamma: float) -> None:
    if not 0.0 <= gamma < math.inf:  # false for NaN, inf and negative SNRs alike
        if not math.isfinite(gamma):
            raise ValueError(f"SNR must be finite, got {gamma}")
        raise ValueError(f"SNR must be non-negative, got {gamma}")


class PowerSplit(Record):
    """Transmit powers in watts: p1 at the source node, p2 at the relay."""

    __slots__ = ("p1", "p2")

    def __init__(self, p1: float, p2: float):
        if not (math.isfinite(p1) and math.isfinite(p2)):
            raise ValueError(f"powers must be finite, got ({p1}, {p2})")
        if p1 < 0.0 or p2 < 0.0:
            raise ValueError(f"powers must be non-negative, got ({p1}, {p2})")
        _set_p1(self, p1)
        _set_p2(self, p2)

    @classmethod
    def even(cls, p_total: float) -> "PowerSplit":
        """Split a power budget evenly across the two transmitters."""
        return cls(p_total / 2.0, p_total / 2.0)


# called one by one: a PowerSplit is built on every solver step, and a
# straight call is cheaper there than _fill's loop
_set_p1, _set_p2 = PowerSplit._setters


class BlocklengthParams(Record):
    """Payload size and channel-use bookkeeping for the two-phase link.

    The total budget of ``total_blocklength`` channel uses is shared
    evenly by the two hops, so each hop transmits over m = M/2 symbols.
    ``bandwidth_hz``/``latency_s`` are optional metadata recording where
    the budget came from (M = round(bandwidth * latency)).
    """

    __slots__ = ("packet_bits", "total_blocklength", "bandwidth_hz", "latency_s")

    def __init__(self, packet_bits: int, total_blocklength: int,
                 bandwidth_hz: float | None = None, latency_s: float | None = None):
        if packet_bits < 1:
            raise ValueError(f"packet_bits must be a positive integer, got {packet_bits}")
        if total_blocklength < 2 or total_blocklength % 2:
            raise ValueError(
                "total_blocklength must be a positive even integer so both hops "
                f"get an equal share, got {total_blocklength}"
            )
        if (bandwidth_hz is None) != (latency_s is None):
            raise ValueError("bandwidth_hz and latency_s must be provided together")
        if bandwidth_hz is not None:
            implied = round(bandwidth_hz * latency_s)
            if implied != total_blocklength:
                raise ValueError(
                    f"bandwidth * latency implies M = {implied}, "
                    f"which contradicts total_blocklength = {total_blocklength}"
                )
        self._fill(packet_bits, total_blocklength, bandwidth_hz, latency_s)

    @classmethod
    def from_bandwidth_latency(
        cls, packet_bits: int, bandwidth_hz: float, latency_s: float
    ) -> "BlocklengthParams":
        """Derive the blocklength budget from a bandwidth/latency pair."""
        m_total = round(bandwidth_hz * latency_s)
        return cls(packet_bits, m_total, bandwidth_hz=bandwidth_hz, latency_s=latency_s)


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x) = 0.5 * erfc(x / sqrt 2)."""
    if not -math.inf < x < math.inf:
        raise ValueError(f"q_function requires a finite argument, got {x}")
    return 0.5 * math.erfc(x * _INV_SQRT2)


def channel_dispersion(gamma: float) -> float:
    """Channel dispersion V(gamma) = 1 - (1 + gamma)^-2 of the AWGN channel.

    Lies in [0, 1); vanishes at gamma = 0 and approaches 1 at high SNR.
    """
    _check_snr(gamma)
    one_plus = 1.0 + gamma
    return 1.0 - 1.0 / (one_plus * one_plus)


def rate_gap(gamma: float, blk: BlocklengthParams) -> float:
    """Normal-approximation margin between channel quality and coding rate.

    Args:
        gamma: linear SNR, strictly positive.
        blk: payload/blocklength bookkeeping; the per-hop blocklength m
            and payload L enter as the coding rate L/m.

    Returns:
        f = ln2 * sqrt(m / V(gamma)) * (log2(1 + gamma) - L/m).  Positive
        when the channel supports the rate with margin; the decoding
        error probability is Q of this value.

    Raises:
        ValueError: for non-positive SNR, and for an SNR so small (below
            ~1e-16) that 1 + gamma rounds to 1.  Both are degenerate (the
            dispersion vanishes); callers should map them to eps = 1.
    """
    v = channel_dispersion(gamma)
    if v == 0.0:
        raise ValueError("rate margin undefined where 1 + SNR rounds to 1 (zero SNR "
                         "included); error probability is 1 there")
    m = blk.total_blocklength // 2
    capacity = math.log1p(gamma) / LN2
    return LN2 * math.sqrt(m / v) * (capacity - blk.packet_bits / m)


def rate_gap_derivative(gamma: float, blk: BlocklengthParams) -> float:
    """Closed-form derivative of the rate margin with respect to SNR.

    df/dgamma = sqrt(m) / sqrt((1+gamma)^2 - 1)
                * (1 - ln2 * (log2(1+gamma) - L/m) / ((1+gamma)^2 - 1))

    Strictly positive for every gamma > 0, which is what makes the error
    probability monotone decreasing in SNR.  It is also bounded below by
    sqrt(m) / (2 sqrt((1+gamma)^2 - 1)).
    """
    _check_snr(gamma)
    if gamma == 0.0:
        raise ValueError("rate margin derivative undefined at zero SNR")
    m = blk.total_blocklength // 2
    # (1+gamma)^2 - 1, written to keep precision for small gamma
    shifted = gamma * (gamma + 2.0)
    scaled_gap = math.log1p(gamma) - blk.packet_bits * LN2 / m
    return math.sqrt(m / shifted) * (1.0 - scaled_gap / shifted)


def decoding_error_probability(gamma: float, blk: BlocklengthParams) -> float:
    """Per-hop decoding error probability under the normal approximation.

    Defined as Q(rate_gap) for gamma > 0 and as 1, the limit, where
    1 + gamma rounds to 1 (gamma = 0 included).  The margin is finite, and
    Q is exactly 0 or 1 from |margin| ~ 38.5 on, so extreme SNRs give a
    hard 0 or 1.
    """
    _check_snr(gamma)
    if 1.0 + gamma == 1.0:
        return 1.0
    return q_function(rate_gap(gamma, blk))


def af_snr(h1: float, h2: float, powers: PowerSplit) -> float:
    """End-to-end SNR of the two-hop amplify-and-forward link.

    gamma = h1 h2 p1 p2 / (h2 p2 + h1 p1 + 1), strictly smaller than
    either single-hop SNR h1 p1 and h2 p2.

    Args:
        h1: noise-normalised power gain of the source-to-relay hop.
        h2: noise-normalised power gain of the relay-to-destination hop.
        powers: transmit powers of source and relay.
    """
    # chained comparisons: false for NaN, inf and negative gains alike
    if not 0.0 <= h1 < math.inf:
        raise ValueError(f"h1 must be a finite non-negative gain, got {h1}")
    if not 0.0 <= h2 < math.inf:
        raise ValueError(f"h2 must be a finite non-negative gain, got {h2}")
    p1, p2 = powers.p1, powers.p2
    return (h1 * h2 * p1 * p2) / (h2 * p2 + h1 * p1 + 1.0)

