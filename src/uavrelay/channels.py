"""Channel gain models for the relay geometry.

Two models are provided.  The first is a line-of-sight inverse-square
model: the relay flies at height H above the segment between the ground
nodes and each hop gain is beta / (squared slant distance).  The second
is an elevation-angle air-to-ground model where the line-of-sight
probability follows an S-curve in the elevation angle and the mean path
loss blends LoS and NLoS excess losses; this module holds its
environment constants and scenario, and ``atg3d.hop_gains_3d`` evaluates
its gains.
"""

from __future__ import annotations

import math

from ._record import Record
from .fbl import BlocklengthParams

SPEED_OF_LIGHT = 2.998e8  # m/s

# S-curve and excess-loss constants (a, b, eta_los_db, eta_nlos_db) for the
# standard environment classes.  Defaults only; every value can be
# overridden by constructing AtgEnvironment directly.
ATG_PRESETS: dict[str, tuple[float, float, float, float]] = {
    "suburban": (4.88, 0.43, 0.1, 21.0),
    "urban": (9.61, 0.16, 1.0, 20.0),
    "dense-urban": (12.08, 0.11, 1.6, 23.0),
    "high-rise": (27.23, 0.08, 2.3, 34.0),
}


def db_to_linear(value_db: float) -> float:
    """Convert a dB quantity to linear scale.

    Raises:
        ValueError: when the linear value exceeds the float range.
    """
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise ValueError(f"{value_db} dB overflows the linear scale") from None


def _check_ground(D: float, d1: float, d2: float, p_total: float, band: str) -> None:
    # the rules both scenario types share; band names the bounded coordinate
    if not (D > 0.0 and math.isfinite(D)):
        raise ValueError(f"D must be positive and finite, got {D}")
    if not (0.0 <= d1 < d2 <= D):
        raise ValueError(
            f"{band} bounds must satisfy 0 <= d1 < d2 <= D, got d1={d1}, d2={d2}, D={D}")
    if not (p_total > 0.0 and math.isfinite(p_total)):
        raise ValueError(f"p_total must be positive and finite, got {p_total}")


def _check_gain_product(hop_gain_bound, hops, p_total: float, detail: str) -> None:
    # hop_gain_bound(hop) bounds that hop's gain over the scenario, so a
    # finite g1 g2 p_total^2 keeps the SNR numerator h1 h2 p1 p2 finite;
    # detail is formatted with the hops only when the bound is refused
    try:
        g1, g2 = map(hop_gain_bound, hops)
        bound = g1 * g2 * p_total ** 2
    except ArithmeticError:  # overflow, or a squared height underflows to zero
        bound = math.inf
    if not math.isfinite(bound):
        raise ValueError(
            f"hop gains overflow: the gain product bound g1 g2 p_total^2 is {bound} "
            + detail.format(*hops))


class FreeSpaceScenario(Record):
    """Geometry and link budget for the inverse-square model.

    The source sits at ground coordinate 0 and the destination at D; the
    relay flies at (x, H) with d1 <= x <= d2.  beta1/beta2 are the
    noise-normalised hop gains at 1 m (linear scale; use ``from_db`` for
    dB inputs).  p_total is the shared transmit power budget in watts.
    """

    __slots__ = ("D", "H", "d1", "d2", "beta1", "beta2", "p_total")

    def __init__(self, D: float, H: float, d1: float, d2: float, beta1: float,
                 beta2: float, p_total: float):
        _check_ground(D, d1, d2, p_total, "placement")
        if not (H > 0.0 and math.isfinite(H)):
            raise ValueError(f"H must be positive and finite, got {H}")
        if not (beta1 > 0.0 and beta2 > 0.0):
            raise ValueError("reference gains beta1, beta2 must be positive")
        # each hop gain is at most beta / H^2
        _check_gain_product(lambda beta: beta / H ** 2, (beta1, beta2), p_total,
                            "(g = beta / H^2)")
        # The placement cubic and the high-SNR surrogate scale the gains by
        # squared distances and powers.  Over every offset in [0, D] and split
        # of p_total: reach bounds half the cubic's c, and 1728 (D + 1) reach
        # the numerator of its depressed kappa; the second term bounds the
        # cross gains b_i (H^2 + (D - x)^2) times the powers, the third the
        # surrogate's b1 b2 p1 p2 and b1 b2 D^2.  A cubed rho may still
        # overflow, which the cubic solver reports as such.
        h_sq, d_sq = H * H, D * D
        top = beta1 if beta1 > beta2 else beta2
        reach = d_sq + 2.0 * h_sq + top * p_total
        worst = max(1728.0 * (D + 1.0) * reach,
                    2.0 * top * (h_sq + d_sq + 1.0) * (p_total + 1.0),
                    beta1 * beta2 * (d_sq + p_total * p_total + 1.0))
        if not math.isfinite(worst):
            raise ValueError(
                f"cubic coefficients or high-SNR cross gains overflow: beta1 = {beta1}, "
                f"beta2 = {beta2}, H = {H}, D = {D}, p_total = {p_total}"
            )
        self._fill(D, H, d1, d2, beta1, beta2, p_total)

    @classmethod
    def from_db(
        cls,
        D: float,
        H: float,
        d1: float,
        d2: float,
        beta1_db: float,
        beta2_db: float,
        p_total: float,
    ) -> "FreeSpaceScenario":
        """Build a scenario from reference gains expressed in dB."""
        return cls(D, H, d1, d2, db_to_linear(beta1_db), db_to_linear(beta2_db), p_total)


def freespace_gains(scn: FreeSpaceScenario, x: float) -> tuple[float, float]:
    """Hop gains at ground offset x: h_i = beta_i / (H^2 + horizontal_i^2).

    Raises:
        ValueError: when x falls outside the allowed band [d1, d2].
    """
    if not (scn.d1 <= x <= scn.d2):
        raise ValueError(f"x = {x} outside allowed placement band [{scn.d1}, {scn.d2}]")
    h_sq = scn.H * scn.H
    h1 = scn.beta1 / (h_sq + x * x)
    h2 = scn.beta2 / (h_sq + (scn.D - x) * (scn.D - x))
    return h1, h2


class AtgEnvironment(Record):
    """Air-to-ground propagation environment.

    The LoS probability at elevation angle theta (degrees) is the
    S-curve 1 / (1 + a exp(-b (theta - a))).  eta_los_db/eta_nlos_db are
    the excess losses on top of free-space propagation; carrier_hz and
    noise_power_db fix the constant path-loss offset and the noise
    normalisation.  gain_scale and gain_exponent depend on these alone
    and are computed once, at construction.
    """

    # gain_scale is C-tilde = 10^(-C/10) / noise, the noise-normalised gain
    # at 1 m NLoS; gain_exponent is A-tilde = -A/10 >= 0, which scales the
    # LoS probability inside the gain
    __slots__ = ("s_curve_a", "s_curve_b", "excess_loss_los_db", "excess_loss_nlos_db",
                 "carrier_hz", "noise_power_db", "gain_scale", "gain_exponent")
    _derived = _hidden = ("gain_scale", "gain_exponent")

    def __init__(self, s_curve_a: float, s_curve_b: float, excess_loss_los_db: float,
                 excess_loss_nlos_db: float, carrier_hz: float, noise_power_db: float):
        if not (0.0 < s_curve_a < math.inf and 0.0 < s_curve_b < math.inf):
            raise ValueError("S-curve constants a, b must be positive and finite")
        if not (math.isfinite(excess_loss_los_db) and math.isfinite(excess_loss_nlos_db)):
            raise ValueError("excess losses must be finite")
        if excess_loss_los_db > excess_loss_nlos_db:
            raise ValueError("LoS excess loss cannot exceed the NLoS excess loss")
        if not 0.0 < carrier_hz < math.inf:
            raise ValueError(f"carrier frequency must be positive and finite, got {carrier_hz}")
        if not math.isfinite(noise_power_db):
            raise ValueError("noise power (dB) must be finite")
        noise = db_to_linear(noise_power_db)
        if noise == 0.0:
            raise ValueError(f"noise power {noise_power_db} dB underflows to zero watts")
        four_pi_f_over_c = 4.0 * math.pi * carrier_hz / SPEED_OF_LIGHT
        if four_pi_f_over_c == 0.0:
            raise ValueError(f"carrier frequency {carrier_hz} Hz underflows 4 pi f / c to zero")
        # C = 20 log10(4 pi f_c / c) + eta_nlos, the distance-free loss term,
        # and A = eta_los - eta_nlos <= 0, the LoS advantage in dB
        offset_db = 20.0 * math.log10(four_pi_f_over_c) + excess_loss_nlos_db
        gap_db = excess_loss_los_db - excess_loss_nlos_db
        try:
            gain_at_1m = db_to_linear(-offset_db)
        except ValueError:  # -C is no input: name the inputs it comes from
            raise ValueError(f"carrier {carrier_hz} Hz with NLoS excess loss {excess_loss_nlos_db} "
                             "dB gives a gain at 1 m beyond the float range") from None
        self._fill(s_curve_a, s_curve_b, excess_loss_los_db, excess_loss_nlos_db, carrier_hz,
                   noise_power_db, gain_at_1m / noise, -gap_db / 10.0)

    @classmethod
    def from_preset(cls, name: str, carrier_hz: float, noise_power_db: float) -> "AtgEnvironment":
        """Instantiate one of the named environment classes."""
        try:
            a, b, eta_los, eta_nlos = ATG_PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown environment preset {name!r}; expected one of {sorted(ATG_PRESETS)}"
            ) from None
        return cls(a, b, eta_los, eta_nlos, carrier_hz, noise_power_db)


class Atg3dScenario(Record):
    """Geometry, environments and budgets for the air-to-ground model.

    The relay may fly anywhere in [d1, d2] x [h_min, h_max]; env1/env2
    describe the source->relay and relay->destination hops.  Scenarios
    whose hop-gain product could overflow in the box are refused.
    """

    # gain_constants holds the numbers hop_gains_3d reads, gathered once, at
    # construction: D, then a, b, gain_scale, gain_exponent of hop 1 and of hop 2
    __slots__ = ("D", "d1", "d2", "h_min", "h_max", "env1", "env2", "p_total", "blk",
                 "gain_constants")
    _derived = _hidden = ("gain_constants",)

    def __init__(self, D: float, d1: float, d2: float, h_min: float, h_max: float,
                 env1: AtgEnvironment, env2: AtgEnvironment, p_total: float,
                 blk: BlocklengthParams):
        _check_ground(D, d1, d2, p_total, "offset")
        if not (0.0 < h_min < h_max < math.inf):
            raise ValueError(
                f"height bounds must satisfy 0 < h_min < h_max and be finite, got "
                f"h_min={h_min}, h_max={h_max}"
            )
        # each hop gain is at most gain_scale / h_min^2 * 10^gain_exponent
        _check_gain_product(
            lambda env: env.gain_scale / h_min ** 2 * 10.0 ** env.gain_exponent, (env1, env2),
            p_total, "(noise power {0.noise_power_db} / {1.noise_power_db} dB)")
        self._fill(D, d1, d2, h_min, h_max, env1, env2, p_total, blk, (
            D, env1.s_curve_a, env1.s_curve_b, env1.gain_scale, env1.gain_exponent,
            env2.s_curve_a, env2.s_curve_b, env2.gain_scale, env2.gain_exponent))
