"""Seeded input generators for the two solver batches.

A draw is a plain dict of numbers and preset names, made with the
standard library only, so a draw can be made, stored and checked
without importing the library.  ``build_*`` turns draws into the
library's scenario objects; that step belongs to set-up time, the draws
do not.

Draw ranges, and why (each variable is stratified over the pool, see
``_strata``):

freespace-batch (inverse-square model)
  D      U[50, 1000] m     ground distance; short links saturate, long ones do not
  H      U[10, 300] m      flying height; low H makes the location cubic matter
  d1     D * U[0, 0.3]     band edges, so both clamp cases of the high-SNR
  d2     D * U[0.7, 1]     solver and in-band cubic roots occur
  beta   U[30, 90] dB      each hop independently; spans eps ~1 to eps == 0
  P      U[0.1, 20] W      power budget
  M      even U[40, 400]   total blocklength (m = M/2 per hop)
  L      U[16, 512] bits   payload; with M this sets the coding rate
  These keep ~20% of results at eps == 0 (the erfc underflow a
  log-domain Q would change) and a few bcd runs at the 50-iteration
  cap, which later work on the error model and the loop will move.

atg3d-batch (air-to-ground S-curve model)
  hop1, hop2  the 16 preset pairs, each on 1/16 of the draws
  D      U[100, 800] m     ground distance
  d1     D * U[0, 0.25]    offset band
  d2     D * U[0.75, 1]
  h_min  U[5, 40] m        height band, from low flat boxes to tall ones
  h_max  h_min + U[60, 400] m
  P      U[0.1, 20] W
  noise  set so the weaker hop has an SNR of U[-20, 30] dB at the box
         centre with an even split: the draw fixes the operating regime
         (eps ~1 up to eps == 0) rather than a noise figure, which would
         put most draws at eps ~1 or eps == 0.  Carrier 2.5 GHz.
  M, L   as above
  h_pin  U[h_min, h_max]   pinned height of the fixed-height baseline
"""

from __future__ import annotations

import math
import random

import model

ATG_PRESET_NAMES = ("suburban", "urban", "dense-urban", "high-rise")
CARRIER_HZ = 2.5e9


def _strata(rng: random.Random, n: int) -> list[float]:
    """n uniforms in [0, 1), one in each of the n equal strata, in random order.

    Stratifying every variable (Latin hypercube sampling) keeps the mix of
    a pool nearly the same from seed to seed, so run-to-run spread comes
    from the program and not from the draw.
    """
    order = list(range(n))
    rng.shuffle(order)
    return [(k + rng.random()) / n for k in order]


def _uniform(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * u for u in _strata(rng, n)]


def _integers(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    return [lo + int(u * (hi - lo + 1)) for u in _strata(rng, n)]


def _noise_for_snr(hop1: str, hop2: str, D: float, x: float, height: float,
                   p_total: float, snr_db: float) -> float:
    # noise floor that puts the weaker hop at snr_db at the box centre with
    # half the budget on each node
    weaker = min(model.atg_gain(hop1, CARRIER_HZ, 0.0, height, x),
                 model.atg_gain(hop2, CARRIER_HZ, 0.0, height, D - x))
    return 10.0 * math.log10(weaker * 0.5 * p_total) - snr_db


def freespace_draws(seed: int, n: int) -> list[dict]:
    rng = random.Random(f"freespace-batch/{seed}")
    D = _uniform(rng, n, 50.0, 1000.0)
    H = _uniform(rng, n, 10.0, 300.0)
    lo = _uniform(rng, n, 0.0, 0.3)
    hi = _uniform(rng, n, 0.7, 1.0)
    beta1_db = _uniform(rng, n, 30.0, 90.0)
    beta2_db = _uniform(rng, n, 30.0, 90.0)
    p_total = _uniform(rng, n, 0.1, 20.0)
    packet_bits = _integers(rng, n, 16, 512)
    half_blocklength = _integers(rng, n, 20, 200)
    return [dict(D=D[k], H=H[k], d1=D[k] * lo[k], d2=D[k] * hi[k], beta1_db=beta1_db[k],
                 beta2_db=beta2_db[k], p_total=p_total[k], packet_bits=packet_bits[k],
                 total_blocklength=2 * half_blocklength[k])
            for k in range(n)]


def atg3d_draws(seed: int, n: int) -> list[dict]:
    rng = random.Random(f"atg3d-batch/{seed}")
    pairs = [(a, b) for a in ATG_PRESET_NAMES for b in ATG_PRESET_NAMES]
    hops = [pairs[k % len(pairs)] for k in range(n)]
    rng.shuffle(hops)
    D = _uniform(rng, n, 100.0, 800.0)
    lo = _uniform(rng, n, 0.0, 0.25)
    hi = _uniform(rng, n, 0.75, 1.0)
    h_min = _uniform(rng, n, 5.0, 40.0)
    h_span = _uniform(rng, n, 60.0, 400.0)
    p_total = _uniform(rng, n, 0.1, 20.0)
    snr_db = _uniform(rng, n, -20.0, 30.0)
    packet_bits = _integers(rng, n, 16, 512)
    half_blocklength = _integers(rng, n, 20, 200)
    pin = _strata(rng, n)
    draws = []
    for k in range(n):
        hop1, hop2 = hops[k]
        d1, d2 = D[k] * lo[k], D[k] * hi[k]
        h_max = h_min[k] + h_span[k]
        noise_db = _noise_for_snr(hop1, hop2, D[k], 0.5 * (d1 + d2), 0.5 * (h_min[k] + h_max),
                                  p_total[k], snr_db[k])
        draws.append(dict(hop1=hop1, hop2=hop2, noise_db=noise_db, D=D[k], d1=d1, d2=d2,
                          h_min=h_min[k], h_max=h_max, p_total=p_total[k],
                          packet_bits=packet_bits[k],
                          total_blocklength=2 * half_blocklength[k],
                          h_pin=h_min[k] + h_span[k] * pin[k]))
    return draws


def build_freespace(uavrelay, draws: list[dict]) -> list[tuple]:
    """(scenario, blocklength) pairs for the inverse-square batch."""
    out = []
    for d in draws:
        scn = uavrelay.FreeSpaceScenario.from_db(
            d["D"], d["H"], d["d1"], d["d2"], d["beta1_db"], d["beta2_db"], d["p_total"])
        blk = uavrelay.BlocklengthParams(d["packet_bits"], d["total_blocklength"])
        out.append((scn, blk))
    return out


def build_atg3d(uavrelay, draws: list[dict]) -> list[tuple]:
    """(scenario, pinned height) pairs for the air-to-ground batch."""
    out = []
    for d in draws:
        env1 = uavrelay.AtgEnvironment.from_preset(d["hop1"], CARRIER_HZ, d["noise_db"])
        env2 = uavrelay.AtgEnvironment.from_preset(d["hop2"], CARRIER_HZ, d["noise_db"])
        blk = uavrelay.BlocklengthParams(d["packet_bits"], d["total_blocklength"])
        scn = uavrelay.Atg3dScenario(d["D"], d["d1"], d["d2"], d["h_min"], d["h_max"],
                                     env1, env2, d["p_total"], blk)
        out.append((scn, d["h_pin"]))
    return out
