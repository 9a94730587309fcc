"""Correctness gate of the solver batches.

Every distinct scenario is checked once against invariants recomputed
with ``model`` (not with the library): SNR and error probability follow
from the returned placement and powers, the powers stay within budget,
the placement stays in the box, and bcd is not worse than the baseline
it starts from.  Later solves of the same scenario must repeat the first
result exactly.  On the default seed each scenario's result must also
match the digest stored at the seed commit (``refs/``).
"""

from __future__ import annotations

import hashlib

import model
from gen import CARRIER_HZ

DEFAULT_SEED = 0
DIGEST_CHARS = 8
# SNR/eps recomputed here use other (equivalent) float expressions
SNR_RTOL = 1e-9
EPS_RTOL = 1e-6
BUDGET_RTOL = 1e-12
# the line searches return lo + (hi - lo) * k / n, which can land an ulp
# or two past hi; such placements are counted, not failed
BOX_RTOL = 1e-12
# bcd stops once a cycle gains less than this share of SNR
BCD_RTOL = 1e-9


def result_key(results) -> tuple:
    """The outputs a solve must repeat exactly: placement, powers, SNR, eps, iterations."""
    return tuple((r.x, r.height, r.powers.p1, r.powers.p2, r.snr, r.error_prob, r.iterations)
                 for r in results)


def digest(key: tuple) -> str:
    """Short digest of a result key with floats at 9 significant digits.

    Nine digits let a later change reorder float arithmetic without
    tripping the stored seed-commit values.
    """
    text = "|".join(f"{v:.9g}" if isinstance(v, float) else str(v)
                    for row in key for v in row)
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def _check_box(solver: str, axis: str, v: float, lo: float, hi: float,
               problems: list[str], roundings: list[str]) -> None:
    if lo <= v <= hi:
        return
    slack = BOX_RTOL * (hi - lo)
    into = roundings if lo - slack <= v <= hi + slack else problems
    into.append(f"{solver}: {axis} = {v!r} outside [{lo!r}, {hi!r}]")


def _check_common(draw: dict, r, h1: float, h2: float, problems: list[str],
                  roundings: list[str]) -> None:
    p1, p2 = r.powers.p1, r.powers.p2
    if not (p1 >= 0.0 and p2 >= 0.0 and p1 + p2 <= draw["p_total"] * (1.0 + BUDGET_RTOL)):
        problems.append(f"{r.solver}: powers ({p1}, {p2}) break the budget {draw['p_total']}")
    _check_box(r.solver, "x", r.x, draw["d1"], draw["d2"], problems, roundings)
    snr = model.af_snr(h1, h2, p1, p2)
    if not _close(r.snr, snr, SNR_RTOL):
        problems.append(f"{r.solver}: SNR {r.snr} does not follow from its placement ({snr})")
    eps = model.error_prob(snr, draw["packet_bits"], draw["total_blocklength"])
    if not _close(r.error_prob, eps, EPS_RTOL):
        problems.append(f"{r.solver}: eps {r.error_prob} does not follow from its SNR ({eps})")


def check_freespace(draw: dict, results, roundings: list[str]) -> list[str]:
    """results: bcd, high-snr, fixed-location, fixed-power (see ``_check_bcd``)."""
    problems: list[str] = []
    for r in results:
        if r.height != draw["H"]:
            problems.append(f"{r.solver}: height {r.height} is not the fixed H {draw['H']}")
        h1 = model.freespace_gain(draw["beta1_db"], draw["H"], r.x)
        h2 = model.freespace_gain(draw["beta2_db"], draw["H"], draw["D"] - r.x)
        _check_common(draw, r, h1, h2, problems, roundings)
    _check_bcd(results[0], results[2], problems)
    return problems


def check_atg3d(draw: dict, results, roundings: list[str]) -> list[str]:
    """results: bcd, fixed-power, fixed-height, fixed-location (see ``_check_bcd``)."""
    problems: list[str] = []
    for r in results:
        _check_box(r.solver, "height", r.height, draw["h_min"], draw["h_max"],
                   problems, roundings)
        h1 = model.atg_gain(draw["hop1"], CARRIER_HZ, draw["noise_db"], r.height, r.x)
        h2 = model.atg_gain(draw["hop2"], CARRIER_HZ, draw["noise_db"], r.height, draw["D"] - r.x)
        _check_common(draw, r, h1, h2, problems, roundings)
    if results[2].height != draw["h_pin"]:
        problems.append(f"fixed-height flew at {results[2].height}, not {draw['h_pin']}")
    _check_bcd(results[0], results[3], problems)
    return problems


def _check_bcd(bcd, location, problems: list[str]) -> None:
    """bcd must not lose to fixed-location.

    Its first block solves exactly that baseline (best powers at the
    band or box midpoint), and no block lowers the SNR.  bcd can end below
    the other baselines at another coordinate-wise optimum, which
    ``bcd_shortfall`` measures instead.
    """
    if bcd.snr < location.snr * (1.0 - BCD_RTOL):
        problems.append(f"bcd SNR {bcd.snr} below fixed-location {location.snr}")


def bcd_shortfall(results) -> float:
    """How far bcd's SNR falls short of the best other solver, as a share (0 if it wins)."""
    best = max(r.snr for r in results[1:])
    return max(0.0, 1.0 - results[0].snr / best) if best > 0.0 else 0.0


class Gate:
    """Checks every solve of a pool; counts the operations that fail."""

    def __init__(self, kind: str, draws: list[dict], stored: list[str] | None):
        self._check = check_freespace if kind == "freespace-batch" else check_atg3d
        self.draws = draws
        self._stored = stored
        self.first: dict[int, tuple] = {}
        self.failed = 0
        self.problems: list[str] = []
        self.shortfalls: list[float] = []
        # placements past the box by rounding only (see BOX_RTOL)
        self.roundings: list[str] = []

    def check(self, index: int, results) -> bool:
        key = result_key(results)
        first = self.first.get(index)
        if first is not None:
            ok = key == first
            problems = [] if ok else [f"draw {index}: result differs from its first solve"]
        else:
            roundings: list[str] = []
            problems = [f"draw {index}: {p}"
                        for p in self._check(self.draws[index], results, roundings)]
            self.roundings += [f"draw {index}: {p}" for p in roundings]
            if self._stored is not None and digest(key) != self._stored[index]:
                problems.append(f"draw {index}: result differs from the stored seed-commit value")
            self.first[index] = key
            self.shortfalls.append(bcd_shortfall(results))
            ok = not problems
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems)
        return ok
