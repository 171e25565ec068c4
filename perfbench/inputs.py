"""Seeded inputs for the benchmark workloads, and the independent counts used to check them.

Nothing here imports the program: the counts below are closed forms written
for the benchmark, so they can serve as oracles for the program's output.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# Sizes are fixed across seeds; the seed only chooses which inputs of a
# fixed range are used.
EIGEN_RANGE, EIGEN_COUNT = (100, 200), 40
# 260 keeps the c_index memo (about 303,000 entries) clear of the dict resize
# at 349,525 entries, which added 20 MB to the peak memory of some seeds at 300.
SD_RANGE, SD_COUNT = (10**5, 10**7), 260
MODULAR_NMAX = 20000
CHI_START, CHI_WIDTH = (5, 45), 2000
CONJECTURE_END = (2000, 2100)
ATLAS_RANGE, ATLAS_COUNT = (1800, 2200), 140
FLAT_D, FLAT_PROTO, FLAT_RADIUS = 8, (1, 0, 1, 0), 30.0
FLAT_SLIT_FRACTION = (0.05, 0.3)
# A stratified sample is redrawn until each per-kind work count lies within
# this share of its expected value, so that every seed asks for the same work.
WORK_TOLERANCE = 0.01


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int) -> list[int]:
    small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
    return small + [n // i for i in reversed(small) if i * i != n]


def proto_counts(D: int) -> dict[str, int]:
    """Numbers of cylinder, triple and splitting prototypes of discriminant ``D``.

    The prototype conditions ``gcd(a, b, d, e) = 1`` and ``0 <= b < g`` (with
    ``g = gcd(a, d)`` or ``g = a``) leave ``(g / G) * phi(G)`` choices of ``b``,
    where ``G = gcd(g, e)`` divides ``g``; this counts without enumerating.
    ``split_b0`` counts the splitting prototypes with ``b = 0``.
    """
    counts = {"cyl": 0, "triple": 0, "split": 0, "split_b0": 0}
    bound = math.isqrt(D - 1)
    for e in range(-bound, bound + 1):
        if (D - e * e) % 8 == 0:
            n = (D - e * e) // 8
            for a in _divisors(n):
                d = n // a
                g = math.gcd(a, d)
                G = math.gcd(g, e)
                counts["cyl"] += g // G * _phi(G)
                G = math.gcd(a, math.gcd(d, e))
                counts["triple"] += a // G * _phi(G)
        if (D - e * e) % 4 == 0:
            n = (D - e * e) // 4
            for a in _divisors(n):
                d = n // a
                if a <= d + e:
                    continue
                g = math.gcd(a, d)
                G = math.gcd(g, e)
                counts["split"] += g // G * _phi(G)
                counts["split_b0"] += G == 1
    return counts


def _balanced_sample(
    rng: random.Random, population: list[int], k: int, work: dict[int, tuple[int, ...]]
) -> list[int]:
    """One element from each of ``k`` consecutive strata of ``population``,
    redrawn until every component of the summed ``work`` is within
    ``WORK_TOLERANCE`` of its expected value."""
    width = len(population) / k
    strata = [population[int(i * width) : int((i + 1) * width)] for i in range(k)]
    target = [
        sum(sum(work[D][j] for D in s) / len(s) for s in strata)
        for j in range(len(work[population[0]]))
    ]
    for _ in range(100_000):
        pick = [rng.choice(s) for s in strata]
        totals = [sum(work[D][j] for D in pick) for j in range(len(target))]
        if all(abs(t - g) <= WORK_TOLERANCE * g for t, g in zip(totals, target)):
            return pick
    raise RuntimeError("no balanced sample found")


def eigen_inputs(rng: random.Random) -> dict:
    lo, hi = EIGEN_RANGE
    population = [D for D in range(lo, hi + 1) if D % 4 in (0, 1)]
    counts = {D: proto_counts(D) for D in population}
    # verify eigen runs one check per cylinder and triple prototype and
    # three per splitting prototype with b = 0.
    work = {
        D: (c["cyl"], c["triple"], 3 * c["split_b0"]) for D, c in counts.items()
    }
    Ds = _balanced_sample(rng, population, EIGEN_COUNT, work)
    return {"D": Ds, "expected_checks": [sum(work[D]) for D in Ds]}


def numtheory_inputs(rng: random.Random) -> dict:
    lo, hi = SD_RANGE
    width = (hi - lo) // SD_COUNT
    sd = []
    for i in range(SD_COUNT):
        while True:
            D = rng.randrange(lo + i * width, lo + (i + 1) * width) // 8 * 8 + 1
            if not is_square(D):
                break
        sd.append(D)
    # Largest first: the first call sizes the sieve for all later ones, so
    # memory depends on the largest D alone and not on the drawing order.
    sd.sort(reverse=True)
    dmin = rng.randint(*CHI_START)
    dmax = dmin + CHI_WIDTH
    chi = {
        D: str(Fraction(-proto_counts(D)["triple"], 6))
        for D in range(dmin, dmax + 1)
        if D % 4 in (0, 1) and D % 8 != 5 and D > 4 and not is_square(D)
    }
    return {
        "S_D": sd,
        "nmax": MODULAR_NMAX,
        "chi": [dmin, dmax],
        "expected_chi": chi,
        "conjecture_dmax": rng.randint(*CONJECTURE_END),
    }


def atlas_inputs(rng: random.Random) -> dict:
    lo, hi = ATLAS_RANGE
    population = [D for D in range(lo, hi + 1) if D % 4 in (0, 1) and not is_square(D)]
    counts = {D: proto_counts(D) for D in population}
    work = {D: (c["cyl"], c["triple"], c["split"]) for D, c in counts.items()}
    Ds = _balanced_sample(rng, population, ATLAS_COUNT, work)
    return {"D": Ds, "expected_rows": [dict(zip(("cyl", "triple", "split"), work[D])) for D in Ds]}


def flat_systole() -> float:
    """Shortest vector of the two lattices of the D = 8 surface: sqrt(2)(Z + iZ) and Z + iZ."""
    return min(math.sqrt(2), 1.0)


def flat_inputs(rng: random.Random) -> dict:
    angle = rng.uniform(0.0, 2 * math.pi)
    length = rng.uniform(*FLAT_SLIT_FRACTION) * flat_systole()
    return {
        "d": FLAT_D,
        "proto": list(FLAT_PROTO),
        "slit": [length * math.cos(angle), length * math.sin(angle)],
        "radius": FLAT_RADIUS,
    }


WORKLOADS = {
    "eigen": eigen_inputs,
    "numtheory": numtheory_inputs,
    "atlas": atlas_inputs,
    "flat": flat_inputs,
}


def make_inputs(workload: str, seed: int) -> dict:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
