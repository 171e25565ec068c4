"""Enumeration and classification of the three prototype families.

A prototype is an integer quadruple ``(a, b, d, e)`` subject to a discriminant
relation (``D = e**2 + 8ad`` for the cylinder and triple-of-tori families,
``D' = e**2 + 4ad`` for the splitting family) together with gcd and range
constraints.  Prototypes parametrize cusps and boundary components of the
eigenform loci; everything here is pure integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .errors import (
    BRequired,
    InvalidDiscriminant,
    InvalidPrototype,
    UnsupportedResidue,
)
from .exactq import admissible, check_discriminant


def _divisors(n: int) -> list[int]:
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


@dataclass(frozen=True, order=True)
class CylProto:
    """Cylinder prototype: ``D = e**2 + 8ad``, ``0 <= b < gcd(a, d)``."""

    a: int
    b: int
    d: int
    e: int

    def __post_init__(self) -> None:
        if self.a <= 0 or self.d <= 0:
            raise InvalidPrototype(f"{self} needs a > 0 and d > 0")
        if not 0 <= self.b < math.gcd(self.a, self.d):
            raise InvalidPrototype(f"{self} needs 0 <= b < gcd(a, d)")
        if math.gcd(math.gcd(self.a, self.b), math.gcd(self.d, self.e)) != 1:
            raise InvalidPrototype(f"{self} needs gcd(a, b, d, e) = 1")

    @property
    def D(self) -> int:
        return self.e * self.e + 8 * self.a * self.d


@dataclass(frozen=True, order=True)
class TripleProto:
    """Triple-of-tori prototype: ``D = e**2 + 8ad``, ``0 <= b < a``."""

    a: int
    b: int
    d: int
    e: int

    def __post_init__(self) -> None:
        if self.a <= 0 or self.d <= 0:
            raise InvalidPrototype(f"{self} needs a > 0 and d > 0")
        if not 0 <= self.b < self.a:
            raise InvalidPrototype(f"{self} needs 0 <= b < a")
        if math.gcd(math.gcd(self.a, self.b), math.gcd(self.d, self.e)) != 1:
            raise InvalidPrototype(f"{self} needs gcd(a, b, d, e) = 1")

    @property
    def D(self) -> int:
        return self.e * self.e + 8 * self.a * self.d


@dataclass(frozen=True, order=True)
class SplitProto:
    """Splitting prototype: ``D' = e**2 + 4ad``, ``0 <= b < gcd(a, d)``, ``a > d + e``."""

    a: int
    b: int
    d: int
    e: int

    def __post_init__(self) -> None:
        if self.a <= 0 or self.d <= 0:
            raise InvalidPrototype(f"{self} needs a > 0 and d > 0")
        if not 0 <= self.b < math.gcd(self.a, self.d):
            raise InvalidPrototype(f"{self} needs 0 <= b < gcd(a, d)")
        if math.gcd(math.gcd(self.a, self.b), math.gcd(self.d, self.e)) != 1:
            raise InvalidPrototype(f"{self} needs gcd(a, b, d, e) = 1")
        if self.a <= self.d + self.e:
            raise InvalidPrototype(f"{self} needs a > d + e")

    @property
    def Dprime(self) -> int:
        return self.e * self.e + 4 * self.a * self.d


class Sign(Enum):
    PLUS = "+"
    MINUS = "-"
    NONE = "none"


@dataclass(frozen=True)
class OrbitClass:
    """Invariants ``(e, l, m)`` with ``D = e**2 + 8*l**2*m`` separating orbits.

    For ``D % 8 == 1`` the locus has two components and ``sign`` records which
    one the prototype's boundary lies on (``+`` iff ``e % 4 == 1``).
    """

    e: int
    l: int
    m: int
    D: int
    sign: Sign

    def __post_init__(self) -> None:
        if self.D != self.e * self.e + 8 * self.l * self.l * self.m:
            raise InvalidPrototype(f"{self}: D != e^2 + 8*l^2*m")
        if math.gcd(self.e, self.l) != 1:
            raise InvalidPrototype(f"{self}: gcd(e, l) != 1")


def _sort_key(p: "CylProto | TripleProto | SplitProto") -> tuple[int, int, int, int]:
    return (p.e, p.a, p.d, p.b)


def enumerate_cyl(D: int) -> list[CylProto]:
    """All cylinder prototypes of discriminant ``D``, sorted by ``(e, a, d, b)``."""
    check_discriminant(D)
    out: list[CylProto] = []
    for e, n in _e_candidates(D, 8):
        for a in _divisors(n):
            d = n // a
            g = math.gcd(a, d)
            for b in range(g):
                if math.gcd(math.gcd(a, b), math.gcd(d, e)) == 1:
                    out.append(CylProto(a, b, d, e))
    return sorted(out, key=_sort_key)


def _e_candidates(D: int, k: int) -> Iterator[tuple[int, int]]:
    """Pairs ``(e, (D - e^2)/k)`` over all e with ``e^2 < D``, ``e^2 ≡ D (mod k)``."""
    bound = math.isqrt(D - 1)
    for e in range(-bound, bound + 1):
        if (D - e * e) % k == 0:
            yield e, (D - e * e) // k


def enumerate_triple(D: int) -> list[TripleProto]:
    """All triple-of-tori prototypes of discriminant ``D``."""
    if err := admissible(D, "triple"):
        raise err
    out: list[TripleProto] = []
    for e, n in _e_candidates(D, 8):
        out.extend(_triple_protos(e, n))
    return sorted(out, key=_sort_key)


def enumerate_triple_e(D: int, e: int) -> list[TripleProto]:
    """The triple prototypes of discriminant ``D`` with the given ``e``."""
    if err := admissible(D, "triple"):
        raise err
    if e * e >= D or (D - e * e) % 8 != 0:
        return []
    return sorted(_triple_protos(e, (D - e * e) // 8), key=_sort_key)


def _triple_protos(e: int, n: int) -> list[TripleProto]:
    out = []
    for a in _divisors(n):
        d = n // a
        for b in range(a):
            if math.gcd(math.gcd(a, b), math.gcd(d, e)) == 1:
                out.append(TripleProto(a, b, d, e))
    return out


def orbit_of(p: TripleProto) -> OrbitClass:
    """The orbit invariants of a triple prototype.

    Two triple prototypes of the same discriminant lie in the same
    GL+(2,R)-orbit if and only if their ``OrbitClass`` values agree.
    """
    l = math.gcd(math.gcd(p.a, p.b), p.d)
    m = (p.a * p.d) // (l * l)
    D = p.D
    if D % 8 == 1:
        sign = Sign.PLUS if p.e % 4 == 1 else Sign.MINUS
    else:
        sign = Sign.NONE
    return OrbitClass(e=p.e, l=l, m=m, D=D, sign=sign)


def enumerate_split(Dprime: int) -> list[SplitProto]:
    """All splitting prototypes of discriminant ``Dprime``."""
    if err := admissible(Dprime, "split"):
        raise err
    out: list[SplitProto] = []
    for e, n in _e_candidates(Dprime, 4):
        for a in _divisors(n):
            d = n // a
            if a <= d + e:
                continue
            g = math.gcd(a, d)
            for b in range(g):
                if math.gcd(math.gcd(a, b), math.gcd(d, e)) == 1:
                    out.append(SplitProto(a, b, d, e))
    return sorted(out, key=_sort_key)


class SplitClass(Enum):
    SAME_D = "SameD"
    FOUR_D = "FourD"


def classify_split(p: SplitProto, i: int) -> SplitClass:
    """Classify the splitting of ``p`` along curve system ``w_i`` (i = 1..5).

    Returns ``SAME_D`` when the parity condition of case ``i`` holds, in which
    case the resulting eigenform keeps discriminant ``D'``; otherwise the
    discriminant quadruples.  Only stated (and implemented) for ``b = 0``.
    """
    if p.b != 0:
        raise BRequired(f"classification is only defined for b = 0, got {p}")
    if i not in (1, 2, 3, 4, 5):
        raise ValueError(f"curve system index must be 1..5, got {i}")
    a, d, e = p.a, p.d, p.e
    conds = {
        1: a % 2 == 0,
        2: a % 2 == 0 and d % 2 == 0,
        3: d % 2 == 0 and e % 2 == 0,
        4: (a - e) % 2 == 0 and d % 2 == 0,
        5: (a - d - e) % 2 == 0,
    }
    return SplitClass.SAME_D if conds[i] else SplitClass.FOUR_D


def split_degree_witnesses(D: int) -> tuple[list[SplitProto], SplitClass]:
    """Witness prototypes for the degree count at discriminant ``D``.

    Returns the witnesses together with the classification value being
    counted: ``SAME_D`` for witnesses drawn from the prototypes of
    discriminant ``D`` itself, ``FOUR_D`` for witnesses drawn from
    discriminant ``D/4`` (whose non-splitting curve systems land in the
    discriminant-``4*(D/4) = D`` locus).
    """
    check_discriminant(D)
    quads: list[tuple[int, int]]
    if D % 8 == 1:
        if D <= 9:
            raise InvalidDiscriminant(f"D = {D} too small for a witness")
        quads, target = [((D - 1) // 4, -1), ((D - 1) // 4, 1)], SplitClass.SAME_D
    elif D % 4 != 0:
        raise UnsupportedResidue(f"no degree count for D = {D} ≡ {D % 8} (mod 8)")
    else:
        q = D // 4
        if q % 4 in (2, 3):
            # D = 8k or 8k + 4 with k odd; the witness sits at discriminant D.
            k = D // 8
            quads = [(2 * k, 0)] if D % 8 == 0 else [(2 * k + 1, 0)]
            target = SplitClass.SAME_D
        # Remaining cases: witnesses at discriminant D/4, counting the curve
        # systems along which the splitting jumps to discriminant 4*(D/4).
        elif q % 4 == 0:
            quads, target = [(D // 16, 0)], SplitClass.FOUR_D
        elif q % 8 == 1:
            k = (q - 1) // 8
            quads, target = [(2 * k, -1), (2 * k, 1)], SplitClass.FOUR_D
        else:  # q % 8 == 5
            k = (q - 5) // 8
            quads, target = [(2 * k + 1, 1)], SplitClass.FOUR_D
    witnesses = []
    for a, e in quads:
        try:
            witnesses.append(SplitProto(a, 0, 1, e))
        except InvalidPrototype:
            # At very small discriminants one of the two +-/ witnesses can fall
            # outside the a > d + e range; the surviving one suffices.
            pass
    if not witnesses:
        raise InvalidDiscriminant(f"D = {D} too small for a valid witness")
    return witnesses, target


def split_degree_counts(D: int) -> int:
    """Degree (divided by 4!) of the splitting map at discriminant ``D``.

    Counts, over the hard-coded witness prototypes, the curve systems whose
    classification hits the designated target discriminant.  All witnesses of
    a discriminant must agree; expected values are 1, 4, 3, 5 (by residue of
    ``D/4``) and 2 (``D ≡ 1 (mod 8)``).
    """
    witnesses, target = split_degree_witnesses(D)
    counts = {
        sum(1 for i in range(1, 6) if classify_split(w, i) is target)
        for w in witnesses
    }
    if len(counts) != 1:
        raise InvalidPrototype(f"witnesses for D = {D} disagree: {counts}")
    return counts.pop()


def protos_csv(protos: Iterable["CylProto | TripleProto | SplitProto"]) -> str:
    """CSV with header ``D,kind,a,b,d,e``, one prototype per row."""
    kinds = {CylProto: "cyl", TripleProto: "triple", SplitProto: "split"}
    lines = ["D,kind,a,b,d,e"]
    for p in protos:
        D = p.Dprime if isinstance(p, SplitProto) else p.D
        lines.append(f"{D},{kinds[type(p)]},{p.a},{p.b},{p.d},{p.e}")
    return "\n".join(lines)
