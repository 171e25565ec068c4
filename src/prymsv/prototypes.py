"""Enumeration of the three prototype families.

A prototype is an integer quadruple ``(a, b, d, e)`` subject to a discriminant
relation (``D = e**2 + 8ad`` for the cylinder and triple-of-tori families,
``D' = e**2 + 4ad`` for the splitting family) together with gcd and range
constraints.  Prototypes parametrize cusps and boundary components of the
eigenform loci; everything here is pure integer arithmetic.

One loop walks the ``(e, a, d)`` groups of a family.  The ``enumerate_*``
functions build validated prototype objects from it; :func:`protos_csv`
streams each group's CSV rows, a group with one ``b`` as one formatted row and
a larger group as one join over the decimal strings of ``b``, so its memory is
bounded by the largest group (at most ``D/8`` rows).  Every row of that loop
meets the family's constraints, so none needs a validator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, TypeVar

from .errors import InvalidPrototype
from .exactq import admissible


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


@dataclass(frozen=True)
class _Proto:
    """A prototype ``(a, b, d, e)`` of one family, validated on construction.

    Every family needs ``a > 0``, ``d > 0``, ``0 <= b < b_bound(a, d)`` and
    ``gcd(a, b, d, e) = 1``; its discriminant is ``D = e**2 + k*a*d``.  A
    family sets only the class constants below.
    """

    a: int
    b: int
    d: int
    e: int

    #: The coefficient of ``a*d`` in the discriminant.
    k: ClassVar[int] = 8
    #: The family's name in CSV output.
    kind: ClassVar[str]
    #: The :func:`~prymsv.exactq.admissible` locus that gates the enumeration.
    locus: ClassVar[str]
    #: Whether the family also needs ``a > d + e``.
    a_exceeds_d_plus_e: ClassVar[bool] = False
    #: The exclusive upper bound on ``b``, as a function of ``(a, d)``.
    b_bound = staticmethod(math.gcd)

    def __post_init__(self) -> None:
        """Raise :class:`InvalidPrototype` unless the prototype is in its family."""
        a, b, d, e = self.a, self.b, self.d, self.e
        if a <= 0 or d <= 0:
            need = "a > 0 and d > 0"
        elif not 0 <= b < self.b_bound(a, d):
            need = f"0 <= b < {self.b_bound(a, d)}"
        elif math.gcd(a, b, d, e) != 1:
            need = "gcd(a, b, d, e) = 1"
        elif self.a_exceeds_d_plus_e and a <= d + e:
            need = "a > d + e"
        else:
            return
        raise InvalidPrototype(f"{self!r} needs {need}")

    @property
    def D(self) -> int:
        return self.e * self.e + self.k * self.a * self.d


@dataclass(frozen=True)
class CylProto(_Proto):
    """Cylinder prototype: ``D = e**2 + 8ad``, ``0 <= b < gcd(a, d)``."""

    kind = "cyl"
    locus = "disc"


@dataclass(frozen=True)
class TripleProto(_Proto):
    """Triple-of-tori prototype: ``D = e**2 + 8ad``, ``0 <= b < a``."""

    kind = "triple"
    locus = "triple"

    @staticmethod
    def b_bound(a: int, d: int) -> int:
        return a


@dataclass(frozen=True)
class SplitProto(_Proto):
    """Splitting prototype: ``D' = e**2 + 4ad``, ``0 <= b < gcd(a, d)``, ``a > d + e``.

    Its ``D`` is the paper's ``D'``.
    """

    k = 4
    kind = "split"
    locus = "split"
    a_exceeds_d_plus_e = True


P = TypeVar("P", bound=_Proto)

#: One group of prototypes sharing ``(e, a, d)``: ``(e, a, d, bs)``.
_Group = tuple[int, int, int, Iterable[int]]


def _groups(cls: type[_Proto], D: int) -> Iterator[_Group]:
    """The ``(e, a, d, bs)`` groups of family ``cls`` at discriminant ``D``.

    Raises at once if ``D`` is outside the family's locus.  The groups come
    in ``(e, a, d)`` order; ``bs`` lists the admissible ``b`` in ascending
    order.  ``gcd(a, b, d, e) = gcd(b, G)`` with ``G = gcd(a, d, e)``, so
    when ``G = 1`` every ``b`` below the bound is admissible.
    """
    if err := admissible(D, cls.locus):
        raise err
    bound = math.isqrt(D - 1)

    def walk() -> Iterator[_Group]:
        k, b_bound, a_exceeds_d_plus_e = cls.k, cls.b_bound, cls.a_exceeds_d_plus_e
        for e in range(-bound, bound + 1):
            if (D - e * e) % k:
                continue
            n = (D - e * e) // k
            for a in _divisors(n):
                d = n // a
                if a_exceeds_d_plus_e and a <= d + e:
                    continue
                G = math.gcd(a, d, e)
                bs = range(b_bound(a, d))
                yield e, a, d, bs if G == 1 else [b for b in bs if math.gcd(b, G) == 1]

    return walk()


def _enumerate(cls: type[P], D: int) -> list[P]:
    """The prototypes of :func:`_groups`, built and validated, by ``(e, a, d, b)``."""
    return [cls(a, b, d, e) for e, a, d, bs in _groups(cls, D) for b in bs]


def enumerate_cyl(D: int) -> list[CylProto]:
    """All cylinder prototypes of discriminant ``D``, by ``(e, a, d, b)``."""
    return _enumerate(CylProto, D)


def enumerate_triple(D: int) -> list[TripleProto]:
    """All triple-of-tori prototypes of discriminant ``D``, by ``(e, a, d, b)``."""
    return _enumerate(TripleProto, D)


def enumerate_triple_e(D: int, e: int) -> list[TripleProto]:
    """The triple prototypes of discriminant ``D`` with the given ``e``, by ``(a, d, b)``.

    The groups of :func:`enumerate_triple` filtered on ``e``: only the slice is built.
    """
    groups = _groups(TripleProto, D)
    return [TripleProto(a, b, d, e) for g, a, d, bs in groups if g == e for b in bs]


def enumerate_split(D: int) -> list[SplitProto]:
    """Splitting prototypes of discriminant ``D`` (the paper's ``D'``), by ``(e, a, d, b)``."""
    return _enumerate(SplitProto, D)


def protos_csv(cls: type[_Proto], D: int) -> Iterator[str]:
    """CSV of family ``cls`` at ``D``: the header ``D,kind,a,b,d,e``, then one
    string of rows per ``(e, a, d)`` group, in :func:`_enumerate`'s order.

    Every line ends in a newline.  A group with one ``b`` (most ``cyl`` and
    ``split`` groups) is one formatted row; a larger group's rows are one join
    over the call's decimal strings of ``b``, so memory is still bounded by the
    largest group.
    No prototype object is built: the rows of :func:`_groups` meet the family's
    constraints by construction (``a`` divides ``n``, ``d`` is its cofactor,
    ``b`` runs below the bound prime to ``gcd(a, d, e)``, the loop filters on
    ``a > d + e``), as ``test_protos_csv_matches_the_objects`` checks.  An
    inadmissible ``D`` raises before the header is yielded.
    """
    groups = _groups(cls, D)
    yield "D,kind,a,b,d,e\n"
    pre = f"{D},{cls.kind},"
    digits: list[str] = []  # str(b) for every b below the largest bound so far
    for e, a, d, bs in groups:
        # bs is never empty: it holds b = 0 when G = 1 and b = 1 when G > 1.
        if len(bs) == 1:
            yield f"{pre}{a},{bs[0]},{d},{e}\n"
            continue
        head, tail = f"{pre}{a},", f",{d},{e}\n"
        digits.extend(map(str, range(len(digits), bs[-1] + 1)))
        strs = digits[: len(bs)] if isinstance(bs, range) else [digits[b] for b in bs]
        yield head + (tail + head).join(strs) + tail
