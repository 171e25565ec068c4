"""Exact arithmetic in real quadratic fields Q(sqrt(D)).

Numbers are kept as ``p + q*sqrt(D)`` with rational ``p, q`` and the radical
left formal, so equality and sign tests are exact.  Floating point only enters
through the explicit :meth:`QuadNum.to_float` escape hatch.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import (
    InvalidDiscriminant,
    MismatchedField,
    OutsideTheoremHypotheses,
    ParseError,
    PrymsvError,
    SquareDiscriminant,
    UnsupportedResidue,
)

Rational = Fraction
RationalLike = Union[int, Fraction]

_SERIAL_RE = re.compile(
    r"^(?P<p>-?\d+(?:/\d+)?)(?P<sign>[+-])(?P<q>\d+(?:/\d+)?)\*sqrt(?P<D>\d+)$"
)


def check_discriminant(D: int) -> int:
    """Validate that ``D`` is a positive int with ``D % 4 in (0, 1)``."""
    if type(D) is not int or D <= 0 or D % 4 > 1:
        raise InvalidDiscriminant(f"{D!r} is not a positive discriminant")
    return D


#: For each locus of :func:`admissible`: the residues of D mod 8 it allows,
#: whether it allows squares, and the bound that D must exceed.
_LOCI: dict[str, tuple[tuple[int, ...], bool, int]] = {
    "disc": ((0, 1, 4, 5), True, 0),
    "split": ((0, 1, 4, 5), True, 4),
    "triple": ((0, 1, 4), True, 4),
    "W03": ((0, 1, 4), False, 4),
    "theorem": ((0, 1, 4), False, 9),
    "S_D": ((1,), False, 0),
}


def admissible(D: int, locus: str) -> PrymsvError | None:
    """Why the computations on ``locus`` reject ``D``, or ``None`` if they accept it.

    The one place that decides which discriminants a computation accepts:

    - ``"disc"``: a positive int ``D ≡ 0, 1 (mod 4)``;
    - ``"split"``: ``"disc"`` with ``D > 4`` (splitting prototypes);
    - ``"triple"``: ``"disc"`` with ``D > 4``, ``D ≢ 5 (mod 8)``; squares
      allowed (triple prototypes);
    - ``"W03"``: ``"triple"`` with ``D`` non-square (``chi(W_D(0^3))``, volumes);
    - ``"theorem"``: ``"W03"`` with ``D > 9`` (the Siegel-Veech constants);
    - ``"S_D"``: ``"disc"`` with ``D ≡ 1 (mod 8)`` non-square (the locus
      splits into two components; ``S_D = 0``).

    A rejection is an :class:`InvalidDiscriminant` for a ``D`` that is no
    discriminant, else an :class:`OutsideTheoremHypotheses` naming the
    residue, the square or the size.  Use ``if err := admissible(D, locus):
    raise err`` to fail and ``admissible(D, locus) is None`` to filter.
    """
    residues, squares, bound = _LOCI[locus]
    try:
        check_discriminant(D)
    except InvalidDiscriminant as exc:
        return exc
    if D % 8 not in residues:
        allowed = ", ".join(map(str, residues))
        return UnsupportedResidue(
            f"D = {D} ≡ {D % 8} (mod 8): the {locus} locus needs D ≡ {allowed} (mod 8)"
        )
    if not squares and is_square(D):
        return SquareDiscriminant(f"D = {D} is a square")
    if D <= bound:
        return OutsideTheoremHypotheses(
            f"D = {D} is too small: the {locus} locus needs D > {bound}"
        )
    return None


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _sign_rational(x: Fraction) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class QuadNum:
    """An element ``p + q*sqrt(D)`` of Q(sqrt(D)).

    The radical is formal: it is never collapsed to an integer even when ``D``
    is a perfect square, so a ``QuadNum`` compares equal to another one only
    when both rational coordinates agree.  Sign computations are nevertheless
    exact for every ``D > 0``.
    """

    p: Fraction
    q: Fraction
    D: int

    def __init__(self, p: RationalLike, q: RationalLike, D: int) -> None:
        check_discriminant(D)
        object.__setattr__(self, "p", p if type(p) is Fraction else Fraction(p))
        object.__setattr__(self, "q", q if type(q) is Fraction else Fraction(q))
        object.__setattr__(self, "D", D)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def rational(cls, x: RationalLike, D: int) -> "QuadNum":
        return cls(Fraction(x), Fraction(0), D)

    @classmethod
    def sqrt_D(cls, D: int) -> "QuadNum":
        return cls(Fraction(0), Fraction(1), D)

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other: "QuadNum | RationalLike") -> "QuadNum":
        if isinstance(other, QuadNum):
            if other.D != self.D:
                raise MismatchedField(
                    f"cannot combine sqrt({self.D}) with sqrt({other.D})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadNum.rational(other, self.D)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "QuadNum | RationalLike") -> "QuadNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadNum(self.p + o.p, self.q + o.q, self.D)

    __radd__ = __add__

    def __sub__(self, other: "QuadNum | RationalLike") -> "QuadNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadNum(self.p - o.p, self.q - o.q, self.D)

    def __rsub__(self, other: RationalLike) -> "QuadNum":
        return QuadNum.rational(other, self.D) - self

    def __mul__(self, other: "QuadNum | RationalLike") -> "QuadNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadNum(
            self.p * o.p + self.q * o.q * self.D,
            self.p * o.q + self.q * o.p,
            self.D,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "QuadNum":
        return QuadNum(-self.p, -self.q, self.D)

    def __truediv__(self, other: "QuadNum | RationalLike") -> "QuadNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        norm = o.p * o.p - o.q * o.q * o.D
        if norm == 0:
            raise ZeroDivisionError(f"division by {o} (norm zero)")
        inv = QuadNum(o.p / norm, -o.q / norm, o.D)
        return self * inv

    def __rtruediv__(self, other: RationalLike) -> "QuadNum":
        return QuadNum.rational(other, self.D) / self

    def conjugate(self) -> "QuadNum":
        """The Galois conjugate ``p - q*sqrt(D)``."""
        return QuadNum(self.p, -self.q, self.D)

    def norm(self) -> Fraction:
        return self.p * self.p - self.q * self.q * self.D

    def trace(self) -> Fraction:
        return 2 * self.p

    # -- exact order structure -------------------------------------------------

    def sign(self) -> int:
        """Exact sign of ``p + q*sqrt(D)`` (with the positive square root).

        Determined by comparing ``p**2`` against ``q**2 * D`` with a case
        analysis on the signs of the coordinates; no floating point is used,
        and the answer is exact even when ``D`` is a perfect square.
        """
        sp, sq = _sign_rational(self.p), _sign_rational(self.q)
        if sq == 0:
            return sp
        if sp == 0:
            return sq
        if sp == sq:
            return sp
        # Opposite signs: |p| vs |q|*sqrt(D) decides, i.e. p^2 vs q^2 D.
        cmp = _sign_rational(self.p * self.p - self.q * self.q * self.D)
        return sp * cmp if cmp != 0 else 0

    def is_zero(self) -> bool:
        return self.sign() == 0

    def __lt__(self, other: "QuadNum | RationalLike") -> bool:
        o = self._coerce(other)
        return (self - o).sign() < 0

    def __le__(self, other: "QuadNum | RationalLike") -> bool:
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other: "QuadNum | RationalLike") -> bool:
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other: "QuadNum | RationalLike") -> bool:
        return (self - self._coerce(other)).sign() >= 0

    # -- conversions -----------------------------------------------------------

    def to_float(self) -> float:
        return float(self.p) + float(self.q) * math.sqrt(self.D)

    def serialize(self) -> str:
        """Render as ``p/q+r/s*sqrtD``, e.g. ``1/2+1/2*sqrt17``."""
        sign = "-" if self.q < 0 else "+"
        return f"{self.p}{sign}{abs(self.q)}*sqrt{self.D}"

    @classmethod
    def parse(cls, text: str) -> "QuadNum":
        m = _SERIAL_RE.match(text.strip())
        if m is None:
            raise ParseError(f"cannot parse quadratic number from {text!r}")
        q = Fraction(m.group("q"))
        if m.group("sign") == "-":
            q = -q
        return cls(Fraction(m.group("p")), q, int(m.group("D")))

    def __str__(self) -> str:
        return self.serialize()

    def __repr__(self) -> str:
        return f"QuadNum({self.p!r}, {self.q!r}, {self.D})"


@dataclass(frozen=True)
class QuadComplex:
    """A complex number with real and imaginary parts in the same Q(sqrt(D))."""

    re: QuadNum
    im: QuadNum

    def __init__(self, re: QuadNum, im: QuadNum) -> None:
        if re.D != im.D:
            raise MismatchedField("real and imaginary parts live in different fields")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @classmethod
    def from_parts(
        cls, re: "QuadNum | RationalLike", im: "QuadNum | RationalLike", D: int
    ) -> "QuadComplex":
        if not isinstance(re, QuadNum):
            re = QuadNum.rational(re, D)
        if not isinstance(im, QuadNum):
            im = QuadNum.rational(im, D)
        return cls(re, im)

    @property
    def D(self) -> int:
        return self.re.D

    def _coerce(self, other: "QuadComplex | QuadNum | RationalLike") -> "QuadComplex":
        if isinstance(other, QuadComplex):
            if other.D != self.D:
                raise MismatchedField(
                    f"cannot combine sqrt({self.D}) with sqrt({other.D})"
                )
            return other
        if isinstance(other, (QuadNum, int, Fraction)):
            return QuadComplex.from_parts(other, 0, self.D)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "QuadComplex | QuadNum | RationalLike") -> "QuadComplex":
        o = self._coerce(other)
        return QuadComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: "QuadComplex | QuadNum | RationalLike") -> "QuadComplex":
        o = self._coerce(other)
        return QuadComplex(self.re - o.re, self.im - o.im)

    def __mul__(self, other: "QuadComplex | QuadNum | RationalLike") -> "QuadComplex":
        o = self._coerce(other)
        return QuadComplex(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "QuadComplex":
        return QuadComplex(-self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def __str__(self) -> str:
        return f"({self.re}) + ({self.im})*i"


def lambda_of(D: int, e: int) -> QuadNum:
    """The eigenvalue ``(e + sqrt(D)) / 2`` as an exact quadratic number."""
    check_discriminant(D)
    return QuadNum(Fraction(e, 2), Fraction(1, 2), D)
