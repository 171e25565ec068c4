"""Exact arithmetic in real quadratic fields Q(sqrt(D)).

Numbers are kept as ``p + q*sqrt(D)`` with rational ``p, q`` and the radical
left formal, so equality and sign tests are exact.  Floating point only enters
through the explicit :meth:`QuadNum.to_float` escape hatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import (
    InvalidDiscriminant,
    MismatchedField,
    OutsideTheoremHypotheses,
    PrymsvError,
    SquareDiscriminant,
    UnsupportedResidue,
)

RationalLike = Union[int, Fraction]


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

    def __str__(self) -> str:
        """Render as ``p/q+r/s*sqrtD``, e.g. ``1/2+1/2*sqrt17``."""
        sign = "-" if self.q < 0 else "+"
        return f"{self.p}{sign}{abs(self.q)}*sqrt{self.D}"

    def __repr__(self) -> str:
        return f"QuadNum({self.p!r}, {self.q!r}, {self.D})"


def lambda_of(D: int, e: int) -> QuadNum:
    """The eigenvalue ``(e + sqrt(D)) / 2`` as an exact quadratic number."""
    check_discriminant(D)
    return QuadNum(Fraction(e, 2), Fraction(1, 2), D)
