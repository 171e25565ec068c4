"""Discriminant validation.

:func:`admissible` decides, in one place, which discriminants each
computation accepts, down to what a discriminant is (a positive int
``D ≡ 0, 1 (mod 4)``); :func:`check_discriminant` raises its rejection.
"""

from __future__ import annotations

import math

from .errors import InvalidDiscriminant, OutsideTheoremHypotheses, PrymsvError


def check_discriminant(D: int) -> int:
    """Validate that ``D`` is a positive int with ``D % 4 in (0, 1)``."""
    if err := admissible(D, "disc"):
        raise err
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
    if type(D) is not int or D <= 0 or D % 4 > 1:
        return InvalidDiscriminant(f"{D!r} is not a positive discriminant")
    if D % 8 not in residues:
        allowed = ", ".join(map(str, residues))
        return OutsideTheoremHypotheses(
            f"D = {D} ≡ {D % 8} (mod 8): the {locus} locus needs D ≡ {allowed} (mod 8)"
        )
    if not squares and is_square(D):
        return OutsideTheoremHypotheses(f"D = {D} is a square")
    if D <= bound:
        return OutsideTheoremHypotheses(
            f"D = {D} is too small: the {locus} locus needs D > {bound}"
        )
    return None


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n
