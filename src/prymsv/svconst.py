"""Siegel-Veech constants of the eigenform loci, and their volumes.

All quantities are exact rationals built from the Euler characteristics: the
external table supplies chi(W_D(2)) and chi(W_D(4)), while chi(W_D(0^3)) is
always recomputed from :func:`prymsv.euler.chi_W03` (the table's column is a
cross-check only).  The constants and the volume share one numerator, stated
once in :func:`sv_constants`; the volume is ``SVResult.volume_pi2``, the
coefficient of pi^2.  With the table's negative chi inputs it is *negative*;
it is returned verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MissingTableEntry, OutsideTheoremHypotheses
from .euler import BUILTIN_TABLE, EulerTable, chi_W03
from .exactq import admissible

CONJECTURED = (Fraction(25, 9), Fraction(3), Fraction(2, 9))


def b_D(D: int) -> int:
    """The correction term attached to the quarter-discriminant.

    ``0`` if ``D/4 ≡ 2, 3 (mod 4)``; ``4`` if ``D/4 ≡ 0 (mod 4)``;
    ``3`` if ``D/4 ≡ 1 (mod 8)``; ``5`` if ``D/4 ≡ 5 (mod 8)``.  This is the
    one statement of the rule; the tests' oracle counts it over every ``b =
    0`` splitting prototype, by the parity of each curve system.
    """
    if D % 4 != 0:
        raise OutsideTheoremHypotheses(f"b_D needs 4 | D, got {D}")
    q = D // 4
    if q % 4 in (2, 3):
        return 0
    if q % 4 == 0:
        return 4
    return 3 if q % 8 == 1 else 5


@dataclass(frozen=True)
class SVResult:
    """Siegel-Veech constants for one component of the discriminant-D locus."""

    D: int
    component: str  # "whole", "plus" or "minus"
    c1: Fraction
    c2: Fraction
    c3: Fraction
    volume_pi2: Fraction
    b_D: int | None

    @property
    def constants(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.c1, self.c2, self.c3)


def _chi2_term(D: int, b: int | None, table: EulerTable) -> Fraction:
    """The table's part ``T`` of the volume numerator ``Delta = T + 9 chi(W_D(0^3))``.

    ``T = chi(W_D(2)) + b_D chi(W_{D/4}(2))`` for ``4 | D`` (the ``D/4`` row
    is read only when ``b_D != 0``), and ``T = 2 chi(W_D(2))`` on each
    component for ``D ≡ 1 (mod 8)`` (``b`` is ``None``).
    """
    chi2 = table.chi_w2(D)
    if b is None:
        return 2 * chi2
    return chi2 + b * table.chi_w2(D // 4) if b else chi2


def sv_constants(D: int, table: EulerTable = BUILTIN_TABLE) -> list[SVResult]:
    """The exact Siegel-Veech constants ``(c1, c2, c3)``, one result per component.

    With ``T`` from :func:`_chi2_term` and ``Delta = T + 9 chi(W_D(0^3))``:
    ``c1 = 15 chi(W_D(4)) / Delta``, ``c2 = 9 T / Delta``, ``c3 = 3
    chi(W_D(0^3)) / Delta``.  ``4 | D`` has one component, of volume ``Delta /
    36`` times pi^2; ``D ≡ 1 (mod 8)`` has two equal ones, each of volume
    ``Delta / 72`` times pi^2.
    """
    if err := admissible(D, "theorem"):
        raise err
    # The table lookups come first, so that a missing row fails before the
    # costly chi(W_D(0^3)) is computed.
    chi4 = table.chi_w4(D)
    b = b_D(D) if D % 4 == 0 else None
    T = _chi2_term(D, b, table)
    chi03 = chi_W03(D)
    delta = T + 9 * chi03
    components = ("whole",) if b is not None else ("plus", "minus")
    return [
        SVResult(
            D=D,
            component=component,
            c1=15 * chi4 / delta,
            c2=9 * T / delta,
            c3=3 * chi03 / delta,
            volume_pi2=delta / 36 if b is not None else delta / 72,
            b_D=b,
        )
        for component in components
    ]


def check_conjecture(
    dmax: int, table: EulerTable = BUILTIN_TABLE
) -> tuple[list[int], dict[int, str], list[int]]:
    """Check ``sv_constants(D) == (25/9, 3, 2/9)`` for ``5 <= D <= dmax``.

    Returns ``(checked, skipped, failures)``, each in increasing ``D``.
    Discriminants outside the hypotheses (see :func:`prymsv.exactq.admissible`),
    or missing from the table, are skipped with the reason; any other error
    propagates.
    """
    checked: list[int] = []
    skipped: dict[int, str] = {}
    failures: list[int] = []
    for D in range(5, dmax + 1):
        if admissible(D, "disc") is not None:
            continue
        if err := admissible(D, "theorem"):
            skipped[D] = str(err)
            continue
        try:
            results = sv_constants(D, table)
        except MissingTableEntry as exc:
            skipped[D] = str(exc)
            continue
        checked.append(D)
        if any(r.constants != CONJECTURED for r in results):
            failures.append(D)
    return checked, skipped, failures
