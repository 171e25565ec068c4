"""Volumes and Siegel-Veech constants of the eigenform loci.

All quantities are exact rationals built from the Euler characteristics: the
external table supplies chi(W_D(2)) and chi(W_D(4)), while chi(W_D(0^3)) is
always recomputed from :func:`prymsv.euler.chi_W03` (the table's column is a
cross-check only).  Note the volume formulas evaluate to *negative*
coefficients of pi^2 with the table's negative chi inputs; they are returned
verbatim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotDivisibleBy4, PrymsvError
from .euler import BUILTIN_TABLE, EulerTable, chi_W03
from .exactq import admissible

CONJECTURED = (Fraction(25, 9), Fraction(3), Fraction(2, 9))


def b_D(D: int) -> int:
    """The correction term attached to the quarter-discriminant.

    ``0`` if ``D/4 ≡ 2, 3 (mod 4)``; ``4`` if ``D/4 ≡ 0 (mod 4)``;
    ``3`` if ``D/4 ≡ 1 (mod 8)``; ``5`` if ``D/4 ≡ 5 (mod 8)``.  This is the
    one statement of the rule; :func:`prymsv.prototypes.split_degree_counts`
    is its oracle, counting over every ``b = 0`` splitting prototype.
    """
    if D % 4 != 0:
        raise NotDivisibleBy4(f"b_D needs 4 | D, got {D}")
    q = D // 4
    if q % 4 in (2, 3):
        return 0
    if q % 4 == 0:
        return 4
    return 3 if q % 8 == 1 else 5


def volume(D: int, table: EulerTable = BUILTIN_TABLE) -> Fraction:
    """Coefficient of pi^2 in the volume of the whole locus, for ``4 | D``.

    ``(1/36) * (chi(W_D(2)) + b_D * chi(W_{D/4}(2)) + 9 * chi(W_D(0^3)))``.
    The ``D/4`` term only enters when ``b_D != 0``.  Odd ``D`` raise
    :class:`NotDivisibleBy4` from :func:`b_D`; use :func:`volume_pm` for them.
    """
    if err := admissible(D, "W03"):
        raise err
    b = b_D(D)
    total = table.chi_w2(D) + 9 * chi_W03(D)
    if b != 0:
        total += b * table.chi_w2(D // 4)
    return total / 36


def volume_pm(D: int, table: EulerTable = BUILTIN_TABLE) -> Fraction:
    """Coefficient of pi^2 in the volume of either component, ``D ≡ 1 (mod 8)``.

    ``(1/72) * (2 * chi(W_D(2)) + 9 * chi(W_D(0^3)))``.
    """
    if err := admissible(D, "S_D"):
        raise err
    return (2 * table.chi_w2(D) + 9 * chi_W03(D)) / 72


@dataclass(frozen=True)
class SVResult:
    """Siegel-Veech constants for one component of the discriminant-D locus."""

    D: int
    component: str  # "whole", "plus" or "minus"
    b_D: int | None
    volume_pi2_coeff: Fraction
    c1: Fraction
    c2: Fraction
    c3: Fraction

    @property
    def constants(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.c1, self.c2, self.c3)

    def matches_conjecture(self) -> bool:
        return self.constants == CONJECTURED

    def to_dict(self) -> dict:
        return {
            "D": self.D,
            "component": self.component,
            "c1": str(self.c1),
            "c2": str(self.c2),
            "c3": str(self.c3),
            "volume_pi2": str(self.volume_pi2_coeff),
            "b_D": self.b_D,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def sv_constants(D: int, table: EulerTable = BUILTIN_TABLE) -> list[SVResult]:
    """The exact Siegel-Veech constants ``(c1, c2, c3)``, one result per component.

    For ``4 | D`` (one component, with ``Delta`` the volume numerator):
    ``c1 = 15 chi(W_D(4)) / Delta``,
    ``c2 = 9 (chi(W_D(2)) + b_D chi(W_{D/4}(2))) / Delta``,
    ``c3 = 3 chi(W_D(0^3)) / Delta``.
    For ``D ≡ 1 (mod 8)`` (two equal components, ``Delta' = 2 chi(W_D(2)) +
    9 chi(W_D(0^3))``): ``c1 = 15 chi(W_D(4)) / Delta'``, ``c2 = 18
    chi(W_D(2)) / Delta'``, ``c3 = 3 chi(W_D(0^3)) / Delta'``.
    """
    if err := admissible(D, "theorem"):
        raise err
    # The table lookups come first, so that a missing row fails before the
    # costly chi(W_D(0^3)) is computed.
    chi4 = table.chi_w4(D)
    chi2 = table.chi_w2(D)
    b = b_D(D) if D % 4 == 0 else None
    chi2_term = chi2 + (b * table.chi_w2(D // 4) if b else 0)
    chi03 = chi_W03(D)
    if b is not None:
        delta = chi2_term + 9 * chi03
        return [
            SVResult(
                D=D,
                component="whole",
                b_D=b,
                volume_pi2_coeff=delta / 36,
                c1=15 * chi4 / delta,
                c2=9 * chi2_term / delta,
                c3=3 * chi03 / delta,
            )
        ]
    delta = 2 * chi2 + 9 * chi03
    vol = delta / 72
    return [
        SVResult(
            D=D,
            component=component,
            b_D=None,
            volume_pi2_coeff=vol,
            c1=15 * chi4 / delta,
            c2=18 * chi2 / delta,
            c3=3 * chi03 / delta,
        )
        for component in ("plus", "minus")
    ]


@dataclass(frozen=True)
class ConjectureReport:
    checked: list[int]
    skipped: dict[int, str]
    failures: list[int]

    @property
    def all_match(self) -> bool:
        return not self.failures


def check_conjecture(
    dmin: int, dmax: int, table: EulerTable = BUILTIN_TABLE
) -> ConjectureReport:
    """Check ``sv_constants(D) == (25/9, 3, 2/9)`` over a discriminant range.

    Discriminants outside the hypotheses (see :func:`prymsv.exactq.admissible`),
    or missing from the table, are recorded as skipped with the reason.
    """
    checked: list[int] = []
    skipped: dict[int, str] = {}
    failures: list[int] = []
    for D in range(dmin, dmax + 1):
        if admissible(D, "disc") is not None:
            continue
        try:
            results = sv_constants(D, table)
        except PrymsvError as exc:  # outside the hypotheses, or no table row
            skipped[D] = str(exc)
            continue
        checked.append(D)
        if not all(r.matches_conjecture() for r in results):
            failures.append(D)
    return ConjectureReport(checked=checked, skipped=skipped, failures=failures)
