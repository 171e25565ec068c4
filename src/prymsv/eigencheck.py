"""Exact verification of the real-multiplication linear algebra.

Each prototype family comes with a generator ``T`` of the quadratic order
acting on homology, self-adjoint for the intersection form of the chosen basis
``(a1, b1, a2, b2)``, together with (for some cases) an explicit eigen period
vector.  The form is its two pairings ``(j1, j2) = (<a1,b1>, <a2,b2>)``; no
matrix is built.  ``T`` is integral with ``T^2 = t T + n Id``, and its
eigenvalue ``mu`` (a root of ``x^2 - t x - n``) is real, so every check is an
integer identity: a period vector, scaled into Z[mu] + i*Z[mu], is a real row
and an imaginary row, each a pair ``(X, Y)`` of integer 4-vectors standing for
``X + Y*mu``.

Each check is a polynomial identity in ``(a, b, d, e)``, true for every
integer quadruple, prototype or not, so a ``FAIL`` row of ``verify eigen`` can
only mean a mistyped generator or period vector; the tests' perturbation
controls are what show that each check can fail.

Every check is one straight-line pass, :func:`_verify_endo`: the ten
comparisons of :func:`verify_selfadjoint`, then the 16 entries of ``T T``
against ``t T + n Id`` and the eight entries of each period row's
eigen-relation, as short-circuit chains of integer ``==`` over ``T``
unpacked once.  It builds no matrix and stops at the first mismatch; a
``T`` that is not 4x4 (or a row that is not of length 4) raises
``ValueError`` at its unpacking.  It uses only ``+``, ``-``, ``*`` and
``==``, so the tests can run it on polynomials.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import BRequired
from .exactq import admissible
from .prototypes import (
    CylProto,
    SplitProto,
    TripleProto,
    enumerate_cyl,
    enumerate_split,
    enumerate_triple,
)

Matrix = Sequence[Sequence[int]]

#: A real row vector ``X + Y*mu`` with integer 4-vectors ``X`` and ``Y``.
Row = tuple[list[int], list[int]]

#: Splitting curve systems with printed endomorphism matrices.
SPLIT_CASES = ("w1", "w2", "w3")


# ---------------------------------------------------------------------------
# The endomorphism check: straight-line 4x4 integer code, so a non-4x4 ``T``
# or a row that is not of length 4 fails to unpack and raises ValueError.
# ---------------------------------------------------------------------------


def verify_selfadjoint(T: Matrix, pairing: tuple[int, int]) -> bool:
    """True iff ``transpose(T) J == J T`` exactly, for the form ``J`` of ``pairing = (j1, j2)``.

    ``J`` is antisymmetric, so this holds iff ``J T`` is antisymmetric.  The rows
    of ``J T`` are ``j1 T[1]``, ``-j1 T[0]``, ``j2 T[3]`` and ``-j2 T[2]``, so its
    four zero diagonal entries and its six opposite pairs ``(i, k)``, ``(k, i)``
    are ten comparisons of ``T``'s entries: no ``J`` is built and no product
    formed.  Raises ``ValueError`` unless ``T`` is 4x4.
    """
    j1, j2 = pairing
    (
        (t00, t01, t02, t03),
        (t10, t11, t12, t13),
        (t20, t21, t22, t23),
        (t30, t31, t32, t33),
    ) = T
    return (
        j1 * t10 == j1 * t01 == j2 * t32 == j2 * t23 == 0
        and j1 * t11 == j1 * t00 and j1 * t12 == -j2 * t30 and j1 * t13 == j2 * t20
        and j1 * t02 == j2 * t31 and j1 * t03 == -j2 * t21 and j2 * t33 == j2 * t22
    )


def _verify_endo(T: Matrix, pairing: tuple[int, int], t: int, n: int, rows: Sequence[Row] = ()) -> bool:
    """Self-adjointness of ``T`` for ``pairing``, ``T^2 = t T + n Id``, and ``v T = mu v`` on ``rows``.

    One pass that builds no matrix: after :func:`verify_selfadjoint`, ``T`` is
    unpacked once and the 16 entries of ``T T`` are compared with those of
    ``t T + n Id``.  A row ``(X, Y)`` stands for ``X + Y mu``, and ``mu (X + Y
    mu) = n Y + (X + t Y) mu``, so it is a left eigenvector for ``mu`` iff ``X T
    = n Y`` and ``Y T = X + t Y``: eight comparisons, formal in the basis ``(1,
    mu)``, with no square root evaluated.  Returns ``False`` at the first
    mismatch.  Raises ``ValueError`` unless ``T`` is 4x4 and, once ``T`` passes,
    every ``X`` and ``Y`` has length 4.
    """
    if not verify_selfadjoint(T, pairing):
        return False
    (
        (t00, t01, t02, t03),
        (t10, t11, t12, t13),
        (t20, t21, t22, t23),
        (t30, t31, t32, t33),
    ) = T
    if not (
        t00 * t00 + t01 * t10 + t02 * t20 + t03 * t30 == t * t00 + n
        and t00 * t01 + t01 * t11 + t02 * t21 + t03 * t31 == t * t01
        and t00 * t02 + t01 * t12 + t02 * t22 + t03 * t32 == t * t02
        and t00 * t03 + t01 * t13 + t02 * t23 + t03 * t33 == t * t03
        and t10 * t00 + t11 * t10 + t12 * t20 + t13 * t30 == t * t10
        and t10 * t01 + t11 * t11 + t12 * t21 + t13 * t31 == t * t11 + n
        and t10 * t02 + t11 * t12 + t12 * t22 + t13 * t32 == t * t12
        and t10 * t03 + t11 * t13 + t12 * t23 + t13 * t33 == t * t13
        and t20 * t00 + t21 * t10 + t22 * t20 + t23 * t30 == t * t20
        and t20 * t01 + t21 * t11 + t22 * t21 + t23 * t31 == t * t21
        and t20 * t02 + t21 * t12 + t22 * t22 + t23 * t32 == t * t22 + n
        and t20 * t03 + t21 * t13 + t22 * t23 + t23 * t33 == t * t23
        and t30 * t00 + t31 * t10 + t32 * t20 + t33 * t30 == t * t30
        and t30 * t01 + t31 * t11 + t32 * t21 + t33 * t31 == t * t31
        and t30 * t02 + t31 * t12 + t32 * t22 + t33 * t32 == t * t32
        and t30 * t03 + t31 * t13 + t32 * t23 + t33 * t33 == t * t33 + n
    ):
        return False
    for (x0, x1, x2, x3), (y0, y1, y2, y3) in rows:
        if not (
            x0 * t00 + x1 * t10 + x2 * t20 + x3 * t30 == n * y0
            and x0 * t01 + x1 * t11 + x2 * t21 + x3 * t31 == n * y1
            and x0 * t02 + x1 * t12 + x2 * t22 + x3 * t32 == n * y2
            and x0 * t03 + x1 * t13 + x2 * t23 + x3 * t33 == n * y3
            and y0 * t00 + y1 * t10 + y2 * t20 + y3 * t30 == x0 + t * y0
            and y0 * t01 + y1 * t11 + y2 * t21 + y3 * t31 == x1 + t * y1
            and y0 * t02 + y1 * t12 + y2 * t22 + y3 * t32 == x2 + t * y2
            and y0 * t03 + y1 * t13 + y2 * t23 + y3 * t33 == x3 + t * y3
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# Cylinder prototypes.
# ---------------------------------------------------------------------------


def build_T(a: int, b: int, d: int, e: int) -> list[list[int]]:
    """The order generator ``(e*Id, 2B; B*, 0)`` with ``B = (a b; 0 d)``."""
    return [
        [e, 0, 2 * a, 2 * b],
        [0, e, 0, 2 * d],
        [d, -b, 0, 0],
        [0, a, 0, 0],
    ]


def cyl_period_vector(p: CylProto) -> list[Row]:
    """The I.A period vector scaled by ``lambda``: ``(lambda, i lambda, 2a, 2b + 2di)``.

    Real row, then imaginary row, in Z[lambda] with ``lambda = (e + sqrt(D))/2``.
    """
    a, b, d = p.a, p.b, p.d
    return [
        ([0, 0, 2 * a, 2 * b], [1, 0, 0, 0]),
        ([0, 0, 0, 2 * d], [0, 1, 0, 0]),
    ]


def verify_cyl_IA(p: CylProto) -> bool:
    """Verify the period eigen-relation for diagram case I.A.

    The periods ``v = (1, i, 2a/lambda, 2b/lambda + i*2d/lambda)`` with
    pairings ``(1, 2)`` form a row eigenvector of ``T`` for the eigenvalue
    ``lambda = (e + sqrt(D))/2``, root of ``x^2 = e x + 2ad``.  Checked on
    ``lambda*v`` (:func:`cyl_period_vector`), together with self-adjointness
    and ``T^2 = e T + 2ad Id``.

    Not re-checked, since ``D = e^2 + 8ad`` with ``a, d > 0`` makes them hold
    for every prototype: ``lambda > 0`` (``sqrt(D) > |e|``); the minimal
    polynomial (expand ``((e + sqrt(D))/2)^2``); and the I.A ratios
    ``l3/l1 = a/lambda = (lambda - e)/(2d)`` and ``(h2+h3)/(h1+h2) = d/lambda
    = (lambda - e)/(2a)``, which are half the entries ``2a/lambda``,
    ``2d/lambda`` of ``v`` and equal the right-hand sides because
    ``lambda (lambda - e) = 2ad``.  The cases I.B, II.A and II.B give the
    same two values to other sums of lengths and heights, so they hold too.
    """
    T = build_T(p.a, p.b, p.d, p.e)
    return _verify_endo(T, (1, 2), p.e, 2 * p.a * p.d, cyl_period_vector(p))


# ---------------------------------------------------------------------------
# Triple-of-tori prototypes.
# ---------------------------------------------------------------------------


def verify_triple(p: TripleProto) -> bool:
    """Verify the order generator attached to a triple-of-tori prototype.

    Checks self-adjointness for pairings ``(1, 2)`` and the quadratic relation
    ``T^2 = e T + 2ad Id``.  Not re-checked, since ``D = e^2 + 8ad`` makes
    them hold for every prototype: the lattice index ``[Lambda0 :
    lambda*Lambda1] = ad = (D - e^2)/8``; and the area ratio
    ``lambda^2 / (lambda^2 + 2ad) = (e + sqrt(D)) / (2 sqrt(D))``, because
    ``lambda^2 + 2ad = e lambda + 4ad = sqrt(D) lambda``.
    """
    T = build_T(p.a, p.b, p.d, p.e)
    return _verify_endo(T, (1, 2), p.e, 2 * p.a * p.d)


# ---------------------------------------------------------------------------
# Splitting prototypes.
# ---------------------------------------------------------------------------


def split_case(p: SplitProto, case: str) -> tuple[list[list[int]], tuple[int, int], list[Row]]:
    """The printed order generator, the pairings and the eigen period rows of a curve system.

    ``w1`` and ``w2`` use a basis with pairings ``(2, 1)`` (its first cycle is a
    sum of two permuted core curves); ``w3`` uses ``(1, 2)``.  The exact period
    vector is returned doubled, as real row and imaginary row in Z[mu] with
    ``mu = 2 lambda' = e + sqrt(D')``: ``w1`` is ``2v = (2mu, i mu, 2a, 2di)``,
    ``w3`` is ``2v = (mu, 2a + i mu, 4a, mu + 2di)``, and ``w2`` has none, so no
    rows.  For ``w1`` the printed vector ``(2l', 2il', a, id)`` does *not*
    satisfy the eigen-relation: it misses by ``-2ad*i`` in component 2 and by
    ``+2d*l'*i`` in component 4.  The corrected ``(2l', il', a, id)`` satisfies
    it exactly and is the one returned here; the tests keep the printed one as
    a negative control.
    """
    a, d, e = p.a, p.d, p.e
    if case == "w1":
        T = [
            [2 * e, 0, a, 0],
            [0, 2 * e, 0, 2 * d],
            [4 * d, 0, 0, 0],
            [0, 2 * a, 0, 0],
        ]
        return T, (2, 1), [([0, 0, 2 * a, 0], [2, 0, 0, 0]), ([0, 0, 0, 2 * d], [0, 1, 0, 0])]
    if case == "w2":
        T = [
            [2 * e, 0, a, -d],
            [0, 2 * e, 0, 2 * d],
            [4 * d, 2 * d, 0, 0],
            [0, 2 * a, 0, 0],
        ]
        return T, (2, 1), []
    if case == "w3":
        T = [
            [2 * e, 0, 4 * a, 2 * e],
            [0, 2 * e, 0, 2 * d],
            [d, -e, 0, 0],
            [0, 2 * a, 0, 0],
        ]
        return T, (1, 2), [([0, 2 * a, 4 * a, 0], [1, 0, 0, 1]), ([0, 0, 0, 2 * d], [0, 1, 0, 0])]
    raise ValueError(f"unknown split case {case!r}; expected one of {SPLIT_CASES}")


def verify_split_endo(p: SplitProto, case: str) -> bool:
    """Verify the endomorphism attached to a splitting prototype and curve system.

    Checks ``T^2 = 2e T + 4ad Id`` and self-adjointness for the case's
    pairings; for ``w1`` and ``w3`` additionally verifies the
    eigen-relation ``v T = 2 lambda' v`` exactly in Z[2 lambda'].
    """
    if p.b != 0:
        raise BRequired(f"endomorphism matrices are printed for b = 0 only, got {p}")
    T, pairing, rows = split_case(p, case)
    return _verify_endo(T, pairing, 2 * p.e, 4 * p.a * p.d, rows)


# ---------------------------------------------------------------------------
# Batch verification rows.
# ---------------------------------------------------------------------------


def verification_rows(dmax: int) -> Iterator[tuple[CylProto | TripleProto | SplitProto, str, bool]]:
    """Yield ``(proto, check, passed)`` for every prototype with ``D <= dmax``."""
    for D in range(5, dmax + 1):
        if admissible(D, "disc") is not None:
            continue
        for p in enumerate_cyl(D):
            yield p, "IA", verify_cyl_IA(p)
        if admissible(D, TripleProto.locus) is None:
            for p in enumerate_triple(D):
                yield p, "triple", verify_triple(p)
        for p in enumerate_split(D):
            if p.b != 0:
                continue
            for case in SPLIT_CASES:
                yield p, case, verify_split_endo(p, case)
