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

The kernels :func:`mat_mul`, :func:`mat_scale_plus` and :func:`eigen_residual`
are straight-line 4x4 integer code over unpacked entries, with no index loops,
and each product unpacks its operands once; an input that is not 4x4 (or a
row that is not of length 4) raises ``ValueError``.
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
# Small exact matrix helpers: straight-line 4x4 integer code that unpacks each
# operand once, so a non-4x4 input fails to unpack and raises ValueError.
# ---------------------------------------------------------------------------


def mat_mul(A: Matrix, B: Matrix) -> list[list[int]]:
    """``A B``, unpacking each operand once; raises ``ValueError`` unless both are 4x4."""
    (
        (a00, a01, a02, a03),
        (a10, a11, a12, a13),
        (a20, a21, a22, a23),
        (a30, a31, a32, a33),
    ) = A
    (
        (b00, b01, b02, b03),
        (b10, b11, b12, b13),
        (b20, b21, b22, b23),
        (b30, b31, b32, b33),
    ) = B
    return [
        [
            a00 * b00 + a01 * b10 + a02 * b20 + a03 * b30,
            a00 * b01 + a01 * b11 + a02 * b21 + a03 * b31,
            a00 * b02 + a01 * b12 + a02 * b22 + a03 * b32,
            a00 * b03 + a01 * b13 + a02 * b23 + a03 * b33,
        ],
        [
            a10 * b00 + a11 * b10 + a12 * b20 + a13 * b30,
            a10 * b01 + a11 * b11 + a12 * b21 + a13 * b31,
            a10 * b02 + a11 * b12 + a12 * b22 + a13 * b32,
            a10 * b03 + a11 * b13 + a12 * b23 + a13 * b33,
        ],
        [
            a20 * b00 + a21 * b10 + a22 * b20 + a23 * b30,
            a20 * b01 + a21 * b11 + a22 * b21 + a23 * b31,
            a20 * b02 + a21 * b12 + a22 * b22 + a23 * b32,
            a20 * b03 + a21 * b13 + a22 * b23 + a23 * b33,
        ],
        [
            a30 * b00 + a31 * b10 + a32 * b20 + a33 * b30,
            a30 * b01 + a31 * b11 + a32 * b21 + a33 * b31,
            a30 * b02 + a31 * b12 + a32 * b22 + a33 * b32,
            a30 * b03 + a31 * b13 + a32 * b23 + a33 * b33,
        ],
    ]


def mat_scale_plus(A: Matrix, s: int, c: int) -> list[list[int]]:
    """``s*A + c*Id``; raises ``ValueError`` unless ``A`` is 4x4."""
    (
        (a00, a01, a02, a03),
        (a10, a11, a12, a13),
        (a20, a21, a22, a23),
        (a30, a31, a32, a33),
    ) = A
    return [
        [s * a00 + c, s * a01, s * a02, s * a03],
        [s * a10, s * a11 + c, s * a12, s * a13],
        [s * a20, s * a21, s * a22 + c, s * a23],
        [s * a30, s * a31, s * a32, s * a33 + c],
    ]


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


def eigen_residual(row: Row, T: Matrix, t: int, n: int) -> Row:
    """``(X + Y mu) T - mu (X + Y mu)`` in the basis ``(1, mu)``, where ``mu^2 = t mu + n``.

    Since ``mu (X + Y mu) = n Y + (X + t Y) mu``, the residual is
    ``(X T - n Y, Y T - X - t Y)``; it is zero iff the row is a left
    eigenvector of ``T`` for ``mu``.  The comparison is formal in the basis
    ``(1, mu)``: two integer rows, with no square root evaluated.  The row and
    ``T`` are unpacked once and the eight entries are written out; raises
    ``ValueError`` unless ``X`` and ``Y`` have length 4 and ``T`` is 4x4.
    """
    X, Y = row
    x0, x1, x2, x3 = X
    y0, y1, y2, y3 = Y
    (
        (t00, t01, t02, t03),
        (t10, t11, t12, t13),
        (t20, t21, t22, t23),
        (t30, t31, t32, t33),
    ) = T
    return (
        [
            x0 * t00 + x1 * t10 + x2 * t20 + x3 * t30 - n * y0,
            x0 * t01 + x1 * t11 + x2 * t21 + x3 * t31 - n * y1,
            x0 * t02 + x1 * t12 + x2 * t22 + x3 * t32 - n * y2,
            x0 * t03 + x1 * t13 + x2 * t23 + x3 * t33 - n * y3,
        ],
        [
            y0 * t00 + y1 * t10 + y2 * t20 + y3 * t30 - x0 - t * y0,
            y0 * t01 + y1 * t11 + y2 * t21 + y3 * t31 - x1 - t * y1,
            y0 * t02 + y1 * t12 + y2 * t22 + y3 * t32 - x2 - t * y2,
            y0 * t03 + y1 * t13 + y2 * t23 + y3 * t33 - x3 - t * y3,
        ],
    )


def _verify_endo(T: Matrix, pairing: tuple[int, int], t: int, n: int, rows: Sequence[Row] = ()) -> bool:
    """Self-adjointness of ``T`` for ``pairing``, ``T^2 = t T + n Id``, and ``v T = mu v`` on ``rows``."""
    if not verify_selfadjoint(T, pairing):
        return False
    if mat_mul(T, T) != mat_scale_plus(T, t, n):
        return False
    zero = [0, 0, 0, 0]
    for row in rows:
        if eigen_residual(row, T, t, n) != (zero, zero):
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
