"""Independent oracles and negative controls that the tests check the package against.

Each oracle recomputes a closed form of :mod:`prymsv` another way: by
enumeration (``p1_count``, ``m_D_bruteforce``, ``split_degree_counts``), by a
recursion (``verify_S_recursion``) or by an external closed form (``chi_X``,
Bainbridge's Euler characteristic of the Hilbert modular surface).
``split_period_vector_uncorrected`` is a negative control: the printed
``w1`` period vector, which fails the eigen-relation.  So is
``perturbations_passing``, which moves each entry of a generator in turn.
``pairing_matrix`` is the 4x4 form that ``eigencheck.verify_selfadjoint``
reads off two pairings without building it.  ``mat_mul``, ``mat_scale_plus``
and ``eigen_residual`` are index-loop matrix products, the references for
the straight-line pass ``eigencheck._verify_endo``, and ``endo_holds`` is
that pass's conjunction made from them.  ``Poly`` runs the eigen
checks on indeterminates, ``theta_psi_eta`` expands ``eta(8z)^3`` for
``modforms.theta_psi``, and ``theta_odd_eta`` expands ``2 eta(16z)^2 /
eta(8z)``, the theta series of the odd squares.  ``enumerate_sc_reference``
is the wedge loop of ``flatcount.enumerate_sc`` that computes the segment
distance at every edge crossing.  No command or module of
the package reaches this code; only tests import it.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Sequence

from prymsv.eigencheck import Matrix, Row, verify_selfadjoint
from prymsv.errors import BRequired, InvalidPrototype, InvalidRadius
from prymsv.euler import _check_e, factorize, sigma1
from prymsv.exactq import admissible, check_discriminant
from prymsv.flatcount import FlatSurface, SaddleConnection, _cross
from prymsv.modforms import S_D, S_D_sigma, psi, sigma1_table
from prymsv.prototypes import SplitProto, enumerate_split

# ---------------------------------------------------------------------------
# Divisor sums and degrees (oracles of prymsv.euler).
# ---------------------------------------------------------------------------


def p1_count(m: int) -> int:
    """Number of points of the projective line over Z/m, by enumeration.

    Counts pairs ``(c, d)`` with ``gcd(c, d, m) = 1`` and divides by the
    number of units: the scaling action of (Z/m)* on such pairs is free, so
    every projective class contains exactly phi(m) pairs.  The pair count is
    tallied through the enumerated distribution of ``gcd(c, m)`` over one
    period (``gcd(c, d, m) = 1`` iff ``gcd(gcd(c, m), gcd(d, m)) = 1``).
    Independent of the multiplicative formula behind ``euler.c_index``.
    """
    if m == 1:
        return 1
    gcd = math.gcd
    units = 0
    gcd_counts: dict[int, int] = {}
    for c in range(m):
        g = gcd(c, m)
        gcd_counts[g] = gcd_counts.get(g, 0) + 1
        if g == 1:
            units += 1
    pairs = sum(
        n1 * n2
        for g1, n1 in gcd_counts.items()
        for g2, n2 in gcd_counts.items()
        if gcd(g1, g2) == 1
    )
    if pairs % units:
        raise ValueError(f"{pairs} pairs do not split into orbits of {units} units")
    return pairs // units


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write ``n = f**2 * q`` with ``q`` squarefree; returns ``(f, q)``."""
    f = math.prod(p ** (k // 2) for p, k in factorize(n).items())
    return f, n // (f * f)


def m_D_bruteforce(D: int, e: int) -> int:
    """Oracle for ``euler.m_D``: the number of triple prototypes with this ``e``.

    Counts ``(a, b, d)`` with ``a * d = (D - e^2)/8``, ``0 <= b < a`` and
    ``gcd(a, b, d, e) = 1`` in its own loop, so it shares no code with
    ``m_D``'s factorization or with prototype enumeration.  It rejects
    ``(D, e)`` as ``m_D`` does.
    """
    _check_e(D, e)
    n = (D - e * e) // 8
    gcd = math.gcd
    count = 0
    for a in range(1, n + 1):
        if n % a == 0:
            d = n // a
            count += sum(1 for b in range(a) if gcd(a, b, d, e) == 1)
    return count


def is_12_primitive(D: int) -> bool:
    """True when no ``f > 1`` has ``f**2 | D`` with ``D / f**2 ≡ 0, 1, 4 (mod 8)``.

    On such ``D`` every ``m_D(e)`` is ``sigma1((D - e^2)/8)``.
    """
    check_discriminant(D)
    f = 2
    while f * f <= D:
        if D % (f * f) == 0 and (D // (f * f)) % 8 in (0, 1, 4):
            return False
        f += 1
    return True


# ---------------------------------------------------------------------------
# Euler characteristics of Hilbert modular surfaces (Bainbridge, Geom. Topol. 2007).
# ---------------------------------------------------------------------------


def is_fundamental(D0: int) -> bool:
    """Whether ``D0`` is a fundamental discriminant."""
    if D0 % 4 == 1:
        return squarefree_decompose(D0)[0] == 1
    return D0 % 16 in (8, 12) and squarefree_decompose(D0 // 4)[0] == 1


def kronecker(D0: int, p: int) -> int:
    """The Kronecker symbol ``(D0/p)`` at a prime ``p``."""
    if p == 2:
        return 0 if D0 % 2 == 0 else (1 if D0 % 8 in (1, 7) else -1)
    r = pow(D0, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def chi_X(D: int) -> Fraction:
    """``chi(X_D) = 2 zeta_{O_D}(-1)``, for a non-square discriminant ``D``.

    For ``D = f**2 D0`` with ``D0`` fundamental, ``zeta_{O_D}(-1) = f**3
    zeta_K(-1)`` times ``1 - (D0/p) / p**2`` over the primes ``p | f``, and
    Siegel's formula gives ``zeta_K(-1) = (1/60) sum sigma1((D0 - e**2) / 4)``
    over ``e**2 < D0``, ``e ≡ D0 (mod 2)``.
    """
    f = next(
        f for f in range(math.isqrt(D), 0, -1)
        if D % (f * f) == 0 and is_fundamental(D // (f * f))
    )
    D0 = D // (f * f)
    bound = math.isqrt(D0 - 1)
    es = [e for e in range(-bound, bound + 1) if (D0 - e) % 2 == 0]
    zeta = f**3 * Fraction(sum(sigma1((D0 - e * e) // 4) for e in es), 60)
    for p in factorize(f):
        zeta *= 1 - Fraction(kronecker(D0, p), p * p)
    return 2 * zeta


# ---------------------------------------------------------------------------
# The divisor recursion of the S values (oracle of prymsv.modforms).
# ---------------------------------------------------------------------------


def verify_S_recursion(D: int) -> tuple[int, int]:
    """Both sides ``(lhs, rhs)`` of the divisor recursion tying the sigma1 sum to the ``S`` values.

    With ``D = f**2 * D0`` (``D0`` squarefree, necessarily ``≡ 1 (mod 8)``):
    ``lhs``, the sum over odd ``e`` of ``psi(e) e sigma1((D - e^2)/8)``, equals
    ``rhs``, the sum over ``r | f`` of ``psi(r) r S_{D/r^2}``.  The recursion
    holds at ``D`` exactly when ``lhs == rhs``.
    """
    if err := admissible(D, "S_D"):
        raise err
    f, _ = squarefree_decompose(D)
    rhs = sum(psi(r) * r * S_D(D // (r * r)) for r in range(1, f + 1) if f % r == 0)
    return S_D_sigma(D, sigma1_table(D // 8)), rhs


def theta_psi_eta(N: int) -> dict[int, int]:
    """``eta(8z)^3 = q * prod_{n >= 1} (1 - q^(8n))^3`` to ``q^N``, as ``{exponent: coefficient}``.

    Multiplies a dense list by each factor ``(1 - x)^3 = 1 - 3x + 3x^2 - x^3``,
    ``x = q^(8n)``, in one descending pass, so it shares no code with
    ``modforms``.  Jacobi's identity ``eta(z)^3 = sum_{n >= 0} (-1)^n (2n + 1)
    q^((2n + 1)^2 / 8)`` says that it is ``modforms.theta_psi(N)``.
    """
    c = [0] * (N + 1)
    if N >= 1:
        c[1] = 1
    for m in range(8, N, 8):
        for k in range(N, m, -1):
            x = c[k] - 3 * c[k - m]
            if k >= 2 * m:
                x += 3 * c[k - 2 * m]
                if k >= 3 * m:
                    x -= c[k - 3 * m]
            c[k] = x
    return {k: x for k, x in enumerate(c) if x}


def theta_odd_eta(N: int) -> dict[int, int]:
    """``2 eta(16z)^2 / eta(8z) = 2q * prod_{n >= 1} (1 - q^(16n))^2 / (1 - q^(8n))`` to ``q^N``.

    Returns ``{exponent: coefficient}``.  With ``x = q^8`` each factor is
    ``(1 - x^(2n))^2 / (1 - x^n) = (1 - x^(2n)) * (1 + x^n)``, so the
    product is a dense list in ``x`` multiplied by two-term factors, in
    integers and without division.  It shares no code with ``modforms``.
    The Gauss-Jacobi identity says that it is
    ``theta_odd = sum_{n in Z} q^((2n + 1)^2)``.
    """
    if N < 1:
        return {}
    M = (N - 1) // 8  # the x-degree of the q^N term
    c = [1] + [0] * M
    for n in range(1, M + 1):
        c[n:] = [x + y for x, y in zip(c[n:], c)]  # (1 + x^n)
        if 2 * n <= M:
            c[2 * n :] = [x - y for x, y in zip(c[2 * n :], c)]  # (1 - x^(2n))
    return {8 * k + 1: 2 * x for k, x in enumerate(c) if x}


# ---------------------------------------------------------------------------
# The splitting degree (oracle of prymsv.svconst.b_D).
# ---------------------------------------------------------------------------


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


def split_degree_counts(D: int) -> int:
    """Degree (divided by 4!) of the splitting map at discriminant ``D``.

    If ``D/4`` is a discriminant, counts the curve systems 1..5 of each
    ``b = 0`` splitting prototype of ``D/4`` that land in ``FOUR_D``, and
    otherwise those of each ``b = 0`` prototype of ``D`` that stay in
    ``SAME_D``.  Every prototype must give the same count; it is the
    independent oracle of ``svconst.b_D``.
    """
    if err := admissible(D, "triple"):
        raise err
    if D % 4 == 0 and admissible(D // 4, "disc") is None:
        source, target = D // 4, SplitClass.FOUR_D
    else:
        source, target = D, SplitClass.SAME_D
    counts = {
        sum(classify_split(p, i) is target for i in range(1, 6))
        for p in enumerate_split(source)
        if p.b == 0
    }
    if len(counts) != 1:
        raise InvalidPrototype(f"b = 0 prototypes for D = {D} give counts {counts}")
    return counts.pop()


# ---------------------------------------------------------------------------
# A reference form and negative controls (of prymsv.eigencheck).
# ---------------------------------------------------------------------------


def pairing_matrix(j1: int, j2: int) -> list[list[int]]:
    """Symplectic form for a basis with ``<a1,b1> = j1``, ``<a2,b2> = j2``."""
    return [
        [0, j1, 0, 0],
        [-j1, 0, 0, 0],
        [0, 0, 0, j2],
        [0, 0, -j2, 0],
    ]


def mat_mul(A: Matrix, B: Matrix) -> list[list[int]]:
    """The 4x4 product ``A B``, by index loops."""
    return [[sum(A[i][k] * B[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


def mat_scale_plus(A: Matrix, s: int, c: int) -> list[list[int]]:
    """``s A + c Id`` for a 4x4 ``A``, by index loops."""
    return [[s * A[i][j] + (c if i == j else 0) for j in range(4)] for i in range(4)]


def eigen_residual(row: Row, T: Matrix, t: int, n: int) -> Row:
    """``(X + Y mu) T - mu (X + Y mu) = (X T - n Y, Y T - X - t Y)`` in the basis ``(1, mu)``.

    Here ``mu^2 = t mu + n``; the residual is zero iff the row is a left
    eigenvector of ``T`` for ``mu``.  By index loops.
    """
    X, Y = row
    XT = [sum(X[k] * T[k][j] for k in range(4)) for j in range(4)]
    YT = [sum(Y[k] * T[k][j] for k in range(4)) for j in range(4)]
    return [XT[j] - n * Y[j] for j in range(4)], [YT[j] - X[j] - t * Y[j] for j in range(4)]


def endo_holds(T: Matrix, pairing: tuple[int, int], t: int, n: int, rows: Sequence[Row] = ()) -> bool:
    """The reference of ``eigencheck._verify_endo``, from the index-loop products.

    ``T`` is self-adjoint for ``pairing``, ``T T == t T + n Id``, and every
    row's :func:`eigen_residual` is zero.
    """
    zero = [0, 0, 0, 0]
    return (
        verify_selfadjoint(T, pairing)
        and mat_mul(T, T) == mat_scale_plus(T, t, n)
        and all(eigen_residual(row, T, t, n) == (zero, zero) for row in rows)
    )


def split_period_vector_uncorrected(p: SplitProto) -> list[Row]:
    """The ``w1`` period vector as printed, ``2v = (2mu, 2i mu, 2a, 2di)``: a negative control.

    ``eigencheck.split_case`` returns the corrected one as its third item.
    """
    return [
        ([0, 0, 2 * p.a, 0], [2, 0, 0, 0]),
        ([0, 0, 0, 2 * p.d], [0, 2, 0, 0]),
    ]


def perturbations_passing(
    T: Matrix, pairing: tuple[int, int], t: int, n: int
) -> list[tuple[int, int]]:
    """The entries ``(i, j)`` where ``T`` with 1 added there still passes both checks of a generator.

    The checks are self-adjointness for ``pairing`` and ``T^2 = t T + n``.  A
    negative control: on a generator of O_D every single-entry perturbation
    must fail one of them, so the list is empty.
    """
    passing = []
    for i in range(4):
        for j in range(4):
            T2 = [list(row) for row in T]
            T2[i][j] += 1
            if endo_holds(T2, pairing, t, n):
                passing.append((i, j))
    return passing


# ---------------------------------------------------------------------------
# Integer polynomials (the eigen checks as identities in a, b, d, e).
# ---------------------------------------------------------------------------


class Poly:
    """A sparse integer polynomial in ``(a, b, d, e)``: ``{exponents: coefficient}``.

    Supports ``+``, ``-``, ``*`` and ``==``, also with ``int`` on either side,
    which is all the eigen checks do to a prototype's integers; so a check that
    returns ``True`` on ``Poly.var(0..3)`` holds for every integer quadruple.
    """

    def __init__(self, terms: dict[tuple[int, ...], int]):
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def var(cls, i: int) -> "Poly":
        return cls({tuple(int(j == i) for j in range(4)): 1})

    @staticmethod
    def lift(x: "Poly | int") -> "Poly":
        return x if isinstance(x, Poly) else Poly({(0, 0, 0, 0): x})

    def __add__(self, other: "Poly | int") -> "Poly":
        terms = dict(self.terms)
        for m, c in Poly.lift(other).terms.items():
            terms[m] = terms.get(m, 0) + c
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly | int") -> "Poly":
        return self + -Poly.lift(other)

    def __rsub__(self, other: int) -> "Poly":
        return -self + other

    def __mul__(self, other: "Poly | int") -> "Poly":
        terms: dict[tuple[int, ...], int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in Poly.lift(other).terms.items():
                m = tuple(i + j for i, j in zip(m1, m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __eq__(self, other: "Poly | int") -> bool:  # type: ignore[override]
        return self.terms == Poly.lift(other).terms


# ---------------------------------------------------------------------------
# Wedge development (the reference loop of prymsv.flatcount).
# ---------------------------------------------------------------------------


def enumerate_sc_reference(s: FlatSurface, R: float) -> list[SaddleConnection]:
    """``flatcount.enumerate_sc`` as it was when every crossing computed the segment distance.

    One row per directed edge holds everything a crossing may read, and each
    crossing prunes on the squared distance from the origin to the edge
    ``[a, b]``, its endpoints included.  The package's loop tests the far
    endpoint, then the near one, and computes that distance only when both
    lie beyond ``R``; it must return the same records, bit for bit.
    """
    R2 = R * R * (1 + 1e-12)
    if not math.isfinite(R2):
        raise InvalidRadius(f"radius must have a finite pruning bound R*R*(1 + 1e-12), got {R}")
    zeros = s.zeros()
    if len(zeros) != 2:
        raise ValueError(f"expected exactly two cone points, found {zeros}")
    if R <= 0:
        return []
    z1, z2 = zeros
    hypot = math.hypot
    triangles = s.triangles
    exact = s.exact
    vclass = s.vertex_class
    # One row per directed edge 3*t + i: its endpoints a and b in triangle
    # t's chart, b - a and 1/|b - a|^2, then, across the glue, the glued
    # triangle's base vertex, its far vertex (each point as two floats),
    # whether that vertex is z2, the rows of the two sub-edges past it, and
    # the exact offset step and exact far vertex.
    edges = []
    for t, tri in enumerate(triangles):
        for i in range(3):
            nt, ne = s.glue[(t, i)]
            k = (ne + 2) % 3
            a, b, base, far = tri[i], tri[(i + 1) % 3], triangles[nt][ne], triangles[nt][k]
            dx, dy = b.real - a.real, b.imag - a.imag
            denom = dx * dx + dy * dy
            edges.append((
                a.real, a.imag, b.real, b.imag, dx, dy, 1 / denom if denom else 0.0,
                base.real, base.imag, far.real, far.imag,
                vclass[(nt, k)] == z2, 3 * nt + (ne + 1) % 3, 3 * nt + k,
                exact[t][(i + 1) % 3] - exact[nt][ne], exact[nt][k],
            ))  # fmt: skip
    found: list[SaddleConnection] = []
    for t, tri in enumerate(triangles):
        ktri = exact[t]
        for i in range(3):
            if vclass[(t, i)] != z1:
                continue
            apex = tri[i]
            lo = tri[(i + 1) % 3] - apex
            hi = tri[(i + 2) % 3] - apex
            # The wedge's low boundary is the directed edge (t, i) itself.
            if abs(lo) <= R and vclass[(t, (i + 1) % 3)] == z2:
                found.append(SaddleConnection(z1, z2, lo, ktri[(i + 1) % 3] - ktri[i]))
            # Develop the wedge interior from the opposite edge.  Only the root can
            # be empty: a sub-sector is its parent or is clipped strictly inside it.
            if _cross(lo, hi) <= 0.0:
                continue
            # The stack holds only the parts left at a split.  Entry: edge
            # row, float and exact offsets, and each sector ray with 1e-12
            # times its length, the scale of its boundary band.
            stack = [(3 * t + (i + 1) % 3, -apex.real, -apex.imag, -ktri[i],
                      lo.real, lo.imag, 1e-12 * abs(lo), hi.real, hi.imag, 1e-12 * abs(hi))]
            while stack:
                e, ox, oy, koffset, lx, ly, blo, hx, hy, bhi = stack.pop()
                while True:
                    ax, ay, bx, by, dx, dy, inv, cx, cy, fx, fy, at_z2, left, right, kstep, kfar = edges[e]
                    ax, ay = ax + ox, ay + oy
                    bx, by = bx + ox, by + oy
                    # Squared distance from the origin to the edge [a, b].
                    u = -(ax * dx + ay * dy) * inv
                    if u <= 0.0:
                        d2 = ax * ax + ay * ay
                    elif u >= 1.0:
                        d2 = bx * bx + by * by
                    else:
                        px, py = ax + u * dx, ay + u * dy
                        d2 = px * px + py * py
                    if d2 > R2:
                        break
                    ox, oy = bx - cx, by - cy
                    koffset += kstep
                    wx, wy = fx + ox, fy + oy
                    # A sector boundary ray always passes through an already-found
                    # vertex (a cone point), so a vertex collinear with it is not
                    # the endpoint of a new saddle connection; exclude the boundary
                    # with a relative band so round-off cannot admit it when
                    # developing from one end and drop it from the other.
                    aw = hypot(wx, wy)
                    inside_lo = lx * wy - ly * wx > blo * aw
                    inside_hi = wx * hy - wy * hx > bhi * aw
                    if inside_lo and inside_hi:
                        if at_z2:
                            # Kept on abs(), which is SaddleConnection.length:
                            # math.hypot may differ from it in the last bit.
                            w = complex(wx, wy)
                            if abs(w) <= R:
                                found.append(SaddleConnection(z1, z2, w, kfar + koffset))
                        # The sector splits at w: stack the part across the
                        # sub-edge a -> w, follow the part across w -> b.
                        bw = 1e-12 * aw
                        stack.append((left, ox, oy, koffset, lx, ly, blo, wx, wy, bw))
                        e, lx, ly, blo = right, wx, wy, bw
                    elif inside_lo or inside_hi:
                        # w is past one ray: the whole sector crosses the other sub-edge.
                        e = left if inside_lo else right
                    else:
                        break
    found.sort(key=SaddleConnection.sort_key)
    return found
