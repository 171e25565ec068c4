"""Exact q-expansion verification of the weight-3/2 vanishing identity.

The series ``f = G2(8z) * theta(z) + theta'(z)/(48 pi i)`` vanishes
identically; its coefficients admit a closed form as alternating divisor
sums, whose vanishing in turn encodes the alternating-sum identity for the
torus-projection degrees (``S_D = 0``).  Everything here is integer
arithmetic: the series are stored scaled by 24, as ``24 f = -E2(8z) theta(z)
+ theta'(z)/(2 pi i)``, whose coefficients are integers, so neither a
fraction nor a transcendental constant materializes.

The vanishing is a theorem.  ``theta_psi``, the sum of ``psi(s) s q^(s^2)``,
is ``eta(8z)^3`` by Jacobi's identity ``prod (1 - q^n)^3 = sum (-1)^n (2n + 1)
q^(n(n+1)/2)``, and ``q d/dq log eta(8z)^3 = E2(8z)``, so ``24 f = theta_psi'
- E2(8z) theta_psi = 0`` (with ``' = q d/dq``).  ``verify modular`` therefore
checks the code, not the identity: the ``sigma1`` table, the series product
and the closed form must agree.  Read through the closed form, the theorem
proves ``S_D_sigma(D) = 0`` for every non-square ``D ≡ 1 (mod 8)``, and so
``S_D = 0`` for the same ``D``: the termwise divisor recursion
``sigma1((D - e^2)/8) = sum over g | e with g^2 | D of m_{D/g^2}(e/g)``,
weighted by ``psi(e) e``, gives ``S_D_sigma(D) = sum over g^2 | D of psi(g) g
S_{D/g^2}``, and induction on the square part of ``D`` does the rest.  So
``verify identity``, like ``verify modular``, checks code against a theorem:
the degree kernel and the sum of :func:`S_D` must give 0.

Every ``sigma1`` value is read from a :func:`sigma1_table` that the caller
passes.  :func:`verify_vanishing` builds one to ``N // 8`` for both sides: the
series product (a dense list of ``N + 1`` coefficients) and the closed forms.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from typing import Sequence

from .euler import degree_sum
from .exactq import admissible


class QSeries:
    """A q-expansion truncated at exponent ``N``, with sparse integer coefficients.

    A frozen value: ``coeffs`` defaults to a new empty dict, two series are
    equal when ``N`` and ``coeffs`` are, and assignment raises ``AttributeError``.
    """

    __slots__ = ("N", "coeffs")

    def __init__(self, N: int, coeffs: dict[int, int] | None = None) -> None:
        coeffs = {} if coeffs is None else coeffs
        bad = [n for n in coeffs if n < 0 or n > N]
        if bad:
            raise ValueError(f"exponents outside [0, {N}]: {bad[:5]}")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.N, self.coeffs) == (other.N, other.coeffs)

    def __repr__(self) -> str:
        return f"QSeries(N={self.N!r}, coeffs={self.coeffs!r})"

    def __reduce__(self) -> tuple:
        return QSeries, (self.N, self.coeffs)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __getitem__(self, n: int) -> int:
        return self.coeffs.get(n, 0)

    def __add__(self, other: "QSeries") -> "QSeries":
        N = min(self.N, other.N)
        coeffs = {n: c for n, c in self.coeffs.items() if n <= N}
        for n, c in other.coeffs.items():
            if n <= N:
                total = coeffs.get(n, 0) + c
                if total:
                    coeffs[n] = total
                else:
                    coeffs.pop(n, None)
        return QSeries(N, coeffs)

    def __mul__(self, other: "QSeries") -> "QSeries":
        N = min(self.N, other.N)
        right = sorted(other.coeffs.items())
        # No product lies past the two largest exponents: sparse operands get a short list.
        top = min(N, max(self.coeffs, default=0) + max(other.coeffs, default=0))
        dense = [0] * (top + 1)
        for n1, c1 in self.coeffs.items():
            if n1 > N:
                continue
            for n2, c2 in right:
                n = n1 + n2
                if n > N:  # the exponents only grow from here
                    break
                dense[n] += c1 * c2
        return QSeries(N, {n: c for n, c in enumerate(dense) if c})

    def support(self) -> list[int]:
        return sorted(n for n, c in self.coeffs.items() if c)


def psi(n: int) -> int:
    """The Dirichlet character of conductor 4: ``+1, -1, 0`` as ``n ≡ 1, 3, 0 (mod 2 or 4)``."""
    if n % 2 == 0:
        return 0
    return 1 if n % 4 == 1 else -1


def theta_psi(N: int) -> QSeries:
    """The twisted theta series: coefficient ``psi(s) * s`` at ``n = s**2``."""
    coeffs: dict[int, int] = {}
    s = 1
    while s * s <= N:
        if psi(s):
            coeffs[s * s] = psi(s) * s
        s += 1
    return QSeries(N, coeffs)


def theta_prime_scaled(N: int) -> QSeries:
    """The theta derivative scaled by ``1/(2 pi i)``: ``psi(s) * s**3`` at ``n = s**2``.

    That is ``q d/dq`` of :func:`theta_psi`, ``n a_n`` at each exponent ``n``:
    term-wise differentiation brings down ``2 pi i n``, and the ``1/(2 pi i)``
    normalization cancels the ``2 pi i`` exactly, leaving integer
    coefficients.  This is 24 times the ``1/(48 pi i)`` term of ``f``.
    """
    return QSeries(N, {n: n * c for n, c in theta_psi(N).coeffs.items()})


def sigma1_table(K: int) -> Sequence[int]:
    """``0, sigma1(1), ..., sigma1(K)``, by a divisor sieve, then read by index.

    Each ``k`` starts as its own divisor, and every ``d <= K/2`` is added at
    ``2d, 3d, ...``.  A machine-integer array, not a list of ``int`` objects,
    so the table adds little to the peak of :func:`verify_vanishing`
    (``sigma1(k) < 2**63`` for any ``k`` a table can hold).
    """
    sig = list(range(K + 1))
    for d in range(1, K // 2 + 1):
        sig[2 * d :: d] = [x + d for x in sig[2 * d :: d]]
    return array("q", sig)


def g2_8(N: int, sig: Sequence[int]) -> QSeries:
    """24 times the weight-2 Eisenstein series at ``8z``: ``-1`` at 0, ``24 sigma1(k)`` at ``8k``.

    That is ``-E2(8z)``, with integer coefficients; ``sig`` is a
    :func:`sigma1_table` that reaches ``N // 8``.
    """
    coeffs: dict[int, int] = {0: -1}
    for k in range(1, N // 8 + 1):
        coeffs[8 * k] = 24 * sig[k]
    return QSeries(N, coeffs)


def f_coeffs(N: int, sig: Sequence[int]) -> QSeries:
    """``24 f = g2_8 * theta_psi + theta_prime_scaled`` to ``q^N``; ``sig`` as in :func:`g2_8`."""
    return g2_8(N, sig) * theta_psi(N) + theta_prime_scaled(N)


def S_D_sigma(D: int, sig: Sequence[int]) -> int:
    """The alternating sum of :func:`S_D` with ``sigma1((D - e^2)/8)`` in place of ``m_D(e)``.

    Zero unless ``D ≡ 1 (mod 8)``; ``sig`` is a :func:`sigma1_table` that
    reaches ``(D - 1) // 8``.  Agrees with :func:`S_D` exactly when ``D``
    admits no square divisor (the degrees then reduce to plain divisor sums).
    Odd ``e <= isqrt(D - 1)`` has ``8 | D - e^2`` and ``e^2 < D``: no check.
    From ``e`` to ``e + 2``, ``(D - e^2)/8`` falls by ``(e + 1)/2``.
    """
    if D % 8 != 1:
        return 0
    total, k = 0, (D - 1) // 8
    for e in range(1, math.isqrt(D - 1) + 1, 2):
        total += (e if e % 4 == 1 else -e) * sig[k]
        k -= (e + 1) // 2
    return total


def c_n_closed(n: int, sig: Sequence[int]) -> int:
    """Closed form of the ``n``-th coefficient of :func:`f_coeffs` (that is, ``24 c_n``).

    ``24 * S_D_sigma(n, sig)``, the alternating divisor sum over odd ``e <
    sqrt(n)`` (zero unless ``n ≡ 1 (mod 8)``), plus ``psi(r) (r**3 - r)`` when
    ``n = r**2`` (zero for even ``r``; an odd square is ``≡ 1 (mod 8)``).
    """
    total = 24 * S_D_sigma(n, sig)
    root = math.isqrt(n)
    if root * root == n:
        total += psi(root) * (root ** 3 - root)
    return total


def verify_vanishing(N: int) -> list[int]:
    """The sorted exponents up to ``N`` where ``f`` is nonzero or differs from its closed form.

    The identity holds up to ``N`` exactly when the list is empty.  Both sides
    read one :func:`sigma1_table` to ``N // 8``: the coefficients of
    :func:`g2_8`, and every term of the closed forms (``(n - e^2)/8 <= N // 8``).

    An empty list is what the theorem predicts (``theta_psi = eta(8z)^3`` by
    Jacobi's identity, and ``q d/dq log eta(8z)^3 = E2(8z)``), so a nonempty
    one is a fault of the code: the ``sigma1`` table, the product or the
    closed form.  ``verify identity``, on :func:`S_D`, likewise checks code
    against a theorem (see the module docstring).
    """
    sig = sigma1_table(N // 8)
    series = f_coeffs(N, sig)
    return sorted(
        set(series.support())
        | {n for n in range(1, N + 1, 8) if c_n_closed(n, sig) != series[n]}
    )


def S_D(D: int) -> int:
    """The alternating degree sum ``sum over odd 0 < e < sqrt(D)`` of ``(-1)^((e-1)/2) e m_D(e)``.

    Vanishes for every non-square ``D ≡ 1 (mod 8)``.  The gate runs once per
    ``D``; odd ``e <= isqrt(D - 1)`` then has ``8 | D - e^2`` and ``e^2 < D``,
    so one :func:`degree_sum` call takes the whole slice with no check, its
    weights ``psi(e) e = 1, -3, 5, -7, ...`` drawn from C-level iterators.
    """
    if err := admissible(D, "S_D"):
        raise err
    es = range(1, math.isqrt(D - 1) + 1, 2)  # n falls as e rises: the first term sizes the sieve
    return degree_sum(D, es, map(operator.mul, es, itertools.cycle((1, -1))))
