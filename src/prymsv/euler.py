"""Divisor sums, degrees of the torus projection, and Euler characteristics.

The central quantity is ``m_D(e)``, the degree of the projection of the
``e``-slice of the triple-of-tori locus to the modular curve; summing it over
admissible ``e`` gives the Euler characteristic of W_D(0^3).  One kernel,
:func:`degree_sum`, walks a smallest-prime-factor sieve over a whole e-slice of
``n = (D - e^2)/8`` in one call, with no factorization dict and no Python call
per term; ``m_D``, ``sigma1`` and ``c_index`` are its one-term slices.  The
chapter-one table of known Euler characteristics for W_D(2) and W_D(4) is
carried as built-in data, since those values come from external computations.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import MissingTableEntry, OutsideTheoremHypotheses, ParseError
from .exactq import admissible, check_discriminant

# ---------------------------------------------------------------------------
# Multiplicative helpers, backed by a growable smallest-prime-factor sieve.
# ---------------------------------------------------------------------------

#: The sieve covers ``0..SIEVE_CAP``; larger ``n`` are factored by trial
#: division, so its memory (2 bytes per odd ``n``, at most ``SIEVE_CAP/2 + 1``
#: entries or 10 MB) stays bounded.  Every composite ``n <= SIEVE_CAP`` has a
#: prime factor at most ``isqrt(SIEVE_CAP) = 3162 < 2**16``; an ``array("H")``
#: raises ``OverflowError`` on a larger entry.
SIEVE_CAP = 10**7

#: Entry ``i`` is the smallest prime factor of the odd ``2i + 1`` (0 for 1 and
#: for a prime), so the sieve covers ``n < 2 * len(_spf)``.  Readers take out
#: the factor 2 with bit operations, then read ``spf[n >> 1] or n``.  Only
#: :func:`_sieve` assigns it.
_spf: Sequence[int] = array("H", [0])

#: The primes from 2 that trial division has listed from the sieve, in order.
#: It is never reset: a longer sieve leaves every prime prime.
_primes: array[int] = array("i", [2])


def _sieve(n: int) -> None:
    """Cover ``min(n, SIEVE_CAP)``: the sieve's covered range at least doubles when it grows.

    The old sieve is released before its successor is built; that frees its
    memory only if no caller holds a reference to it across the call.
    """
    global _spf
    if n < 2 * len(_spf) or 2 * len(_spf) > SIEVE_CAP:  # covered, or at the cap
        return
    size = min(max(2 * len(_spf), n // 2 + 1), SIEVE_CAP // 2 + 1)
    _spf = array("H", [0])
    # Odd multiples of 3 repeat with period 3 in the index; a prime p >= 5
    # writes its odd multiples p * m, m >= p prime to 6, with index step 3p.
    spf = array("H", [0, 3, 0]) * (size // 3 + 1)
    del spf[size:]
    spf[1] = 0  # 3 is prime
    root = math.isqrt(2 * size - 1)
    primes = [p for p in range(5, root + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    # Largest prime first, so each entry ends with its smallest prime factor.
    for p in reversed(primes):
        for m in (p, p + 2 if p % 6 == 5 else p + 4):
            start = p * m >> 1
            spf[start :: 3 * p] = array("H", [p]) * len(range(start, size, 3 * p))
    _spf = spf


def _trial_divide(n: int) -> dict[int, int]:
    """Factor ``n > SIEVE_CAP`` by trial division, with the sieve sized once to ``min(sqrt(n), SIEVE_CAP)``.

    The candidates are the primes of :data:`_primes`, then the odd integers
    past the sieve's end.  When division runs out of listed primes, the list is
    extended from the sieve in steps that at most double its last prime and
    never pass the square root of the cofactor left, so a smooth ``n`` lists
    few.  Division stops once ``p**2`` exceeds the cofactor, which is then 1 or
    a prime.
    """
    _sieve(math.isqrt(n))
    spf = _spf
    end = 2 * len(spf)
    out: dict[int, int] = {}
    candidates: Iterable[int] = _primes
    while candidates:
        for p in candidates:
            if p * p > n:
                candidates = ()
                break
            while n % p == 0:
                n //= p
                out[p] = out.get(p, 0) + 1
        else:
            # The listed primes ran out.  If the sieve has none left to list
            # up to sqrt(n), the odd integers past its end follow; they are
            # reached only when sqrt(n) lies past it.
            listed, last = len(_primes), _primes[-1]
            stop = min(2 * last, math.isqrt(n), end - 1) + 1
            _primes.extend(p for p in range(last + 1 | 1, stop, 2) if not spf[p >> 1])
            if len(_primes) > listed:
                candidates = itertools.islice(_primes, listed, None)
            else:
                candidates = itertools.count(end + 1, 2)
    if n > 1:
        out[n] = 1
    return out


def factorize(n: int) -> dict[int, int]:
    """Prime factorization ``{p: multiplicity}`` of ``n >= 1``.

    Takes the factor ``2**k`` from ``n & -n``, then reads the odd part's
    smallest-prime-factor sieve for ``n <=`` :data:`SIEVE_CAP`; larger ``n``
    are factored by trial division.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > SIEVE_CAP:
        return _trial_divide(n)
    _sieve(n)
    out: dict[int, int] = {}
    if k := (n & -n).bit_length() - 1:
        out[2] = k
        n >>= k
    spf = _spf
    while n > 1:
        p = spf[n >> 1] or n
        out[p] = out.get(p, 0) + 1
        n //= p
    return out


def degree_sum(D: int, es: Sequence[int], ws: Iterable[int]) -> int:
    """``sum of w * degree((D - e^2) // 8, e)`` over ``zip(es, ws)``: the one kernel, one call per e-slice.

    ``degree(n, e)`` is the product over ``p**k || n`` of ``c(p**k) = p**k + p**(k-1)`` if
    ``p | e``, else of ``sigma1(p**k)``.  The factor ``q = 2**k = n & -n`` gives ``q + q/2`` or
    ``2q - 1`` (both 1 at ``k = 0`` and 3 at ``k = 1``); the odd part walks the sieve.  The
    first term's ``n`` sizes the sieve, once, before any term is read, so every caller puts
    its largest ``n`` first; a term past the sieve's end (``n >`` :data:`SIEVE_CAP`, or a
    later ``n`` larger than the first) is trial-divided.  Trial division grows the sieve only
    for a later ``n`` at least the square of the sieve's end, and the loop goes on with its
    own shorter sieve.  Raises ``ValueError`` at the first ``n < 1``.
    """
    if es:
        _sieve((D - es[0] * es[0]) >> 3)
    spf = _spf
    end = 2 * len(spf)
    total = 0
    for e, w in zip(es, ws):
        n = (D - e * e) >> 3
        if not 0 < n < end:
            if n < 1:
                raise ValueError(f"need n >= 1, got {n}")
            pqs = ((p, p**k) for p, k in _trial_divide(n).items())
            total += w * math.prod(q + q // p if e % p == 0 else (q * p - 1) // (p - 1) for p, q in pqs)
            continue
        if n & 1:
            value = 1
        else:
            q = n & -n
            n //= q
            value = 2 * q - 1 if e & 1 else q + (q >> 1)
        while n > 1:
            p = spf[n >> 1] or n
            n //= p
            if n % p:  # k = 1: both factors are p + 1
                value *= p + 1
            else:
                q = p * p
                n //= p
                while n % p == 0:
                    n //= p
                    q *= p
                value *= q + q // p if e % p == 0 else (q * p - 1) // (p - 1)
        total += w * value
    return total


def sigma1(n: int) -> int:
    """Sum of the positive divisors of ``n``: the one-term :func:`degree_sum` at ``e = 1``."""
    return degree_sum(8 * n + 1, (1,), (1,))


def c_index(m: int) -> int:
    """The index of Gamma_0(m) in SL(2,Z), ``m * prod_{p | m} (1 + 1/p)``: the one-term :func:`degree_sum` at ``e = 0``."""
    return degree_sum(8 * m, (0,), (1,))


# ---------------------------------------------------------------------------
# Degrees of the torus projection and the Euler characteristic of W_D(0^3).
# ---------------------------------------------------------------------------


def _check_e(D: int, e: int) -> None:
    check_discriminant(D)
    if e * e >= D:
        raise OutsideTheoremHypotheses(f"need e^2 < D, got e = {e}, D = {D}")
    if (D - e * e) % 8 != 0:
        raise OutsideTheoremHypotheses(f"e = {e} has e^2 !≡ D (mod 8) for D = {D}")


def m_D(D: int, e: int) -> int:
    """Degree of the projection of the ``e``-slice of the triple-tori locus.

    With ``(D - e^2)/8 = f^2 * q`` (``q`` squarefree), this is
    ``sum of c((D - e^2) / (8 r^2))`` over ``r | f`` with ``gcd(r, e) = 1``.
    The convention ``gcd(r, 0) = r`` means ``e = 0`` only admits ``r = 1``.
    As ``c`` is multiplicative, it is a product over ``p**k || n = (D - e^2)/8``: of
    ``c(p**k)`` if ``p | e``, else of ``c(p**(k - 2j))`` summed over ``j <= k/2``.

    That sum is ``sigma1(p**k)``, so ``m_D(e)`` is the one-term :func:`degree_sum`:
    ``c(p**k)`` over ``p | e`` times ``sigma1(p**k)`` over ``p ∤ e`` (both
    ``p + 1`` at ``k = 1``).  Proof: ``c(1) = 1`` and ``c(p**m) = p**(m - 1) *
    (p + 1)`` for ``m >= 1``, so the sum is ``(p + 1)(1 + p^2 + ... + p^(k-1))
    = 1 + p + ... + p^k`` for odd ``k``, and ``1 + p(p + 1)(1 + p^2 + ... +
    p^(k-2)) = 1 + p + ... + p^k`` for even ``k``.
    """
    _check_e(D, e)
    return degree_sum(D, (e,), (1,))


def chi_W03(D: int) -> Fraction:
    """Euler characteristic of W_D(0^3): ``(-1/6) * sum of m_D(e)``, gated once for ``D``.

    The sum runs over ``|e| <= isqrt(D - 1)`` with ``8 | D - e^2``: odd ``e``
    for odd ``D``, and ``e ≡ 0`` or ``2 (mod 4)`` as ``D ≡ 0`` or ``4 (mod
    8)``.  The terms skip ``_check_e``, which holds by construction (``e^2 <
    D``).  Each ``|e|`` is evaluated once, with weight 2 for ``e > 0``:
    ``m_D(-e) = m_D(e)``, since ``(D - e^2)/8`` is the same and the degree
    depends on ``e`` only through ``e % p == 0``, which ``-e`` passes exactly
    when ``e`` does.  ``e = 0`` (possible only when ``8 | D``) is its own
    negative and counts once.  One :func:`degree_sum` call takes the slice;
    its first term's ``n`` is the largest, so it sizes the sieve.
    """
    if err := admissible(D, "W03"):
        raise err
    first, step = (1, 2) if D & 1 else (0, 4) if D % 8 == 0 else (2, 4)
    es = range(first, math.isqrt(D - 1) + 1, step)
    ws = itertools.chain((2 if first else 1,), itertools.repeat(2))
    return Fraction(-degree_sum(D, es, ws), 6)


# ---------------------------------------------------------------------------
# The table of external Euler characteristics (chapter-one data).
# ---------------------------------------------------------------------------

# chi values for W_D(4), W_D(2), W_D(0^3); None marks a nonexistent locus.
_BUILTIN_ROWS: dict[int, tuple[Fraction | None, Fraction, Fraction | None]] = {
    5: (None, Fraction(-3, 10), None),
    8: (Fraction(-5, 12), Fraction(-3, 4), Fraction(-1, 6)),
    12: (Fraction(-5, 6), Fraction(-3, 2), Fraction(-1, 3)),
    13: (None, Fraction(-3, 2), None),
    17: (Fraction(-10, 3), Fraction(-3), Fraction(-4, 3)),
    20: (Fraction(-5, 2), Fraction(-3), Fraction(-1)),
    21: (None, Fraction(-3), None),
    24: (Fraction(-5, 2), Fraction(-9, 2), Fraction(-1)),
    28: (Fraction(-10, 3), Fraction(-6), Fraction(-4, 3)),
    29: (None, Fraction(-9, 2), None),
    32: (Fraction(-5), Fraction(-6), Fraction(-2)),
    33: (Fraction(-10), Fraction(-9), Fraction(-4)),
    37: (None, Fraction(-15, 2), None),
    40: (Fraction(-35, 6), Fraction(-21, 2), Fraction(-7, 3)),
    41: (Fraction(-40, 3), Fraction(-12), Fraction(-16, 3)),
    44: (Fraction(-35, 6), Fraction(-21, 2), Fraction(-7, 3)),
    45: (None, Fraction(-9), None),
    48: (Fraction(-10), Fraction(-12), Fraction(-4)),
}


class EulerTable(NamedTuple):
    """Known Euler characteristics keyed by discriminant.

    Rows carry ``chi(W_D(4))``, ``chi(W_D(2))`` and, as a cross-check only,
    ``chi(W_D(0^3))``; all present values are negative rationals.
    """

    rows: Mapping[int, tuple[Fraction | None, Fraction, Fraction | None]]

    def chi_w4(self, D: int) -> Fraction:
        return self._get(D, 0, "W_D(4)")

    def chi_w2(self, D: int) -> Fraction:
        return self._get(D, 1, "W_D(2)")

    def chi_w03_expected(self, D: int) -> Fraction:
        return self._get(D, 2, "W_D(0^3)")

    def _get(self, D: int, col: int, label: str) -> Fraction:
        if D not in self.rows:
            raise MissingTableEntry(f"no table row for D = {D}")
        value = self.rows[D][col]
        if value is None:
            raise MissingTableEntry(f"table has no chi({label}) entry at D = {D}")
        return value


BUILTIN_TABLE = EulerTable(rows=dict(_BUILTIN_ROWS))


def _parse_cell(cell: str, where: str) -> Fraction | None:
    cell = cell.strip()
    if cell == "-":
        return None
    try:
        value = Fraction(cell)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {cell!r} in {where}") from exc
    if value >= 0:
        raise ParseError(f"{where}: value {cell!r} is not negative")
    return value


def load_table(path: str) -> EulerTable:
    """Read a CSV table ``D,chi_w4,chi_w2,chi_w03`` and merge over built-ins.

    File rows override built-in rows on key collision (with a warning to
    stderr); ``-`` marks an absent entry and every other value is negative.
    A file that cannot be opened or is not UTF-8, that gives a ``D`` that is
    no discriminant, or that gives one ``D`` twice, raises ``ParseError``.
    """
    rows = dict(_BUILTIN_ROWS)
    first_line: dict[int, int] = {}  # the file's line of each D read so far
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read table {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.lower().startswith("d,"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError(f"{path}:{lineno}: expected 4 columns, got {len(parts)}")
        where = f"{path}:{lineno}"
        try:
            D = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"{where}: bad discriminant {parts[0]!r}") from exc
        if err := admissible(D, "disc"):
            raise ParseError(f"{where}: {err}")
        if D in first_line:
            raise ParseError(f"{where}: D = {D} repeats line {first_line[D]}")
        first_line[D] = lineno
        w4 = _parse_cell(parts[1], where)
        w2 = _parse_cell(parts[2], where)
        w03 = _parse_cell(parts[3], where)
        if w2 is None:
            raise ParseError(f"{where}: chi_w2 may not be absent")
        if D in _BUILTIN_ROWS:
            print(f"warning: table row D={D} overrides built-in", file=sys.stderr)
        rows[D] = (w4, w2, w03)
    return EulerTable(rows=rows)


def chi_rows(
    dmin: int, dmax: int, table: EulerTable = BUILTIN_TABLE
) -> Iterator[tuple[int, Fraction, Fraction | None]]:
    """Yield ``(D, chi_W03(D), the table's chi(W_D(0^3)) or None)`` for each W03-admissible ``D``."""
    for D in range(dmin, dmax + 1):
        if admissible(D, "W03") is not None:
            continue
        try:
            expected = table.chi_w03_expected(D)
        except MissingTableEntry:
            expected = None
        yield D, chi_W03(D), expected
