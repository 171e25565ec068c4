import math
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prymsv import euler, modforms
from prymsv.errors import (
    MissingTableEntry,
    OutsideTheoremHypotheses,
    ParseError,
)
from prymsv.euler import (
    BUILTIN_TABLE,
    c_index,
    chi_rows,
    chi_W03,
    degree_sum,
    factorize,
    load_table,
    m_D,
    sigma1,
)
from prymsv.exactq import admissible

from oracles import (
    chi_X,
    is_12_primitive,
    m_D_bruteforce,
    p1_count,
    squarefree_decompose,
)

F = Fraction


def _product(factors):
    return math.prod(p**k for p, k in factors.items())


def test_factorize_above_sieve_cap():
    cap = euler.SIEVE_CAP
    prime = 10**7 + 19
    assert prime > cap
    assert factorize(prime) == {prime: 1}
    assert factorize(10007 * 10009) == {10007: 1, 10009: 1}
    assert factorize(2**3 * prime) == {2: 3, prime: 1}
    assert len(euler._spf) <= cap // 2 + 1


def test_smooth_numbers_past_the_cap_build_the_sieve_once(monkeypatch):
    # At the default cap, trial division of a smooth n > SIEVE_CAP**2 sizes the
    # sieve once, to the cap, and the next such n reads that sieve without
    # growing it.  The monkeypatch releases the 10 MB sieve and its primes.
    monkeypatch.setattr(euler, "_spf", [0])
    monkeypatch.setattr(euler, "_primes", array("i", [2]))
    assert factorize(2**60) == {2: 60}
    spf = euler._spf
    assert len(spf) == euler.SIEVE_CAP // 2 + 1
    assert factorize(3**40 * 7) == {3: 40, 7: 1}
    assert factorize(95) == {5: 1, 19: 1}
    assert factorize(2**40 * 97**2) == {2: 40, 97: 2}
    assert euler._spf is spf


def test_factorize_past_the_sieve(monkeypatch):
    # With a small cap, n > cap**2 is factored by integers past the sieve too.
    monkeypatch.setattr(euler, "SIEVE_CAP", 100)
    monkeypatch.setattr(euler, "_spf", [0])
    monkeypatch.setattr(euler, "_primes", array("i", [2]))
    for n in (101 * 103, 2 * 3 * 10007, 10007 * 10009, 10007**2, 99991, 97 * 101**2):
        factors = factorize(n)
        assert _product(factors) == n
        assert all(all(p % q for q in range(2, math.isqrt(p) + 1)) for p in factors)
    assert factorize(10007 * 10009) == {10007: 1, 10009: 1}
    assert len(euler._spf) <= 100 // 2 + 1


def test_trial_division_sieves_only_to_sqrt(monkeypatch):
    # Trial division sizes the sieve to isqrt(n) and no further, so the
    # prime cofactor 9973 never sizes it.
    monkeypatch.setattr(euler, "SIEVE_CAP", 10**4)
    monkeypatch.setattr(euler, "_spf", [0])
    n = 3 * 9973
    assert factorize(n) == {3: 1, 9973: 1}
    assert 2 * len(euler._spf) <= math.isqrt(n) + 2


def _brute_factorize(n):
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            out[d] = out.get(d, 0) + 1
        d += 1
    if n > 1:
        out[n] = 1
    return out


def test_trial_division_after_sieve_growth(monkeypatch):
    # Trial division extends its list of primes as the sieve grows; each of
    # the first four n below grows the sieve, so a list that stopped at an
    # old sieve's end would miss a factor.  A size is the covered range,
    # 2 * len(_spf).
    monkeypatch.setattr(euler, "SIEVE_CAP", 1000)
    monkeypatch.setattr(euler, "_spf", [0])
    monkeypatch.setattr(euler, "_primes", array("i", [2]))
    sizes = []
    for n in (
        97 * 89,  # trial division, sieve to isqrt(n)
        211 * 223,  # trial division, a longer sieve
        500,  # the sieve path
        999,
        1001,  # just past the cap
        1009 * 1013 * 3,  # past cap**2: integers beyond the sieve too
        1009**2 * 2,
        10**6 + 3,  # a prime past cap**2
        999983 * 2,
    ):
        assert factorize(n) == _brute_factorize(n), n
        sizes.append(2 * len(euler._spf))
    assert sizes[:4] == sorted(set(sizes[:4]))  # grew before each of the first four
    assert sizes[-1] == 1002  # n <= 1001: the cap, up to the next odd n


def test_trial_division_lists_only_primes_below_sqrt(monkeypatch):
    # A sieve grown to the cap holds the primes to 997, yet 3 * 1009 needs
    # none past isqrt(1009) = 31 once its factor 3 is divided out: trial
    # division lists the primes to 31, from 2 and in order, and no more.
    monkeypatch.setattr(euler, "SIEVE_CAP", 1000)
    monkeypatch.setattr(euler, "_spf", [0])
    monkeypatch.setattr(euler, "_primes", array("i", [2]))
    factorize(1000)
    assert 2 * len(euler._spf) == 1002
    assert factorize(3 * 1009) == {3: 1, 1009: 1}
    assert math.isqrt(1009) == 31
    assert list(euler._primes) == [p for p in range(2, 32) if min(_brute_factorize(p)) == p]


def test_trial_division_lists_primes_only_as_the_cofactor_needs(monkeypatch):
    # With a fresh list, 2**60 is 1 after the prime 2 and 3**40 * 7 leaves the
    # prime 7 < 5**2 after 3, so trial division lists no prime past 3, though
    # both build the sieve to the cap (its 664,579 primes are not listed).
    monkeypatch.setattr(euler, "_spf", [0])
    monkeypatch.setattr(euler, "_primes", array("i", [2]))
    assert factorize(2**60) == {2: 60}
    assert list(euler._primes) == [2]
    assert factorize(3**40 * 7) == {3: 40, 7: 1}
    assert list(euler._primes) == [2, 3]
    assert len(euler._spf) == euler.SIEVE_CAP // 2 + 1


def test_sieve_holds_smallest_prime_factor(monkeypatch):
    # Entry i is for the odd n = 2i + 1, and a prime's entry is 0, so every
    # reader takes `spf[n >> 1] or n`; even n go through factorize.
    monkeypatch.setattr(euler, "_spf", [0])
    for n in (2, 3, 50, 1000, 5000):  # grows the sieve in several steps
        factorize(n)
    spf = euler._spf
    assert 2 * len(spf) >= 5001
    assert spf[0] == 0
    for n in range(3, 2 * len(spf), 2):
        assert (spf[n >> 1] or n) == min(_brute_factorize(n)), n
    for n in range(2, 2 * len(spf)):
        assert min(factorize(n)) == min(_brute_factorize(n)), n
    assert euler._spf is spf  # factorize read the sieve without growing it


def test_sieve_at_the_default_cap(monkeypatch):
    # Two bytes per odd n: the sieve that covers every n <= SIEVE_CAP takes
    # SIEVE_CAP/2 + 1 entries (10 MB).  The monkeypatch releases it afterwards.
    monkeypatch.setattr(euler, "_spf", array("H", [0]))
    cap = euler.SIEVE_CAP
    factorize(cap)
    spf = euler._spf
    assert spf.itemsize == 2
    assert 2 * len(spf) - 2 <= cap < 2 * len(spf)  # every n <= cap, and no odd n past cap + 1
    assert len(spf) * spf.itemsize <= 10_000_002
    assert max(spf) <= math.isqrt(cap)
    for n in [*range(cap - 999, cap + 2, 2), *range(3, cap, 99_991 * 2)]:
        assert (spf[n >> 1] or n) == min(_brute_factorize(n)), n


@pytest.mark.parametrize("f", [factorize, sigma1, c_index])
@pytest.mark.parametrize("n", [0, -1])
def test_multiplicative_functions_reject_n_below_1(f, n):
    with pytest.raises(ValueError, match="need n >= 1"):
        f(n)


def test_sums_past_the_sieve_match_the_default_cap(monkeypatch):
    # With a cap of 100, most n = (D - e^2)/8 for D <= 2000 take the
    # trial-division branch of the degree kernel, inside S_D and chi_W03 too.
    Ds = range(5, 2001)
    W03 = [D for D in Ds if admissible(D, "W03") is None]
    SD = [D for D in Ds if admissible(D, "S_D") is None]
    pairs = [
        (D, e)
        for D in W03
        for e in range(-math.isqrt(D - 1), math.isqrt(D - 1) + 1)
        if (D - e * e) % 8 == 0
    ]

    def values():
        # The table is built on each call, so after the patch it is trial-divided too.
        sig = modforms.sigma1_table(Ds[-1] // 8)
        return (
            [modforms.S_D(D) for D in SD],
            [modforms.S_D_sigma(D, sig) for D in Ds],
            [chi_W03(D) for D in W03],
            [m_D(D, e) for D, e in pairs],
            [sigma1(n) for n in range(1, 251)],
            [c_index(n) for n in range(1, 251)],
        )

    default = values()
    monkeypatch.setattr(euler, "SIEVE_CAP", 100)
    monkeypatch.setattr(euler, "_spf", [0])
    small = values()
    assert len(euler._spf) <= 100 // 2 + 1
    assert small == default
    S, _, chis, degrees, sigmas, cs = small
    assert set(S) == {0}
    m = dict(zip(pairs, degrees))
    for D, e in pairs:
        if (D - e * e) // 8 > 100:
            assert m[D, e] == m_D_bruteforce(D, e), (D, e)
    totals = dict.fromkeys(W03, 0)
    for (D, _), value in m.items():
        totals[D] += value
    assert chis == [F(-totals[D], 6) for D in W03]
    assert sigmas == [sum(d for d in range(1, n + 1) if n % d == 0) for n in range(1, 251)]
    assert cs == [p1_count(n) for n in range(1, 251)]


def test_slice_is_sized_by_its_first_term(monkeypatch):
    # With e descending, n = (D - e^2)/8 rises from 10 to 1000, so each later
    # term past the sieve's end is trial-divided, and the sieve reaches no
    # further than twice isqrt(1000).  Reversed, n falls from 1000: the first
    # term sizes a fresh sieve to cover 1000, and no later term grows it.
    # Weights 2**(32 i) keep the terms apart in the sum, so each term is read
    # back and checked against the enumeration oracle.  D = 9 * 7 * 127, so
    # e divisible by 3 needs the gcd correction.
    D = 8001
    top = (D - 1) // 8
    for es, reach in ((range(89, 0, -2), 2 * math.isqrt(top)), (range(1, 90, 2), top)):
        monkeypatch.setattr(euler, "_spf", array("H", [0]))
        total = degree_sum(D, es, (2 ** (32 * i) for i in range(len(es))))
        terms = [total >> (32 * i) & (2**32 - 1) for i in range(len(es))]
        assert terms == [m_D_bruteforce(D, e) for e in es]
        assert 2 * len(euler._spf) <= reach + 2
    assert top < 2 * len(euler._spf)
    assert (D - 89**2) // 8 == 10 and math.isqrt(D - 1) == 89


def test_slice_rejects_n_below_1():
    with pytest.raises(ValueError, match="need n >= 1, got -1"):
        degree_sum(17, (1, 3, 5), (1, -3, 5))  # 5^2 > 17
    with pytest.raises(ValueError, match="need n >= 1, got 0"):
        degree_sum(9, (1, 3), (1, 1))  # 3^2 = 9
    with pytest.raises(ValueError, match="need n >= 1, got -"):  # after two terms past the cap
        degree_sum(8 * (euler.SIEVE_CAP + 1) + 9, (1, 3, 9 * euler.SIEVE_CAP), (1, 1, 1))


def _degree_from_factors(n, e):
    # The product formula of degree_sum's docstring, over factorize's walk.
    pqs = ((p, p**k) for p, k in factorize(n).items())
    return math.prod(q + q // p if e % p == 0 else (q * p - 1) // (p - 1) for p, q in pqs)


def test_degree_is_the_one_term_slice_past_the_cap():
    cap = euler.SIEVE_CAP
    prime = 10**7 + 19
    pairs = [
        (cap + 1, 1),
        (prime, 0),
        (8 * prime, 3),
        (8 * prime, 2),
        (3 * 10007**2, 10007),
        (3 * 10007 * 10009, 6),
    ]
    for n, e in pairs:
        assert n > cap
        value = _degree_from_factors(n, e)
        assert degree_sum(8 * n + e * e, (e,), (1,)) == value, (n, e)
    # A slice of several terms past the cap sums them with their weights.
    D = 8 * 2 * prime + 1
    es, ws = (1, 3, 5, 7), (1, -3, 5, -7)
    assert all((D - e * e) // 8 > cap for e in es)
    expected = sum(w * _degree_from_factors((D - e * e) // 8, e) for e, w in zip(es, ws))
    assert degree_sum(D, es, ws) == expected


@pytest.mark.parametrize("n,s", [(1, 1), (2, 3), (4, 7), (6, 12), (12, 28), (100, 217)])
def test_sigma1(n, s):
    assert sigma1(n) == s


@pytest.mark.parametrize("m,c", [(1, 1), (2, 3), (3, 4), (4, 6), (5, 6), (6, 12), (12, 24)])
def test_c_index(m, c):
    assert c_index(m) == c


def test_c_index_matches_enumeration_oracle():
    for m in range(1, 201):
        assert c_index(m) == p1_count(m)


@pytest.mark.parametrize("n,fq", [(1, (1, 1)), (4, (2, 1)), (12, (2, 3)), (5, (1, 5)), (72, (6, 2))])
def test_squarefree_decompose(n, fq):
    assert squarefree_decompose(n) == fq
    f, q = fq
    assert f * f * q == n


@pytest.mark.parametrize(
    "D,e,value",
    [
        (17, 1, 3),
        (48, 4, 6),  # f=2 but gcd(2,4) != 1, so only r=1 contributes
        (33, 1, 7),  # c(4) + c(1)
        (32, 0, 6),  # e=0 admits only r=1 (gcd(r,0) = r)
        (8, 0, 1),
        (41, 3, 7),
    ],
)
def test_m_D(D, e, value):
    assert m_D(D, e) == value
    assert m_D_bruteforce(D, e) == value


def test_m_D_symmetry():
    for D in (17, 33, 41, 48, 32, 164):
        for e in range(1, math.isqrt(D) + 1):
            if (D - e * e) % 8 == 0:
                assert m_D(D, e) == m_D(D, -e)


def test_m_D_rejects_bad_e():
    with pytest.raises(OutsideTheoremHypotheses, match=r"e\^2 !≡ D \(mod 8\)"):
        m_D(17, 2)
    with pytest.raises(OutsideTheoremHypotheses, match=r"need e\^2 < D"):
        m_D(17, 5)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=5, max_value=1500))
def test_m_D_against_bruteforce(D):
    if D % 4 not in (0, 1) or D % 8 == 5 or math.isqrt(D) ** 2 == D:
        return
    for e in range(math.isqrt(D) + 1):
        if (D - e * e) % 8 == 0:
            assert m_D(D, e) == m_D_bruteforce(D, e)


def test_sigma1_is_the_sum_over_squares_at_a_prime():
    # The lemma behind m_D: for p not dividing e, the factor at p**k is
    # sum_j c(p**(k - 2j)), and that equals sigma1(p**k).  Both sides come
    # from the degree kernel, c by its p | e branch and sigma1 by the other.
    for p in (p for p in range(2, 50) if all(p % q for q in range(2, p))):
        for k in range(11):
            assert c_index(p**k) == (p ** (k - 1) * (p + 1) if k else 1), (p, k)
            over_squares = sum(c_index(p ** (k - 2 * j)) for j in range(k // 2 + 1))
            assert over_squares == sigma1(p**k), (p, k)


def test_m_D_against_its_definition():
    # The docstring's definition, by enumeration and without factoring:
    # sum of p1_count(n / r^2) over r with r^2 | n and gcd(r, e) = 1.  (r^2 | n
    # iff r | f, since q is squarefree.)
    pairs = 0
    for D in range(5, 1501):
        if admissible(D, "W03") is not None:
            continue
        bound = math.isqrt(D - 1)
        for e in range(-bound, bound + 1):
            if (D - e * e) % 8:
                continue
            n = (D - e * e) // 8
            expected = sum(
                p1_count(n // (r * r))
                for r in range(1, math.isqrt(n) + 1)
                if n % (r * r) == 0 and math.gcd(r, e) == 1
            )
            assert m_D(D, e) == expected, (D, e)
            pairs += 1
    assert pairs == 9146


def test_is_12_primitive():
    assert is_12_primitive(17)
    assert is_12_primitive(8)
    assert not is_12_primitive(32)  # 32 = 2^2 * 8
    assert not is_12_primitive(33 * 9)
    assert is_12_primitive(33)


def test_sigma1_at_twice_m():
    # sigma1(2m) = 3 sigma1(m) - 2 sigma1(m/2), the last term 0 for odd m: it
    # turns B(D) into 3A(D) - 2A_16(D) in ROADMAP item 17 (ii).
    for m in range(1, 10**4 + 1):
        half = 0 if m % 2 else sigma1(m // 2)
        assert sigma1(2 * m) == 3 * sigma1(m) - 2 * half, m


def test_sigma1_shortcut_on_primitive():
    for D in (17, 24, 33, 40, 41, 137):
        assert is_12_primitive(D)
        for e in range(math.isqrt(D) + 1):
            if (D - e * e) % 8 == 0:
                assert m_D(D, e) == sigma1((D - e * e) // 8)


# --- Euler characteristics ---------------------------------------------------

TABLE_W03 = {
    8: F(-1, 6), 12: F(-1, 3), 17: F(-4, 3), 20: F(-1), 24: F(-1), 28: F(-4, 3),
    32: F(-2), 33: F(-4), 40: F(-7, 3), 41: F(-16, 3), 44: F(-7, 3), 48: F(-4),
}


def test_chi_W03_reproduces_table():
    for D, chi in TABLE_W03.items():
        assert chi_W03(D) == chi


def test_chi_W03_sums_both_signs_of_e():
    # Oracle over both signs of e with the public m_D; 8 | D puts e = 0 in
    # range, where chi_W03's weight-2 fold must count the term once.
    Ds = [D for D in range(5, 3001) if admissible(D, "W03") is None]
    assert any(D % 8 == 0 for D in Ds)
    for D in Ds:
        bound = math.isqrt(D - 1)
        es = [e for e in range(-bound, bound + 1) if (D - e * e) % 8 == 0]
        assert chi_W03(D) == Fraction(-sum(m_D(D, e) for e in es), 6), D


def test_chi_W03_errors():
    with pytest.raises(OutsideTheoremHypotheses, match="mod 8"):
        chi_W03(13)
    with pytest.raises(OutsideTheoremHypotheses, match="is a square"):
        chi_W03(16)


# --- table handling ----------------------------------------------------------


def test_builtin_lookups():
    assert BUILTIN_TABLE.chi_w2(5) == F(-3, 10)
    assert BUILTIN_TABLE.chi_w4(12) == F(-5, 6)
    assert BUILTIN_TABLE.chi_w03_expected(33) == F(-4)


def test_builtin_chi_w4_of_8():
    # c1 = 25/9 needs chi(W_D(4)) = 5/2 chi(W_D(0^3)) = 5/2 (-1/6) at D = 8,
    # and -5/2 chi(X_8) agrees, with chi(X_8) = -2/9 chi(W_8(2)) = 1/6.
    assert BUILTIN_TABLE.chi_w4(8) == F(-5, 12)
    assert BUILTIN_TABLE.chi_w4(8) == F(5, 2) * BUILTIN_TABLE.chi_w03_expected(8)


def test_missing_entries():
    with pytest.raises(MissingTableEntry):
        BUILTIN_TABLE.chi_w4(21)
    with pytest.raises(MissingTableEntry):
        BUILTIN_TABLE.chi_w2(52)


def test_all_builtin_values_negative():
    for D, row in BUILTIN_TABLE.rows.items():
        for value in row:
            if value is not None:
                assert value < 0, (D, value)


def test_builtin_chi_w2_matches_closed_form():
    assert len(BUILTIN_TABLE.rows) == 18
    for D in BUILTIN_TABLE.rows:
        # Bainbridge: chi(W_D(2)) = -9/2 chi(X_D).
        assert BUILTIN_TABLE.chi_w2(D) == F(-9, 2) * chi_X(D), D


def test_load_table_merge_and_override(tmp_path, capsys):
    path = tmp_path / "chi.csv"
    path.write_text(
        "D,chi_w4,chi_w2,chi_w03\n"
        "52,-,-21/2,-\n"
        "8,-12/5,-3/4,-1/6\n"
    )
    table = load_table(str(path))
    assert table.chi_w2(52) == F(-21, 2)
    assert table.chi_w2(5) == F(-3, 10)  # built-ins survive
    assert table.chi_w4(8) == F(-12, 5)  # the file's row wins
    # Only D = 8 has a built-in row: D = 52 is new and draws no warning.
    assert capsys.readouterr().err == "warning: table row D=8 overrides built-in\n"


def test_load_table_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("52,x,-21/2,-\n")
    with pytest.raises(ParseError):
        load_table(str(path))
    path.write_text("52,-,-21/2\n")
    with pytest.raises(ParseError):
        load_table(str(path))
    path.write_text("52.5,-,-21/2,-\n")
    with pytest.raises(ParseError, match="bad discriminant"):
        load_table(str(path))
    # A D that is no discriminant could never be looked up.
    for D in (7, 0, -8):
        path.write_text(f"# header\n{D},-1,-3,-1\n")
        with pytest.raises(ParseError, match=rf"bad\.csv:2: {D} is not a positive discriminant"):
            load_table(str(path))
    path.write_text("52,-,-,-\n")
    with pytest.raises(ParseError, match="chi_w2 may not be absent"):
        load_table(str(path))
    # Every table value is negative; chi_w2 = 3 would make D = 12's volume numerator 0.
    for row in ("12,-5/6,0,-1/3\n", "12,-5/6,3,-1/3\n"):
        path.write_text(row)
        with pytest.raises(ParseError, match=r"bad\.csv:1: value '[03]' is not negative"):
            load_table(str(path))
    # A D given twice is refused at the second line, which names the first,
    # whether or not D has a built-in row.
    for D in (60, 12):
        path.write_text(f"# header\n{D},-1,-3,-1\n{D},-2,-3,-1\n")
        with pytest.raises(ParseError, match=rf"bad\.csv:3: D = {D} repeats line 2$"):
            load_table(str(path))
    path.write_bytes(b"\xff12,-5/6,-3/2,-1/3\n")
    for unreadable in (path, tmp_path, tmp_path / "missing.csv"):
        with pytest.raises(ParseError, match="cannot read table"):
            load_table(str(unreadable))


def test_chi_rows():
    assert list(chi_rows(8, 17)) == [
        (8, F(-1, 6), F(-1, 6)),
        (12, F(-1, 3), F(-1, 3)),
        (17, F(-4, 3), F(-4, 3)),
    ]
    # D=13 (residue 5) and D=16 (square) are skipped entirely; a D without a row has None.
    assert list(chi_rows(13, 16)) == []
    assert list(chi_rows(57, 57)) == [(57, chi_W03(57), None)]
