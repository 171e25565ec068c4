"""End-to-end acceptance checks, one test per headline guarantee.

Each test prints a one-line summary (visible with ``pytest -s`` or on
failure) and enforces the stated runtime budget where one applies.
"""

import math
import time
from fractions import Fraction

import pytest

from prymsv import euler, flatcount, modforms, prototypes, svconst
from prymsv.eigencheck import (
    SPLIT_CASES,
    build_T,
    split_case,
    verification_rows,
)
from prymsv.exactq import admissible, is_square
from prymsv.prototypes import TripleProto

from oracles import (
    chi_X,
    is_12_primitive,
    m_D_bruteforce,
    p1_count,
    perturbations_passing,
    split_degree_counts,
)

F = Fraction

TABLE_DS = [8, 12, 17, 20, 24, 28, 32, 33, 40, 41, 44, 48]


def test_criterion_1_euler_characteristics_match_table():
    start = time.perf_counter()
    for D in TABLE_DS:
        assert euler.chi_W03(D) == euler.BUILTIN_TABLE.chi_w03_expected(D), D
    elapsed = time.perf_counter() - start
    print(f"criterion 1: chi(W_D(0^3)) matches the table for all 12 D "
          f"({elapsed:.4f}s)")
    assert elapsed < 0.1


def test_criterion_2_siegel_veech_constants_universal():
    start = time.perf_counter()
    for D in [D for D in TABLE_DS if D > 9]:
        results = svconst.sv_constants(D)
        assert len(results) == (2 if D % 8 == 1 else 1), D
        for r in results:
            assert r.constants == (F(25, 9), F(3), F(2, 9)), (D, r)
    elapsed = time.perf_counter() - start
    print(f"criterion 2: (c1, c2, c3) = (25/9, 3, 2/9) exactly for all 11 D "
          f"({elapsed:.4f}s)")
    assert elapsed < 0.1


def test_criterion_3_modular_identity_vanishes():
    start = time.perf_counter()
    N = 10_000
    sig = modforms.sigma1_table(N // 8)
    series = modforms.f_coeffs(N, sig)
    assert series.support() == []
    for n in range(1, N + 1, 8):
        assert modforms.c_n_closed(n, sig) == 0, n
    elapsed = time.perf_counter() - start
    print(f"criterion 3: all coefficients up to {N} vanish and match the "
          f"closed form ({elapsed:.2f}s)")
    assert elapsed < 10


def test_criterion_4_alternating_sum_vanishes():
    start = time.perf_counter()
    checked = 0
    for D in range(17, 100_000, 8):
        if is_square(D):
            continue
        checked += 1
        assert modforms.S_D(D) == 0, D
    elapsed = time.perf_counter() - start
    print(f"criterion 4: S_D = 0 for all {checked} non-square D ≡ 1 (mod 8) "
          f"below 10^5 ({elapsed:.1f}s)")
    assert elapsed < 60


def test_criterion_5_degree_formulas_match_enumeration_oracles():
    start = time.perf_counter()
    for m in range(1, 501):
        assert euler.c_index(m) == p1_count(m), m
    pairs = 0
    for D in range(5, 5001):
        if D % 4 not in (0, 1) or D % 8 == 5 or is_square(D):
            continue
        for e in range(math.isqrt(D - 1) + 1):
            if (D - e * e) % 8 == 0:
                assert euler.m_D(D, e) == m_D_bruteforce(D, e), (D, e)
                pairs += 1
    shortcut = 0
    for D in range(5, 5001):
        if D % 4 not in (0, 1) or D % 8 == 5 or is_square(D):
            continue
        if not is_12_primitive(D):
            continue
        for e in range(math.isqrt(D - 1) + 1):
            if (D - e * e) % 8 == 0:
                assert euler.m_D(D, e) == euler.sigma1((D - e * e) // 8), (D, e)
                shortcut += 1
    elapsed = time.perf_counter() - start
    print(f"criterion 5: index and degree formulas match enumeration on "
          f"{pairs} (D, e) pairs, sigma1 shortcut on {shortcut} primitive "
          f"pairs ({elapsed:.1f}s)")


def test_criterion_6_endomorphism_checks_to_500():
    start = time.perf_counter()
    rows = list(verification_rows(500))
    assert rows, "no prototypes enumerated"
    failures = [(p, check) for p, check, passed in rows if not passed]
    assert failures == []
    counts = {}
    for p, _, _ in rows:
        counts[p.kind] = counts.get(p.kind, 0) + 1
    assert set(counts) == {"cyl", "triple", "split"}

    # Negative controls: any single-entry perturbation of a generator breaks
    # self-adjointness or the quadratic relation.
    p = prototypes.CylProto(2, 0, 1, 1)
    T = build_T(p.a, p.b, p.d, p.e)
    assert perturbations_passing(T, (1, 2), p.e, 2 * p.a * p.d) == []
    sp = prototypes.SplitProto(2, 0, 1, 0)
    for case in SPLIT_CASES:
        Ts, J, _ = split_case(sp, case)
        assert perturbations_passing(Ts, J, 2 * sp.e, 4 * sp.a * sp.d) == [], case
    elapsed = time.perf_counter() - start
    print(f"criterion 6: {len(rows)} exact endomorphism checks pass up to "
          f"D = 500; single-entry perturbations all fail ({elapsed:.1f}s)")


DEGREE_SETS = {
    # target degree -> at least three discriminants realizing it
    1: [8, 24, 40],
    4: [32, 48, 80],
    3: [68, 132, 164],
    5: [52, 84, 116],
    2: [17, 33, 41],
}


def test_criterion_7_splitting_degrees():
    start = time.perf_counter()
    for degree, ds in DEGREE_SETS.items():
        for D in ds:
            assert split_degree_counts(D) == degree, (D, degree)
    # The other quarter-discriminant residue behind degree 1.
    for D in (12, 28, 44):
        assert split_degree_counts(D) == 1, D
    elapsed = time.perf_counter() - start
    print(f"criterion 7: splitting degree counts 1/4/3/5/2 verified on three "
          f"discriminants each ({elapsed:.2f}s)")


P8 = TripleProto(1, 0, 1, 0)  # D = 8


@pytest.fixture(scope="module")
def surface():
    s = flatcount.build_slit_triple(P8, flatcount.default_slit(P8, frac=0.3))
    s.check()
    return s


class TestCriterion8Empirical:
    """Empirical saddle-connection counts on the smallest slit surface."""

    P = P8

    def test_structural_invariants(self, surface, swap_zeros):
        # Angle excess 2*pi*(2g - 2) with two 6*pi cone points (genus 3).
        zeros = surface.zeros()
        assert len(zeros) == 2
        for z in zeros:
            assert surface.cone_angles[z] == pytest.approx(6 * math.pi)
        assert surface.area == pytest.approx(
            flatcount.lambda_float(8, 0) ** 2 + 2
        )
        # The three slit copies form one multiplicity-3 family.
        t = flatcount.default_slit(self.P, frac=0.3)
        assert flatcount.family_counts(surface, abs(t) * 1.01) == {3: 1}
        # Prefix monotonicity of the enumeration, and negation symmetry:
        # developed from z2's corners (the relabelled copy), the connections
        # are the reversals of those developed from z1's.
        sc2 = flatcount.enumerate_sc(surface, 2.0)
        sc3 = flatcount.enumerate_sc(surface, 3.0)
        assert set(sc2) == {c for c in sc3 if c.length <= 2.0}
        holos = sorted(
            (round(c.holonomy.real, 9), round(c.holonomy.imag, 9)) for c in sc3
        )
        neg = sorted(
            (round(-c.holonomy.real, 9), round(-c.holonomy.imag, 9))
            for c in flatcount.enumerate_sc(swap_zeros(surface), 3.0)
        )
        assert holos
        assert holos == neg

    def test_estimates_within_band(self, surface):
        start = time.perf_counter()
        R = 50.0
        counts = flatcount.family_counts(surface, R)
        total = sum(counts.values())
        assert total >= 10_000, total
        norm = surface.area / (math.pi * R * R)
        c1, c2, c3 = (counts.get(k, 0) * norm for k in (1, 2, 3))
        targets = (25 / 9, 3.0, 2 / 9)
        for est, tgt in zip((c1, c2, c3), targets):
            assert abs(est - tgt) <= 0.25 * tgt, (est, tgt)
        assert 4.5 <= c1 + c2 + c3 <= 7.5
        elapsed = time.perf_counter() - start
        print(f"criterion 8: {total} families at R = {R}; estimates "
              f"({c1:.3f}, {c2:.3f}, {c3:.3f}) within 25% of (25/9, 3, 2/9) "
              f"({elapsed:.1f}s)")
        assert elapsed < 300


def test_criterion_9_chi_W03_matches_the_hilbert_modular_surfaces():
    # chi(W_D(0^3)), the m_D sum, against Bainbridge's chi(X_D): for 4 | D it
    # is -(chi(X_D) + b_D chi(X_{D/4})), for D ≡ 1 (mod 8) it is -2 chi(X_D).
    # D/4 is a square only when D is, and b_D = 0 when D/4 is no discriminant.
    start = time.perf_counter()
    checked = 0
    for D in range(10, 10_001):
        if admissible(D, "theorem") is not None:
            continue
        if D % 4 == 0:
            b = svconst.b_D(D)
            expected = -(chi_X(D) + (b * chi_X(D // 4) if b else 0))
        else:
            expected = -2 * chi_X(D)
        assert euler.chi_W03(D) == expected, D
        checked += 1
    assert checked == 3649
    elapsed = time.perf_counter() - start
    print(f"criterion 9: chi(W_D(0^3)) matches the closed form in chi(X_D) "
          f"for all {checked} admissible D <= 10^4 ({elapsed:.2f}s)")
    assert elapsed < 10
