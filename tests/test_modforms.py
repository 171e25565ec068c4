import copy
import json
import math
import pickle
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from prymsv import modforms
from prymsv.cli import dispatch
from prymsv.errors import OutsideTheoremHypotheses
from prymsv.euler import m_D, sigma1
from prymsv.modforms import (
    QSeries,
    S_D,
    S_D_sigma,
    c_n_closed,
    f_coeffs,
    g2_8,
    psi,
    sigma1_table,
    theta_prime_scaled,
    theta_psi,
    verify_vanishing,
)

from oracles import squarefree_decompose, theta_odd_eta, theta_psi_eta, verify_S_recursion


class TestQSeries:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            QSeries(4, {5: 1})
        with pytest.raises(ValueError):
            QSeries(4, {-1: 1})

    def test_add_truncates_and_drops_zeros(self):
        a = QSeries(10, {0: 1, 3: 2, 9: 5})
        b = QSeries(5, {3: -2, 4: 1})
        s = a + b
        assert s.N == 5
        assert s.coeffs == {0: 1, 4: 1}

    def test_mul(self):
        # (1 + q)^2 = 1 + 2q + q^2
        a = QSeries(6, {0: 1, 1: 1})
        assert (a * a).coeffs == {0: 1, 1: 2, 2: 1}

    @pytest.mark.parametrize("seed", range(20))
    def test_mul_matches_naive_double_loop(self, seed):
        rng = random.Random(seed)
        Na, Nb = rng.randint(0, 60), rng.randint(0, 60)
        N = min(Na, Nb)

        def sparse(top):
            # Descending key order, and exponents above the smaller N.
            keys = sorted(rng.sample(range(top + 1), rng.randint(0, min(top + 1, 12))), reverse=True)
            return {n: rng.choice([-3, -2, -1, 1, 2, 3]) for n in keys}

        a, b = QSeries(Na, sparse(Na)), QSeries(Nb, sparse(Nb))
        expected: dict[int, int] = {}
        for n1, c1 in a.coeffs.items():
            for n2, c2 in b.coeffs.items():
                if n1 + n2 <= N:
                    expected[n1 + n2] = expected.get(n1 + n2, 0) + c1 * c2
        product = a * b
        assert product.N == N
        assert product.coeffs == {n: c for n, c in expected.items() if c}
        assert all(type(c) is int for c in product.coeffs.values())

    def test_mul_drops_cancelled_products_and_truncates(self):
        # (1 + q)(1 - q) = 1 - q^2; terms above the smaller N = 3 are cut.
        a = QSeries(9, {9: 7, 1: 1, 0: 1})
        b = QSeries(3, {1: -1, 0: 1})
        product = a * b
        assert product.coeffs == {0: 1, 2: -1}
        assert 1 not in product.coeffs

    def test_getitem_default(self):
        assert QSeries(3)[2] == 0

    def test_support_sorted(self):
        assert QSeries(9, {9: 1, 1: 2}).support() == [1, 9]

    def test_is_a_frozen_value(self):
        a = QSeries(3, {1: 2})
        assert a == QSeries(N=3, coeffs={1: 2}) and a != QSeries(4, {1: 2}) and a != (3, {1: 2})
        assert repr(a) == "QSeries(N=3, coeffs={1: 2})"
        assert pickle.loads(pickle.dumps(a)) == a == copy.copy(a)
        with pytest.raises(TypeError):
            hash(a)
        with pytest.raises(AttributeError):
            a.N = 4
        with pytest.raises(AttributeError):
            del a.coeffs
        assert a.N == 3

    def test_each_series_has_its_own_default_coeffs(self):
        assert QSeries(3).coeffs is not QSeries(3).coeffs
        assert QSeries(3).coeffs == {}


def test_psi_values():
    assert [psi(n) for n in range(1, 9)] == [1, 0, -1, 0, 1, 0, -1, 0]


def test_theta_psi():
    t = theta_psi(30)
    assert t.coeffs == {1: 1, 9: -3, 25: 5}


@pytest.mark.parametrize("N", [0, 1, 9, 2000])
def test_theta_psi_is_eta_8z_cubed(N):
    # Jacobi's identity: theta_psi = eta(8z)^3, the product expanded in integers.
    assert theta_psi(N).coeffs == theta_psi_eta(N)


@pytest.mark.parametrize("N", [0, 1, 8, 9, 20000])
def test_theta_odd_is_an_eta_quotient(N):
    # Gauss-Jacobi: sum over n in Z of q^((2n + 1)^2) = 2 eta(16z)^2 / eta(8z),
    # the first step of the D = 1 (mod 8) chain (ROADMAP item 17).
    odd_squares = {k * k: 2 for k in range(1, math.isqrt(N) + 1, 2)}
    assert theta_odd_eta(N) == odd_squares


def test_theta_prime_scaled():
    # theta'/(2 pi i): psi(s) * s**3 at s**2.
    t = theta_prime_scaled(30)
    assert t.coeffs == {1: 1, 9: -27, 25: 125}


def test_g2_8():
    # -E2(8z) = 24 * G2(8z): -1 at 0, 24 * sigma1(k) at 8k.
    g = g2_8(30, sigma1_table(30 // 8))
    assert g.coeffs == {0: -1, 8: 24, 16: 72, 24: 96}


@pytest.mark.parametrize("N", range(8))
def test_g2_8_below_eight(N):
    assert g2_8(N, sigma1_table(N // 8)).coeffs == {0: -1}


def test_sigma1_table_is_the_divisor_sums():
    brute = [0] + [sum(d for d in range(1, k + 1) if k % d == 0) for k in range(1, 301)]
    table = sigma1_table(300)
    assert type(table) is array and table.typecode == "q"
    assert list(table) == brute
    assert list(sigma1_table(0)) == [0]


def test_sigma1_table_is_the_kernel_sigma1():
    # The table's divisor sieve and the degree kernel are each other's oracle.
    assert list(sigma1_table(5000)) == [0, *map(sigma1, range(1, 5001))]


@pytest.mark.parametrize("N", [0, 1, 7, 8, 9, 17])
def test_verify_vanishing_edge_sizes(N):
    # N // 8 is 0, 1 or 2: the sigma1 table holds at most two entries past index 0.
    assert verify_vanishing(N) == []


def test_f_coeffs_small_vanishes():
    assert f_coeffs(200, sigma1_table(200 // 8)).support() == []


@pytest.mark.parametrize("n", [1, 9, 17, 25, 33, 41, 49, 57, 65, 73, 81, 89, 97])
def test_closed_form_matches_series(n):
    sig = sigma1_table(n // 8)
    assert c_n_closed(n, sig) == f_coeffs(n, sig)[n] == 0


def test_closed_form_needs_residue_one():
    assert c_n_closed(12, sigma1_table(12 // 8)) == 0
    assert c_n_closed(19, sigma1_table(19 // 8)) == 0


def test_closed_form_terms():
    # n = 9: e = 1 gives 24 * sigma1(1) = 24, square term psi(3) * (27 - 3) = -24.
    assert c_n_closed(9, sigma1_table(9 // 8)) == 24 * 1 + psi(3) * (27 - 3) == 0
    # n = 17: 24 * (sigma1(2) - 3 * sigma1(1)) = 24 * (3 - 3).
    assert c_n_closed(17, sigma1_table(17 // 8)) == 24 * (psi(1) * 1 * 3 + psi(3) * 3 * 1) == 0


def test_everything_is_an_int():
    sig = sigma1_table(200 // 8)
    values = [S_D(153), S_D_sigma(153, sig), c_n_closed(153, sig), c_n_closed(12, sig)]
    values += verify_S_recursion(153)
    for series in (f_coeffs(200, sig), g2_8(200, sig) * theta_psi(200), theta_prime_scaled(200)):
        values += series.coeffs.values()
    assert values and all(type(v) is int for v in values)


def test_verify_vanishing_report(capsys):
    assert verify_vanishing(1000) == []
    assert dispatch(["verify", "modular", "--nmax", "1000"]) == 0
    assert json.loads(capsys.readouterr().out) == {"N": 1000, "violations": []}


def test_vanishing_catches_violations():
    # Deliberately wrong series: support shows up as violations.
    broken = f_coeffs(100, sigma1_table(100 // 8)) + QSeries(100, {33: 1})
    assert broken.support() == [33]


def test_verify_vanishing_reports_planted_coefficients(monkeypatch, capsys):
    # One wrong coefficient on each side of the comparison.  The series side
    # is planted at 50 (seen by the support check only, as 50 !≡ 1 mod 8) and
    # at 57; the closed-form side at 33, where the series stays zero, so only
    # the closed-form comparison sees it.
    real_theta_prime, real_closed = modforms.theta_prime_scaled, modforms.c_n_closed

    def theta_prime_planted(N):
        series = real_theta_prime(N)
        return QSeries(N, {**series.coeffs, 50: 5, 57: -1})

    def closed_planted(n, sig):
        return real_closed(n, sig) + (24 if n == 33 else 0)

    monkeypatch.setattr(modforms, "theta_prime_scaled", theta_prime_planted)
    monkeypatch.setattr(modforms, "c_n_closed", closed_planted)
    assert verify_vanishing(200) == [33, 50, 57]
    assert dispatch(["verify", "modular", "--nmax", "200"]) == 1
    assert json.loads(capsys.readouterr().out) == {"N": 200, "violations": [33, 50, 57]}


@pytest.mark.parametrize("D", [17, 33, 41, 57, 65, 73, 89, 97, 105, 113, 153, 425])
def test_S_D_vanishes(D):
    assert S_D(D) == 0


def test_S_D_guards():
    with pytest.raises(OutsideTheoremHypotheses, match="mod 8"):
        S_D(12)
    with pytest.raises(OutsideTheoremHypotheses, match="is a square"):
        S_D(9)
    with pytest.raises(OutsideTheoremHypotheses, match="is a square"):
        S_D(49)


squarefree_one_mod_8 = st.sampled_from(
    [D for D in range(17, 2000, 8) if all(D % (p * p) for p in range(2, 45))]
)


@given(squarefree_one_mod_8)
@settings(max_examples=40, deadline=None)
def test_sigma_sum_agrees_on_squarefree(D):
    assert S_D_sigma(D, sigma1_table(D // 8)) == S_D(D)


@pytest.mark.parametrize("D", [17, 41, 153, 425, 1377])
def test_recursion(D):
    lhs, rhs = verify_S_recursion(D)
    assert lhs == rhs == 0


def test_recursion_nontrivial_conductor():
    # D = 153 = 9 * 17: lhs is the plain sigma1 sum, rhs folds in S_17.
    lhs, rhs = verify_S_recursion(153)
    assert squarefree_decompose(153) == (3, 17)
    assert lhs == rhs
    assert S_D_sigma(153, sigma1_table(153 // 8)) == S_D(153) + psi(3) * 3 * S_D(17)


def test_divisor_recursion_term_by_term():
    # sigma1((D - e^2)/8) = sum over g | e with g^2 | D of m_{D/g^2}(e/g), for
    # every odd 0 < e < sqrt(D) and non-square D ≡ 1 (mod 8): weighted by
    # psi(e) e and summed, this is verify_S_recursion, whence S_D = 0.
    Dmax = 20_000
    sig = sigma1_table(Dmax // 8)
    pairs = 0
    for D in range(17, Dmax, 8):
        root = math.isqrt(D)
        if root * root == D:
            continue
        gs = [g for g in range(1, root + 1, 2) if D % (g * g) == 0]
        for e in range(1, math.isqrt(D - 1) + 1, 2):
            rhs = sum(m_D(D // (g * g), e // g) for g in gs if e % g == 0)
            assert sig[(D - e * e) // 8] == rhs, (D, e)
            pairs += 1
    assert pairs == 115_304


def test_recursion_guards():
    with pytest.raises(OutsideTheoremHypotheses, match="mod 8"):
        verify_S_recursion(20)
    with pytest.raises(OutsideTheoremHypotheses, match="is a square"):
        verify_S_recursion(81)
