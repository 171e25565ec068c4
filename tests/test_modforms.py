import json

import pytest
from hypothesis import given, settings, strategies as st

from prymsv.errors import SquareDiscriminant, UnsupportedResidue
from prymsv.modforms import (
    QSeries,
    S_D,
    S_D_sigma,
    c_n_closed,
    f_coeffs,
    g2_8,
    psi,
    theta_prime_scaled,
    theta_psi,
    verify_S_recursion,
    verify_vanishing,
)


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

    def test_getitem_default(self):
        assert QSeries(3)[2] == 0

    def test_support_sorted(self):
        assert QSeries(9, {9: 1, 1: 2}).support() == [1, 9]


def test_psi_values():
    assert [psi(n) for n in range(1, 9)] == [1, 0, -1, 0, 1, 0, -1, 0]


def test_theta_psi():
    t = theta_psi(30)
    assert t.coeffs == {1: 1, 9: -3, 25: 5}


def test_theta_prime_scaled():
    # theta'/(2 pi i): psi(s) * s**3 at s**2.
    t = theta_prime_scaled(30)
    assert t.coeffs == {1: 1, 9: -27, 25: 125}


def test_g2_8():
    # -E2(8z) = 24 * G2(8z): -1 at 0, 24 * sigma1(k) at 8k.
    g = g2_8(30)
    assert g.coeffs == {0: -1, 8: 24, 16: 72, 24: 96}


def test_f_coeffs_small_vanishes():
    assert f_coeffs(200).support() == []


@pytest.mark.parametrize("n", [1, 9, 17, 25, 33, 41, 49, 57, 65, 73, 81, 89, 97])
def test_closed_form_matches_series(n):
    series = f_coeffs(n)
    assert c_n_closed(n) == series[n] == 0


def test_closed_form_needs_residue_one():
    assert c_n_closed(12) == 0
    assert c_n_closed(19) == 0


def test_closed_form_terms():
    # n = 9: e = 1 gives 24 * sigma1(1) = 24, square term psi(3) * (27 - 3) = -24.
    assert c_n_closed(9) == 24 * 1 + psi(3) * (27 - 3) == 0
    # n = 17: 24 * (sigma1(2) - 3 * sigma1(1)) = 24 * (3 - 3).
    assert c_n_closed(17) == 24 * (psi(1) * 1 * 3 + psi(3) * 3 * 1) == 0


def test_everything_is_an_int():
    values = [S_D(153), S_D_sigma(153), c_n_closed(153), c_n_closed(12)]
    report = verify_S_recursion(153)
    values += [report.lhs, report.rhs]
    for series in (f_coeffs(200), g2_8(200) * theta_psi(200), theta_prime_scaled(200)):
        values += series.coeffs.values()
    assert values and all(type(v) is int for v in values)


def test_verify_vanishing_report():
    report = verify_vanishing(1000)
    assert report.ok
    assert json.loads(report.to_json()) == {"N": 1000, "violations": []}


def test_vanishing_catches_violations():
    # Deliberately wrong series: support shows up as violations.
    broken = f_coeffs(100) + QSeries(100, {33: 1})
    assert broken.support() == [33]


@pytest.mark.parametrize("D", [17, 33, 41, 57, 65, 73, 89, 97, 105, 113, 153, 425])
def test_S_D_vanishes(D):
    assert S_D(D) == 0


def test_S_D_guards():
    with pytest.raises(UnsupportedResidue):
        S_D(12)
    with pytest.raises(SquareDiscriminant):
        S_D(9)
    with pytest.raises(SquareDiscriminant):
        S_D(49)


squarefree_one_mod_8 = st.sampled_from(
    [D for D in range(17, 2000, 8) if all(D % (p * p) for p in range(2, 45))]
)


@given(squarefree_one_mod_8)
@settings(max_examples=40, deadline=None)
def test_sigma_sum_agrees_on_squarefree(D):
    assert S_D_sigma(D) == S_D(D)


@pytest.mark.parametrize("D", [17, 41, 153, 425, 1377])
def test_recursion(D):
    report = verify_S_recursion(D)
    assert report.ok
    assert report.lhs == 0


def test_recursion_nontrivial_conductor():
    # D = 153 = 9 * 17: lhs is the plain sigma1 sum, rhs folds in S_17.
    report = verify_S_recursion(153)
    assert report.f == 3
    assert report.lhs == report.rhs
    assert S_D_sigma(153) == S_D(153) + psi(3) * 3 * S_D(17)


def test_recursion_guards():
    with pytest.raises(UnsupportedResidue):
        verify_S_recursion(20)
    with pytest.raises(SquareDiscriminant):
        verify_S_recursion(81)
