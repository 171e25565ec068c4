from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from prymsv.errors import (
    InvalidDiscriminant,
    MismatchedField,
    OutsideTheoremHypotheses,
    SquareDiscriminant,
    UnsupportedResidue,
)
from prymsv.exactq import (
    QuadNum,
    admissible,
    check_discriminant,
    lambda_of,
)

F = Fraction


def q(p, r, D=8):
    return QuadNum(F(p), F(r), D)


class TestArithmetic:
    def test_conjugate_product(self):
        # (1 + sqrt8)(1 - sqrt8) = 1 - 8 = -7
        assert q(1, 1) * q(1, -1) == q(-7, 0)

    def test_lambda_square(self):
        lam = lambda_of(8, 0)
        assert lam * lam == q(2, 0)

    def test_additive_identity(self):
        x = q(F(3, 7), F(-2, 5))
        assert x + 0 == x
        assert x + q(0, 0) == x

    def test_division_inverts(self):
        x = q(F(3, 2), F(1, 4))
        assert x / x == q(1, 0)
        assert (q(1, 0) / x) * x == q(1, 0)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            q(1, 1) / q(0, 0)

    def test_mismatched_fields(self):
        with pytest.raises(MismatchedField):
            q(1, 1, 8) + q(1, 1, 12)
        with pytest.raises(MismatchedField):
            q(1, 1, 8) * q(1, 1, 17)


class TestSign:
    @pytest.mark.parametrize(
        "p,r,expected",
        [
            (0, F(1, 2), 1),  # sqrt(8)/2 > 0
            (-3, 1, -1),  # 9 > 8
            (0, 0, 0),
            (-2, 1, 1),  # 8 > 4
            (3, -1, 1),
            (2, -1, -1),
            (5, 0, 1),
        ],
    )
    def test_sign_cases(self, p, r, expected):
        assert q(p, r).sign() == expected

    def test_sign_exact_for_square_discriminant(self):
        # -2 + sqrt(4) is exactly zero even though the radical stays formal.
        assert QuadNum(-2, 1, 4).sign() == 0
        assert QuadNum(-2, 1, 4) != QuadNum(0, 0, 4)  # equality is componentwise

    def test_comparisons(self):
        assert lambda_of(17, 1) > 0
        assert lambda_of(17, -3) > 0
        assert q(1, -1) < q(0, 0) < q(1, 1)


class TestLambda:
    def test_values(self):
        assert lambda_of(8, 0) == QuadNum(0, F(1, 2), 8)
        assert lambda_of(17, 1) == QuadNum(F(1, 2), F(1, 2), 17)

    @pytest.mark.parametrize("D,e,ad", [(17, 1, 2), (8, 0, 1), (33, 5, 1), (48, 4, 4)])
    def test_minimal_polynomial(self, D, e, ad):
        lam = lambda_of(D, e)
        assert lam * lam - e * lam - 2 * ad == QuadNum(0, 0, D)

    @pytest.mark.parametrize("D,e,ad", [(8, 2, 1), (17, 1, 4), (20, 0, 5)])
    def test_split_minimal_polynomial(self, D, e, ad):
        # D' = e^2 + 4ad variant.
        lam = lambda_of(D, e)
        assert lam * lam - e * lam - ad == QuadNum(0, 0, D)

    def test_positive_for_admissible_e(self):
        for D in (8, 12, 17, 20, 33, 48):
            for e in range(-10, 11):
                if e * e < D:
                    assert lambda_of(D, e).sign() == 1


class TestDiscriminant:
    @pytest.mark.parametrize("D", [1, 4, 5, 8, 9, 12, 16, 17])
    def test_valid(self, D):
        assert check_discriminant(D) == D

    @pytest.mark.parametrize("bad", [0, -4, 2, 3, 6, 7, 10, 11, 5.0, True, "17", None])
    def test_invalid(self, bad):
        with pytest.raises(InvalidDiscriminant):
            check_discriminant(bad)

    def test_no_memo_after_valid_int(self):
        # Once 5 has been accepted, its float twin must still be rejected.
        check_discriminant(5)
        with pytest.raises(InvalidDiscriminant):
            check_discriminant(5.0)
        with pytest.raises(InvalidDiscriminant):
            QuadNum(1, 1, 5.0)


class TestAdmissible:
    LOCI = ("disc", "split", "triple", "W03", "theorem", "S_D")

    @pytest.mark.parametrize(
        "locus,accepted",
        [
            ("disc", [1, 4, 5, 8, 9, 12, 13, 16, 17]),
            ("split", [5, 8, 9, 12, 13, 16, 17]),
            ("triple", [8, 9, 12, 16, 17]),
            ("W03", [8, 12, 17]),
            ("theorem", [12, 17]),
            ("S_D", [17]),
        ],
    )
    def test_accepted_discriminants_to_17(self, locus, accepted):
        assert [D for D in range(1, 18) if admissible(D, locus) is None] == accepted

    @pytest.mark.parametrize(
        "D,locus,err,words",
        [
            (13, "theorem", UnsupportedResidue, "13 ≡ 5 (mod 8)"),
            (12, "S_D", UnsupportedResidue, "12 ≡ 4 (mod 8)"),
            (16, "W03", SquareDiscriminant, "16 is a square"),
            (49, "S_D", SquareDiscriminant, "49 is a square"),
            (8, "theorem", OutsideTheoremHypotheses, "needs D > 9"),
            (4, "triple", OutsideTheoremHypotheses, "needs D > 4"),
            (4, "split", OutsideTheoremHypotheses, "needs D > 4"),
        ],
    )
    def test_reasons(self, D, locus, err, words):
        reason = admissible(D, locus)
        assert type(reason) is err
        assert words in str(reason)

    @pytest.mark.parametrize("bad", [0, -8, 7, 17.0, True])
    def test_invalid_before_any_locus(self, bad):
        for locus in self.LOCI:
            assert isinstance(admissible(bad, locus), InvalidDiscriminant)


@pytest.mark.parametrize(
    "x,text",
    [
        (QuadNum(F(1, 2), F(1, 2), 17), "1/2+1/2*sqrt17"),
        (QuadNum(0, F(1, 2), 8), "0+1/2*sqrt8"),
        (QuadNum(F(-3, 2), F(-1, 4), 12), "-3/2-1/4*sqrt12"),
        (QuadNum(2, -1, 5), "2-1*sqrt5"),
    ],
)
def test_str(x, text):
    assert str(x) == text


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
quads = st.builds(QuadNum, rationals, rationals, st.just(12))


@given(quads, quads, quads)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(quads)
def test_sign_consistent_with_float(x):
    approx = x.to_float()
    if abs(approx) > 1e-6:
        assert x.sign() == (1 if approx > 0 else -1)
