from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from prymsv import svconst
from prymsv.errors import (
    InvalidPrototype,
    MissingTableEntry,
    OutsideTheoremHypotheses,
)
from prymsv.euler import BUILTIN_TABLE, EulerTable
from prymsv.svconst import (
    CONJECTURED,
    b_D,
    check_conjecture,
    sv_constants,
)

F = Fraction


@pytest.mark.parametrize(
    "D,b",
    [(20, 5), (32, 4), (40, 0), (8, 0), (12, 0), (16, 4), (24, 0), (28, 0), (36, 3), (44, 0), (48, 4), (52, 5), (68, 3)],
)
def test_b_D(D, b):
    assert b_D(D) == b


def test_b_D_needs_divisibility():
    with pytest.raises(OutsideTheoremHypotheses, match=r"4 \| D"):
        b_D(17)


@pytest.mark.parametrize("D,coeff", [(12, F(-1, 8)), (20, F(-3, 8))])
def test_volume(D, coeff):
    (r,) = sv_constants(D)
    assert r.volume_pi2 == coeff


def test_volume_pm_17():
    assert [r.volume_pi2 for r in sv_constants(17)] == [F(-1, 4), F(-1, 4)]


def test_volume_routing():
    # 4 | D: one component, Delta / 36 with Delta = T + 9 chi(W_D(0^3)).
    (r,) = sv_constants(12)
    assert r.component == "whole"
    assert r.volume_pi2 == (F(-3, 2) + 9 * F(-1, 3)) / 36
    # D ≡ 1 (mod 8): two components, each Delta / 72 with T = 2 chi(W_D(2)).
    assert [r.component for r in sv_constants(17)] == ["plus", "minus"]
    assert sv_constants(17)[0].volume_pi2 == (2 * F(-3) + 9 * F(-4, 3)) / 72
    with pytest.raises(OutsideTheoremHypotheses):
        sv_constants(13)


def test_volume_needs_table_entry():
    with pytest.raises(MissingTableEntry):
        sv_constants(52)  # not in the built-in table


TABLE_DS = [12, 17, 20, 24, 28, 32, 33, 40, 41, 44, 48]


def test_universal_constants_on_table():
    for D in TABLE_DS:
        results = sv_constants(D)
        expected_components = ["plus", "minus"] if D % 8 == 1 else ["whole"]
        assert [r.component for r in results] == expected_components
        for r in results:
            assert r.constants == CONJECTURED
            assert r.c1 + r.c2 + r.c3 == 6


def test_sv_D48_pieces():
    (r,) = sv_constants(48)
    assert r.b_D == 4
    # Delta = chi2 + 4*chi2(12) + 9*chi03 = -12 - 6 - 36 = -54
    assert r.volume_pi2 == F(-54, 36)
    assert r.c1 == 15 * F(-10) / F(-54)


def test_sv_plus_minus_equal():
    plus, minus = sv_constants(17)
    assert plus.constants == minus.constants
    assert plus.volume_pi2 == minus.volume_pi2


@pytest.mark.parametrize("D,err", [(8, OutsideTheoremHypotheses), (5, OutsideTheoremHypotheses), (16, OutsideTheoremHypotheses), (13, OutsideTheoremHypotheses)])
def test_sv_hypotheses(D, err):
    with pytest.raises(err):
        sv_constants(D)


def test_check_conjecture_report():
    checked, skipped, failures = check_conjecture(48)
    assert failures == []
    assert set(checked) == set(TABLE_DS)
    assert 8 in skipped  # too small
    assert 16 in skipped  # square
    assert 13 in skipped  # empty locus


def test_check_conjecture_skips_missing_rows():
    checked, skipped, _ = check_conjecture(53)
    assert checked == TABLE_DS
    assert list(skipped) == sorted(skipped)
    assert {D: skipped[D] for D in (49, 52, 53)} == {
        49: "D = 49 is a square",
        52: "no table row for D = 52",
        53: "D = 53 ≡ 5 (mod 8): the theorem locus needs D ≡ 0, 1, 4 (mod 8)",
    }


def test_missing_row_fails_before_chi_W03(monkeypatch):
    # The table lookups come first: a missing row never pays for chi(W_D(0^3)).
    def boom(D):
        raise AssertionError(f"chi_W03({D}) computed before the table lookup")

    monkeypatch.setattr(svconst, "chi_W03", boom)
    with pytest.raises(MissingTableEntry):
        sv_constants(52)


def test_check_conjecture_propagates_package_errors(monkeypatch):
    # Only the hypotheses and a missing table row are reasons to skip: any
    # other package error raised inside sv_constants is a bug and propagates.
    def bad(D):
        raise InvalidPrototype(f"bug at D = {D}")

    monkeypatch.setattr(svconst, "chi_W03", bad)
    with pytest.raises(InvalidPrototype):
        check_conjecture(20)


def test_check_conjecture_propagates_bugs():
    # A table row holding an unparsed string is a bug, not a reason to skip.
    rows = dict(BUILTIN_TABLE.rows)
    rows[17] = ("-10/3", F(-3), F(-4, 3))
    with pytest.raises(TypeError, match="unsupported operand"):
        check_conjecture(20, EulerTable(rows=rows))


positive_scalars = st.fractions(min_value=F(1, 20), max_value=50, max_denominator=20)


@given(positive_scalars)
def test_constants_are_scale_invariant(s):
    # Multiplying every chi input by a positive rational leaves (c1,c2,c3)
    # unchanged: recompute D=48 by hand with scaled inputs.
    chi4, chi2, chi2_q, chi03 = F(-10), F(-12), F(-3, 2), F(-4)
    delta = (chi2 + 4 * chi2_q) + 9 * chi03
    base = (15 * chi4 / delta, 9 * (chi2 + 4 * chi2_q) / delta, 3 * chi03 / delta)
    delta_s = s * (chi2 + 4 * chi2_q) + 9 * s * chi03
    scaled = (
        15 * s * chi4 / delta_s,
        9 * (s * chi2 + 4 * s * chi2_q) / delta_s,
        3 * s * chi03 / delta_s,
    )
    assert scaled == base
    (r,) = sv_constants(48, BUILTIN_TABLE)
    assert base == r.constants
