import pytest

from prymsv.errors import InvalidDiscriminant, OutsideTheoremHypotheses
from prymsv.exactq import admissible, check_discriminant


class TestDiscriminant:
    @pytest.mark.parametrize("D", [1, 4, 5, 8, 9, 12, 16, 17])
    def test_valid(self, D):
        assert check_discriminant(D) == D

    @pytest.mark.parametrize("bad", [0, -4, 2, 3, 6, 7, 10, 11, 5.0, True, "17", None])
    def test_invalid(self, bad):
        with pytest.raises(InvalidDiscriminant):
            check_discriminant(bad)

    def test_agrees_with_admissible(self):
        # check_discriminant raises exactly the rejection admissible(D, "disc") returns.
        for D in [*range(-4, 101), True, 8.0, "8"]:
            reason = admissible(D, "disc")
            if reason is None:
                assert check_discriminant(D) == D
                continue
            with pytest.raises(InvalidDiscriminant) as exc:
                check_discriminant(D)
            assert type(exc.value) is type(reason)
            assert str(exc.value) == str(reason)

    def test_no_memo_after_valid_int(self):
        # Once 5 has been accepted, its float twin must still be rejected.
        check_discriminant(5)
        with pytest.raises(InvalidDiscriminant):
            check_discriminant(5.0)


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

    REASONS = [
        (13, "theorem", OutsideTheoremHypotheses, "13 ≡ 5 (mod 8)"),
        (12, "S_D", OutsideTheoremHypotheses, "12 ≡ 4 (mod 8)"),
        (16, "W03", OutsideTheoremHypotheses, "16 is a square"),
        (49, "S_D", OutsideTheoremHypotheses, "49 is a square"),
        (8, "theorem", OutsideTheoremHypotheses, "needs D > 9"),
        (4, "triple", OutsideTheoremHypotheses, "needs D > 4"),
        (4, "split", OutsideTheoremHypotheses, "needs D > 4"),
    ]

    # Ids from (D, locus) alone, so that renaming an exception class renames no test.
    @pytest.mark.parametrize("D,locus,err,words", REASONS, ids=[f"{D}-{locus}" for D, locus, _, _ in REASONS])
    def test_reasons(self, D, locus, err, words):
        reason = admissible(D, locus)
        assert type(reason) is err
        assert words in str(reason)

    @pytest.mark.parametrize("bad", [0, -8, 7, 17.0, True])
    def test_invalid_before_any_locus(self, bad):
        for locus in self.LOCI:
            assert isinstance(admissible(bad, locus), InvalidDiscriminant)
