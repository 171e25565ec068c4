from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from prymsv import eigencheck
from prymsv.errors import BRequired
from prymsv.eigencheck import (
    SPLIT_CASES,
    _verify_endo,
    build_T,
    cyl_period_vector,
    split_case,
    verification_rows,
    verify_cyl_IA,
    verify_selfadjoint,
    verify_split_endo,
    verify_triple,
)
from prymsv.prototypes import (
    CylProto,
    SplitProto,
    TripleProto,
    enumerate_cyl,
    enumerate_split,
)

from oracles import (
    Poly,
    eigen_residual,
    endo_holds,
    mat_mul,
    mat_scale_plus,
    pairing_matrix,
    perturbations_passing,
    split_period_vector_uncorrected,
)


def test_selfadjoint_basic():
    T = build_T(1, 0, 1, 0)
    assert verify_selfadjoint(T, (1, 2))
    # Breaking one entry destroys self-adjointness.
    T[0][2] += 1
    assert not verify_selfadjoint(T, (1, 2))


@pytest.mark.parametrize("i,j", [(i, j) for i in range(4) for j in range(i, 4)])
def test_selfadjoint_checks_every_entry(i, j):
    # With J = pairing_matrix(1, 1), J^-1 = -J, so T = -J M gives J T = M.
    # Breaking the antisymmetry of M at (i, j) breaks exactly one of the ten
    # comparisons, so each must be made.
    J = pairing_matrix(1, 1)
    M = [[0, 2, 3, 5], [-2, 0, 7, 11], [-3, -7, 0, 13], [-5, -11, -13, 0]]
    for expected in (True, False):
        T = [[-x for x in row] for row in mat_mul(J, M)]
        assert mat_mul(J, T) == M
        transpose_T = [list(col) for col in zip(*T)]
        assert (mat_mul(transpose_T, J) == mat_mul(J, T)) is expected
        assert verify_selfadjoint(T, (1, 1)) is expected
        M[i][j] += 1


# Entries past a machine word, so the kernels must keep exact Python ints.
entries = st.integers(min_value=-(2**70), max_value=2**70)
containers = st.sampled_from([list, tuple])
vectors = st.lists(entries, min_size=4, max_size=4)


@st.composite
def matrices(draw):
    outer, inner = draw(containers), draw(containers)
    return outer(inner(draw(vectors)) for _ in range(4))


pairing_values = st.integers(min_value=-3, max_value=3).filter(bool)


@st.composite
def selfadjoint_or_perturbed(draw, j1, j2):
    """``(T, perturbed)``: ``T`` self-adjoint for ``(j1, j2)``, then one entry moved half the time.

    From an antisymmetric ``A``, the rows ``-j2 A[1]``, ``j2 A[0]``, ``-j1 A[3]``
    and ``j1 A[2]`` make ``J T = j1 j2 A``, antisymmetric.
    """
    a01, a02, a03, a12, a13, a23 = (draw(entries) for _ in range(6))
    A = [[0, a01, a02, a03], [-a01, 0, a12, a13], [-a02, -a12, 0, a23], [-a03, -a13, -a23, 0]]
    T = [[-j2 * x for x in A[1]], [j2 * x for x in A[0]], [-j1 * x for x in A[3]], [j1 * x for x in A[2]]]
    perturbed = draw(st.booleans())
    if perturbed:
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        T[i][j] += draw(entries.filter(bool))
    return T, perturbed


@given(pairing_values, pairing_values, st.data())
def test_selfadjoint_is_the_matrix_identity(j1, j2, data):
    # The ten comparisons against transpose(T) J == J T with the reference J,
    # on random T (almost never self-adjoint) and on T built self-adjoint.
    J = pairing_matrix(j1, j2)

    def identity(T):
        return mat_mul([list(col) for col in zip(*T)], J) == mat_mul(J, T)

    T = data.draw(matrices())
    assert verify_selfadjoint(T, (j1, j2)) == identity(T)
    T, perturbed = data.draw(selfadjoint_or_perturbed(j1, j2))
    assert identity(T) is not perturbed
    assert verify_selfadjoint(T, (j1, j2)) is not perturbed


@st.composite
def generic_endo(draw):
    """``(T, t, n, rows)`` on which every check of the pass holds, with generic entries.

    ``T = y Id + u v^T`` with ``v = (u1, -u0, u3, -u2)``: ``v . u = 0``, so
    ``(u v^T)^2 = 0`` and ``T^2 = 2y T - y^2 Id``, while every entry of ``T``
    is nonzero for generic ``u`` and ``y``.  A row ``(-y w, w)`` with ``w . u =
    0`` stands for a left eigenvector of ``T`` for ``mu = y``.
    """
    y = draw(entries)
    u0, u1, u2, u3 = u = draw(vectors)
    v = (u1, -u0, u3, -u2)
    outer, inner = draw(containers), draw(containers)
    T = outer(inner(u[i] * v[j] + (y if i == j else 0) for j in range(4)) for i in range(4))
    rows = []
    for _ in range(2):
        k, m = draw(entries), draw(entries)
        w = inner((k * u1, -k * u0, m * u3, -m * u2))
        rows.append((inner(-y * x for x in w), w))
    return T, 2 * y, -y * y, rows


@st.composite
def moved_endo(draw, with_rows):
    """``(T, t, n, rows, moved)``: a :func:`generic_endo` case, half the time with one entry moved.

    The entry is one of ``T``, ``t``, ``n`` or (``with_rows``) a row, moved by
    a nonzero amount.
    """
    T, t, n, rows = draw(generic_endo())
    if not with_rows:
        rows = []
    moved = draw(st.booleans())
    if moved:
        delta = draw(entries.filter(bool))
        where = draw(st.sampled_from(["T", "t", "n"] + ["row"] * with_rows))
        if where == "T":
            T = [list(r) for r in T]
            T[draw(st.integers(0, 3))][draw(st.integers(0, 3))] += delta
        elif where == "t":
            t += delta
        elif where == "n":
            n += delta
        else:
            rows = [([*X], [*Y]) for X, Y in rows]
            rows[draw(st.integers(0, 1))][draw(st.integers(0, 1))][draw(st.integers(0, 3))] += delta
    return T, t, n, rows, moved


class TestKernels:
    """The straight-line pass against the index-loop oracles, on generic entries.

    The pairing ``(0, 0)`` makes self-adjointness vacuous, so the comparisons
    of ``T T`` and of the rows decide alone.
    """

    @given(moved_endo(with_rows=True))
    def test_products_match_reference(self, case):
        T, t, n, rows, moved = case
        assert _verify_endo(T, (0, 0), t, n, rows) is endo_holds(T, (0, 0), t, n, rows)
        if not moved:
            assert _verify_endo(T, (0, 0), t, n, rows) is True

    @given(moved_endo(with_rows=False), matrices(), entries, entries)
    def test_scale_plus_matches_reference(self, case, A, s, c):
        T, t, n, _, moved = case
        assert _verify_endo(T, (0, 0), t, n) is (mat_mul(T, T) == mat_scale_plus(T, t, n))
        if not moved:
            assert _verify_endo(T, (0, 0), t, n) is True
        assert _verify_endo(A, (0, 0), s, c) is (mat_mul(A, A) == mat_scale_plus(A, s, c))

    @pytest.mark.parametrize("size", [3, 5])
    def test_non_4x4_raises(self, size):
        T = build_T(1, 0, 1, 0)
        for bad in (
            [[i * size + j for j in range(size)] for i in range(size)],
            [[*row, 0][:size] for row in T],
            (T + [[0, 0, 0, 0]])[:size],
        ):
            for pairing in ((1, 2), (0, 0)):
                with pytest.raises(ValueError):
                    _verify_endo(bad, pairing, 0, 2)

    def test_short_row_raises(self):
        # build_T(1, 0, 1, 0) passes with t = 0 and n = 2, so its rows are unpacked.
        T = build_T(1, 0, 1, 0)
        assert _verify_endo(T, (1, 2), 0, 2)
        for row in (([1, 2, 3], [5, 6, 7, 8]), ([1, 2, 3, 4], [5, 6, 7]), ([1, 2, 3, 4, 5], [5, 6, 7, 8])):
            with pytest.raises(ValueError):
                _verify_endo(T, (1, 2), 0, 2, [row])


class TestCylinder:
    @pytest.mark.parametrize("quad", [(1, 0, 1, 0), (2, 0, 1, 1), (1, 0, 2, 1), (2, 1, 2, 1)])
    def test_examples(self, quad):
        assert verify_cyl_IA(CylProto(*quad))

    def test_perturbed_matrix_fails(self):
        # A perturbed generator is no longer self-adjoint, so the full
        # verification must reject it: emulate by checking directly.
        p = CylProto(2, 0, 1, 1)
        T = build_T(p.a, p.b, p.d, p.e)
        assert perturbations_passing(T, (1, 2), p.e, 2 * p.a * p.d) == []


class TestTriple:
    @pytest.mark.parametrize("quad", [(1, 0, 1, 0), (2, 1, 1, 1), (3, 2, 1, -3)])
    def test_examples(self, quad):
        assert verify_triple(TripleProto(*quad))

    def test_quadratic_relation_example(self):
        # (4,0,1,-1) splitting-style quad reused as a plain matrix check:
        # T^2 = -T + 8*Id for the triple generator with e=-1, ad=4.
        T = build_T(4, 0, 1, -1)
        assert mat_mul(T, T) == mat_scale_plus(T, -1, 8)
        assert _verify_endo(T, (1, 2), -1, 8)

    def test_perturbation_fails(self):
        p = TripleProto(2, 1, 1, 1)
        T = build_T(p.a, p.b, p.d, p.e)
        assert perturbations_passing(T, (1, 2), p.e, 2 * p.a * p.d) == []


class TestSplit:
    @pytest.mark.parametrize("quad", [(2, 0, 1, 0), (4, 0, 1, -1), (4, 0, 1, 1), (3, 0, 2, 0)])
    def test_all_cases_pass(self, quad):
        p = SplitProto(*quad)
        for case in SPLIT_CASES:
            assert verify_split_endo(p, case)

    def test_quadratic_relation(self):
        p = SplitProto(4, 0, 1, -1)
        for case in SPLIT_CASES:
            T, J, _ = split_case(p, case)
            assert verify_selfadjoint(T, J)
            assert mat_mul(T, T) == mat_scale_plus(T, 2 * p.e, 4 * p.a * p.d)
            assert _verify_endo(T, J, 2 * p.e, 4 * p.a * p.d)

    def test_pairings(self):
        p = SplitProto(2, 0, 1, 0)
        assert split_case(p, "w1")[1] == (2, 1)
        assert split_case(p, "w2")[1] == (2, 1)
        assert split_case(p, "w3")[1] == (1, 2)
        with pytest.raises(ValueError):
            split_case(p, "w4")

    def test_w2_has_no_period_vector(self):
        assert split_case(SplitProto(2, 0, 1, 0), "w2")[2] == []

    def test_uncorrected_w1_vector_fails(self):
        # The printed v = (2l', 2il', a, id) misses v T = 2l' v by -2ad*i in
        # component 2 and by +2d*l'*i in component 4: for 2v in the basis
        # (1, mu), mu = 2l', the imaginary row's residual is
        # (-4ad e_2, 2d e_4).  At (4, 0, 1, -1), v's residual is
        # (0, -8i, 0, (-1 + sqrt(17))i).  The corrected (2l', il', a, id) passes.
        p = SplitProto(4, 0, 1, -1)
        T, pairing, good = split_case(p, "w1")
        t, n = 2 * p.e, 4 * p.a * p.d
        bad = split_period_vector_uncorrected(p)
        assert [eigen_residual(row, T, t, n) for row in bad] == [
            ([0, 0, 0, 0], [0, 0, 0, 0]),
            ([0, -16, 0, 0], [0, 0, 0, 2]),
        ]
        assert all(
            eigen_residual(row, T, t, n) == ([0, 0, 0, 0], [0, 0, 0, 0])
            for row in good
        )
        assert not _verify_endo(T, pairing, t, n, bad)
        assert _verify_endo(T, pairing, t, n, good)

    def test_b_required(self):
        with pytest.raises(BRequired):
            verify_split_endo(SplitProto(4, 2, 4, -3), "w1")

    def test_perturbation_fails(self):
        p = SplitProto(2, 0, 1, 0)
        for case in SPLIT_CASES:
            T, J, _ = split_case(p, case)
            assert perturbations_passing(T, J, 2 * p.e, 4 * p.a * p.d) == [], case


@given(st.integers(), st.integers(), st.integers(), st.integers())
def test_checks_are_identities_in_any_integers(a, b, d, e):
    # Every check is a polynomial identity in (a, b, d, e), so it holds for
    # integers that make no prototype: a FAIL row can only mean a mistyped
    # generator or period vector.
    assert verify_cyl_IA(SimpleNamespace(a=a, b=b, d=d, e=e))
    assert verify_triple(SimpleNamespace(a=a, b=b, d=d, e=e))
    for case in SPLIT_CASES:
        assert verify_split_endo(SimpleNamespace(a=a, b=0, d=d, e=e), case)


# The indeterminates a, b, d, e as a prototype; b = 0 for the splitting cases.
SYMBOLIC = SimpleNamespace(a=Poly.var(0), b=Poly.var(1), d=Poly.var(2), e=Poly.var(3))
SYMBOLIC_SPLIT = SimpleNamespace(a=SYMBOLIC.a, b=0, d=SYMBOLIC.d, e=SYMBOLIC.e)


def test_checks_are_polynomial_identities():
    # On indeterminates each check compares polynomials, so True proves it
    # for every integer quadruple.
    assert verify_cyl_IA(SYMBOLIC) is True
    assert verify_triple(SYMBOLIC) is True
    for case in SPLIT_CASES:
        assert verify_split_endo(SYMBOLIC_SPLIT, case) is True


@pytest.mark.parametrize("check", [verify_cyl_IA, verify_triple])
def test_polynomial_control_perturbed_generator(monkeypatch, check):
    # One entry of T plus 1 is no identity: the polynomial checks can fail.
    def perturbed(a, b, d, e):
        T = build_T(a, b, d, e)
        T[0][2] += 1
        return T

    monkeypatch.setattr(eigencheck, "build_T", perturbed)
    assert check(SYMBOLIC) is False


def test_polynomial_control_uncorrected_w1_vector(monkeypatch):
    def uncorrected(p, case):
        T, pairing, _ = split_case(p, case)
        return T, pairing, split_period_vector_uncorrected(p)

    monkeypatch.setattr(eigencheck, "split_case", uncorrected)
    assert verify_split_endo(SYMBOLIC_SPLIT, "w1") is False


def _systems(cyl, split):
    """``(T, pairing, t, n, rows)``: ``build_T`` with the I.A rows, then each ``split_case`` system."""
    yield build_T(cyl.a, cyl.b, cyl.d, cyl.e), (1, 2), cyl.e, 2 * cyl.a * cyl.d, cyl_period_vector(cyl)
    for case in SPLIT_CASES:
        T, pairing, rows = split_case(split, case)
        yield T, pairing, 2 * split.e, 4 * split.a * split.d, rows


def _single_entry_moves(T, rows):
    """Every ``(T, rows)`` with one entry of ``T`` or of one row moved by +1 or -1."""
    for step in (1, -1):
        for i in range(4):
            for j in range(4):
                moved = [list(r) for r in T]
                moved[i][j] += step
                yield moved, rows
        for moved_rows in _perturbations(rows, step):
            yield T, moved_rows


@pytest.mark.parametrize(
    "cyl,split",
    [
        (CylProto(2, 0, 1, 1), SplitProto(4, 0, 1, -1)),
        (CylProto(2, 1, 2, 1), SplitProto(2, 0, 1, 0)),
        (CylProto(1, 0, 2, 1), SplitProto(3, 0, 2, 0)),
        (SYMBOLIC, SYMBOLIC_SPLIT),
    ],
    ids=["ints-1", "ints-2", "ints-3", "poly"],
)
def test_verify_endo_is_the_oracle_conjunction(cyl, split):
    # On every single-entry move of a generator or of a period row, the pass
    # says what the index-loop oracles say.  With the pairing (0, 0), which
    # every T satisfies, the moves of T reach the comparisons of T T too.
    for T, pairing, t, n, rows in _systems(cyl, split):
        assert _verify_endo(T, pairing, t, n, rows) is True
        for J in (pairing, (0, 0)):
            for T2, rows2 in _single_entry_moves(T, rows):
                assert _verify_endo(T2, J, t, n, rows2) is endo_holds(T2, J, t, n, rows2)


class TestVerifyEndoBranches:
    # CylProto(2, 0, 1, 1): t = e = 1, n = 2ad = 4; verify_cyl_IA passes it.
    P = CylProto(2, 0, 1, 1)

    def test_not_selfadjoint(self):
        T = build_T(2, 0, 1, 1)
        T[0][2] += 1
        assert not _verify_endo(T, (1, 2), 1, 4)

    def test_wrong_quadratic_relation(self):
        T = build_T(2, 0, 1, 1)
        assert verify_selfadjoint(T, (1, 2))
        assert not _verify_endo(T, (1, 2), 1, 5)

    def test_wrong_period_row(self):
        T = build_T(2, 0, 1, 1)
        (X, Y), imag = cyl_period_vector(self.P)
        rows = [([X[0] + 1, *X[1:]], Y), imag]
        assert not _verify_endo(T, (1, 2), 1, 4, rows)


def _perturbations(rows, step=1):
    """Every copy of ``rows`` with one entry increased by ``step``."""
    for r in range(len(rows)):
        for part in range(2):
            for j in range(4):
                bumped = [([*X], [*Y]) for X, Y in rows]
                bumped[r][part][j] += step
                yield bumped


class TestPeriodPerturbations:
    ZERO = ([0, 0, 0, 0], [0, 0, 0, 0])

    def assert_only_unperturbed_passes(self, rows, T, t, n):
        def passes(rows):
            return all(eigen_residual(row, T, t, n) == self.ZERO for row in rows)

        assert passes(rows)
        variants = list(_perturbations(rows))
        assert len(variants) == 16
        assert not any(passes(v) for v in variants)

    @pytest.mark.parametrize("quad", [(2, 0, 1, 1), (2, 1, 2, 1)])
    def test_cyl_IA_rows(self, quad):
        p = CylProto(*quad)
        T = build_T(p.a, p.b, p.d, p.e)
        self.assert_only_unperturbed_passes(cyl_period_vector(p), T, p.e, 2 * p.a * p.d)

    @pytest.mark.parametrize("case", ["w1", "w3"])
    def test_split_rows(self, case):
        p = SplitProto(4, 0, 1, -1)
        T, _, rows = split_case(p, case)
        self.assert_only_unperturbed_passes(rows, T, 2 * p.e, 4 * p.a * p.d)


class TestBatch:
    def test_rows_cover_all_kinds(self):
        rows = list(verification_rows(50))
        kinds = {p.kind for p, _, _ in rows}
        assert kinds == {"cyl", "triple", "split"}
        assert all(passed for _, _, passed in rows)
        ds = [D for D in range(5, 51) if D % 4 in (0, 1)]
        cyl_count = sum(1 for p, _, _ in rows if p.kind == "cyl")
        assert cyl_count == sum(len(enumerate_cyl(D)) for D in ds)
        split_rows = [p for p, _, _ in rows if p.kind == "split"]
        assert all(p.b == 0 for p in split_rows)
        assert len(split_rows) == 3 * sum(
            sum(1 for p in enumerate_split(D) if p.b == 0) for D in ds
        )
