import copy
import math
import pickle

import pytest

from prymsv.errors import (
    BRequired,
    InvalidDiscriminant,
    InvalidPrototype,
    OutsideTheoremHypotheses,
)
from prymsv.exactq import admissible
from prymsv.prototypes import (
    CylProto,
    SplitProto,
    TripleProto,
    enumerate_cyl,
    enumerate_split,
    enumerate_triple,
    enumerate_triple_e,
    protos_csv,
)
from prymsv.svconst import b_D

import oracles
from oracles import SplitClass, classify_split, m_D_bruteforce, split_degree_counts


def quads(protos):
    return [(p.a, p.b, p.d, p.e) for p in protos]


# --- cylinder family -------------------------------------------------------


def test_cyl_D8():
    assert quads(enumerate_cyl(8)) == [(1, 0, 1, 0)]


def test_cyl_D17():
    assert quads(enumerate_cyl(17)) == [
        (1, 0, 1, -3),
        (1, 0, 2, -1),
        (2, 0, 1, -1),
        (1, 0, 2, 1),
        (2, 0, 1, 1),
        (1, 0, 1, 3),
    ]


def test_cyl_D5_empty():
    assert enumerate_cyl(5) == []


def test_cyl_invalid_discriminant():
    with pytest.raises(InvalidDiscriminant):
        enumerate_cyl(7)


def test_cyl_b_range_constraint():
    with pytest.raises(InvalidPrototype):
        CylProto(2, 1, 1, 1)  # gcd(2,1)=1 forces b=0


# The validator's messages, as patterns: one per condition.
POSITIVE = "a > 0 and d > 0"
B_RANGE = "0 <= b <"
GCD = r"gcd\(a, b, d, e\) = 1"
SPLIT = r"a > d \+ e"


@pytest.mark.parametrize(
    "cls,quad,needs",
    [
        (CylProto, (0, 0, 1, 1), POSITIVE),
        (CylProto, (1, 0, 0, 1), POSITIVE),
        (CylProto, (2, -1, 2, 1), B_RANGE),
        (CylProto, (2, 0, 2, 2), GCD),
        (TripleProto, (0, 0, 1, 1), POSITIVE),
        (TripleProto, (1, 0, 0, 1), POSITIVE),
        (TripleProto, (2, 2, 1, 1), B_RANGE),
        (TripleProto, (2, -1, 1, 1), B_RANGE),
        (TripleProto, (2, 0, 2, 2), GCD),
        (SplitProto, (0, 0, 1, -2), POSITIVE),
        (SplitProto, (3, 0, 0, 1), POSITIVE),
        (SplitProto, (3, 1, 1, 0), B_RANGE),
        (SplitProto, (4, -1, 2, 1), B_RANGE),
        (SplitProto, (4, 0, 2, 0), GCD),
        (SplitProto, (3, 0, 1, 2), SPLIT),  # a = d + e
        (SplitProto, (3, 0, 2, 2), SPLIT),  # a < d + e
    ],
)
def test_constructor_rejects(cls, quad, needs):
    with pytest.raises(InvalidPrototype, match=needs):
        cls(*quad)


CLASSES = [CylProto, TripleProto, SplitProto]


@pytest.mark.parametrize("cls", CLASSES)
def test_each_family_validates_and_names_itself(cls):
    # Each family's own __init__ runs the validator; the message is the repr.
    with pytest.raises(InvalidPrototype) as exc:
        cls(0, 0, 1, 0)
    assert str(exc.value) == f"{cls.__name__}(a=0, b=0, d=1, e=0) needs a > 0 and d > 0"


def test_each_family_has_its_own_init():
    # perfbench's prototypes.built counts the calls of these three code objects:
    # one shared (inherited) __init__ would read three times the prototypes built.
    codes = {id(cls.__init__.__code__) for cls in CLASSES}
    assert len(codes) == len(CLASSES)


def test_prototypes_are_values():
    p = CylProto(1, 0, 1, 0)
    assert p == CylProto(a=1, b=0, d=1, e=0) and hash(p) == hash(CylProto(1, 0, 1, 0))
    assert p != TripleProto(1, 0, 1, 0) and p != (1, 0, 1, 0)
    assert len({p, CylProto(1, 0, 1, 0), TripleProto(1, 0, 1, 0)}) == 2
    assert repr(SplitProto(2, 0, 1, 0)) == "SplitProto(a=2, b=0, d=1, e=0)"
    assert pickle.loads(pickle.dumps(p)) == p == copy.copy(p)


@pytest.mark.parametrize("p", [CylProto(1, 0, 1, 0), TripleProto(1, 0, 1, 0), SplitProto(2, 0, 1, 0)])
def test_prototypes_are_frozen(p):
    with pytest.raises(AttributeError):
        p.a = 5
    with pytest.raises(AttributeError):
        del p.b
    with pytest.raises(AttributeError):
        p.other = 1


@pytest.mark.parametrize("enumerate_kind", [enumerate_cyl, enumerate_triple, enumerate_split])
def test_enumeration_order(enumerate_kind):
    for D in range(5, 401):
        if D % 4 not in (0, 1) or (enumerate_kind is enumerate_triple and D % 8 == 5):
            continue
        protos = enumerate_kind(D)
        assert protos == sorted(protos, key=lambda p: (p.e, p.a, p.d, p.b))


# --- triple family ---------------------------------------------------------


def test_triple_17_slice():
    assert quads(enumerate_triple_e(17, 1)) == [(1, 0, 2, 1), (2, 0, 1, 1), (2, 1, 1, 1)]


@pytest.mark.parametrize("D,e,count", [(8, 0, 1), (17, 1, 3), (33, 1, 7), (41, 3, 7)])
def test_triple_slice_counts(D, e, count):
    assert len(enumerate_triple_e(D, e)) == count


def test_triple_rejects_residue_5():
    with pytest.raises(OutsideTheoremHypotheses, match="mod 8"):
        enumerate_triple(13)


def test_triple_partition_property():
    for D in (8, 17, 32, 33, 48, 41, 164):
        protos = enumerate_triple(D)
        by_e = {}
        for p in protos:
            by_e.setdefault(p.e, 0)
            by_e[p.e] += 1
        for e, n in by_e.items():
            assert len(enumerate_triple_e(D, e)) == n
        assert sum(by_e.values()) == len(protos)
        if D % 8 == 1:
            for e in by_e:
                assert by_e[e] == by_e[-e]


def test_triple_slices_match_the_counting_oracle():
    # m_D_bruteforce counts (a, b, d) in its own loop, so it is an oracle for
    # the enumerator as well as for m_D.
    built = 0
    for D in range(5, 1001):
        if admissible(D, "W03") is not None:
            continue
        bound = math.isqrt(D - 1)
        for e in range(-bound, bound + 1):
            if (D - e * e) % 8 == 0:
                n = len(enumerate_triple_e(D, e))
                assert n == m_D_bruteforce(D, e), (D, e)
                built += n
    assert built == 386_331


def test_triple_invariants_revalidated():
    for D in range(5, 300):
        if D % 4 not in (0, 1) or D % 8 == 5:
            continue
        for p in enumerate_triple(D):
            assert p.D == D
            assert p.a > 0 and p.d > 0 and 0 <= p.b < p.a
            assert math.gcd(math.gcd(p.a, p.b), math.gcd(p.d, p.e)) == 1


# --- split family ----------------------------------------------------------


def test_split_D8():
    assert quads(enumerate_split(8)) == [(1, 0, 1, -2), (2, 0, 1, 0)]


def test_split_D17():
    protos = enumerate_split(17)
    assert len(protos) == 6
    assert {(4, 0, 1, -1), (4, 0, 1, 1)} <= set(quads(protos))


def test_split_invariants():
    for D in range(5, 200):
        if D % 4 not in (0, 1):
            continue
        for p in enumerate_split(D):
            assert p.D == D
            assert p.a > p.d + p.e
            assert 0 <= p.b < math.gcd(p.a, p.d)


# --- splitting classification ----------------------------------------------


@pytest.mark.parametrize(
    "quad,i,expected",
    [
        ((4, 0, 1, -1), 1, SplitClass.SAME_D),
        ((4, 0, 1, -1), 5, SplitClass.SAME_D),  # 4 - 1 + 1 = 4 even
        ((3, 0, 1, 1), 5, SplitClass.FOUR_D),  # 3 - 1 - 1 = 1 odd
        ((3, 0, 1, 1), 1, SplitClass.FOUR_D),
        ((4, 0, 2, 1), 2, SplitClass.SAME_D),
        ((2, 0, 1, 0), 3, SplitClass.FOUR_D),
    ],
)
def test_classify_split(quad, i, expected):
    a, b, d, e = quad
    assert classify_split(SplitProto(a, b, d, e), i) is expected


def test_classify_split_requires_b_zero():
    p = SplitProto(4, 2, 4, -3)  # D' = 73, gcd(a,d)=4 allows b=2
    with pytest.raises(BRequired):
        classify_split(p, 1)


def test_classify_split_bad_index():
    with pytest.raises(ValueError):
        classify_split(SplitProto(2, 0, 1, 0), 6)


@pytest.mark.parametrize(
    "D,count",
    [
        (8, 1), (24, 1), (40, 1),  # D/4 ≡ 2 (mod 4)
        (12, 1), (28, 1), (44, 1),  # D/4 ≡ 3 (mod 4)
        (32, 4), (48, 4), (80, 4),  # D/4 ≡ 0 (mod 4)
        (68, 3), (132, 3), (164, 3),  # D/4 ≡ 1 (mod 8)
        (36, 3),  # D/4 = 9: a square, counted over the prototypes of 9
        (20, 5), (52, 5), (84, 5), (116, 5),  # D/4 ≡ 5 (mod 8)
        (17, 2), (33, 2), (41, 2),  # D ≡ 1 (mod 8)
    ],
)
def test_split_degree_counts(D, count):
    assert split_degree_counts(D) == count


def test_split_degree_counts_match_b_D():
    # Every b = 0 prototype agrees, and the count is b_D wherever b_D != 0.
    for D in range(1, 3001):
        if D == 16 or admissible(D, "triple") is not None:
            continue
        if D % 4 == 0 and b_D(D):
            expected = b_D(D)
        else:
            expected = 2 if D % 8 == 1 else 1
        assert split_degree_counts(D) == expected, D


def test_split_degree_counts_below_the_split_locus():
    # D/4 = 4 has no splitting prototypes: raise, never return a count.
    with pytest.raises(OutsideTheoremHypotheses):
        split_degree_counts(16)


def test_split_degree_counts_raise_on_disagreement(monkeypatch):
    flipped = SplitProto(4, 0, 1, 1)  # one of the five b = 0 prototypes at D = 17

    def classify(p, i):
        same = classify_split(p, i) is SplitClass.SAME_D
        if p == flipped and i == 1:
            same = not same
        return SplitClass.SAME_D if same else SplitClass.FOUR_D

    monkeypatch.setattr(oracles, "classify_split", classify)
    with pytest.raises(InvalidPrototype):
        split_degree_counts(17)


def test_split_degree_rejects_odd_nonsplit():
    with pytest.raises(OutsideTheoremHypotheses, match="mod 8"):
        split_degree_counts(21)


# --- serialization ---------------------------------------------------------


def test_protos_csv():
    assert "".join(protos_csv(CylProto, 8)).splitlines() == [
        "D,kind,a,b,d,e",
        "8,cyl,1,0,1,0",
    ]
    assert "".join(protos_csv(SplitProto, 8)).splitlines() == [
        "D,kind,a,b,d,e",
        "8,split,1,0,1,-2",
        "8,split,2,0,1,0",
    ]


FAMILIES = [(CylProto, enumerate_cyl), (TripleProto, enumerate_triple), (SplitProto, enumerate_split)]


@pytest.mark.parametrize("cls,enumerate_kind", FAMILIES)
def test_protos_csv_matches_the_objects(cls, enumerate_kind):
    # The row path formats (e, a, d) groups; the oracle formats the validated
    # objects of the object path, row by row.  At D = 8009 and 8073 the triple
    # groups with e = +-1 have a = 1001 and 1009, so b reaches four digits.
    checked = 0
    for D in [*range(5, 601), 2000, 2001, 8009, 8073]:
        if admissible(D, cls.locus) is not None:
            continue
        expected = "D,kind,a,b,d,e\n" + "".join(
            f"{p.D},{p.kind},{p.a},{p.b},{p.d},{p.e}\n" for p in enumerate_kind(D)
        )
        assert "".join(protos_csv(cls, D)) == expected, D
        checked += 1
    assert checked > 100


GATES = [
    (CylProto, 7, InvalidDiscriminant),
    (TripleProto, 21, OutsideTheoremHypotheses),
    (SplitProto, 4, OutsideTheoremHypotheses),
]


@pytest.mark.parametrize("cls,D,error", GATES, ids=[f"{cls.kind}-{D}" for cls, D, _ in GATES])
def test_protos_csv_gates_before_the_header(cls, D, error):
    rows = protos_csv(cls, D)
    with pytest.raises(error) as exc:
        next(rows)
    assert str(exc.value) == str(admissible(D, cls.locus))
