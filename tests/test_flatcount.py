import cmath
import gc
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

from prymsv.errors import InvalidRadius, InvalidSlit, PrymsvError
from prymsv.exactq import admissible
from prymsv.flatcount import (
    _KEY,
    FlatSurface,
    SaddleConnection,
    build_slit_triple,
    count_report,
    default_slit,
    enumerate_sc,
    family_counts,
    group_families,
    lambda_float,
    systole_estimate,
)
from prymsv.prototypes import TripleProto, enumerate_triple

from oracles import enumerate_sc_reference

P8 = TripleProto(1, 0, 1, 0)  # D = 8, square torus side sqrt(2), unit torus


@pytest.fixture(scope="module")
def surface8():
    s = build_slit_triple(P8, default_slit(P8))
    s.check()
    return s


SQUARE_TORUS_GLUE = {
    (0, 0): (1, 1),
    (1, 1): (0, 0),
    (0, 1): (1, 2),
    (1, 2): (0, 1),
    (0, 2): (1, 0),
    (1, 0): (0, 2),
}


# The same vertices as packed exact positions: 1 is (A, B, C, E) = (2, 0, 0, 0)
# and i is (0, 0, 2, 0).
SQUARE_TORUS_EXACT = [(0, 2, 2 + 2 * _KEY**2), (0, 2 + 2 * _KEY**2, 2 * _KEY**2)]


def square_torus(glue=SQUARE_TORUS_GLUE) -> FlatSurface:
    """A plain unit torus split into two triangles along its diagonal."""
    tris = [(0j, 1 + 0j, 1 + 1j), (0j, 1 + 1j, 1j)]
    return FlatSurface(
        triangles=tris, glue=dict(glue), area_exact=1.0, exact=SQUARE_TORUS_EXACT
    )


# The torus gluing with (1, 1) sent on to (0, 1): not an involution.
BROKEN_GLUE = {**SQUARE_TORUS_GLUE, (1, 1): (0, 1)}


class TestConstruction:
    def test_invariants(self, surface8):
        assert len(surface8.triangles) == 12
        assert abs(surface8.area - 4.0) <= 1e-12
        assert surface8.area_exact == pytest.approx(
            lambda_float(8, 0) ** 2 + 2
        )

    def test_two_six_pi_zeros(self, surface8):
        zs = surface8.zeros()
        assert len(zs) == 2
        for z in zs:
            assert surface8.cone_angles[z] == pytest.approx(6 * math.pi)

    def test_regular_vertices(self, surface8):
        regular = [
            ang
            for cid, ang in surface8.cone_angles.items()
            if cid not in surface8.zeros()
        ]
        for ang in regular:
            assert ang == pytest.approx(2 * math.pi)

    def test_torus_control(self):
        s = square_torus()
        s.check()
        assert s.zeros() == []
        assert s.area == pytest.approx(1.0)

    def test_check_rejects_non_involution(self):
        with pytest.raises(ValueError, match="not an involution"):
            square_torus(BROKEN_GLUE).check()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_check_rejects_non_finite_vertex(self, bad):
        s = square_torus()
        s.triangles[1] = (0j, 1 + 1j, complex(0, bad))
        with pytest.raises(ValueError, match="triangle 1 has a non-finite edge"):
            s.check()

    def test_check_rejects_clockwise_triangle(self):
        s = square_torus()
        s.triangles[0] = (0j, 1 + 1j, 1 + 0j)
        with pytest.raises(ValueError, match="triangle 0 not ccw"):
            s.check()

    def test_check_rejects_glued_edges_with_unequal_vectors(self):
        # (0, 0) carries 1 and (1, 2) carries -i: an involution, but not a translation.
        glue = {**SQUARE_TORUS_GLUE, (0, 0): (1, 2), (1, 2): (0, 0),
                (0, 1): (1, 1), (1, 1): (0, 1)}  # fmt: skip
        with pytest.raises(ValueError, match="must carry opposite vectors"):
            square_torus(glue).check()

    def test_check_rejects_wrong_area(self):
        s = square_torus()
        s.area_exact = 2.0
        with pytest.raises(ValueError, match="area 1.0 differs from 2.0"):
            s.check()

    def test_vertex_classes_are_not_an_input(self, surface8):
        # FlatSurface derives them, so no surface can carry classes that its
        # triangles and gluing contradict.
        with pytest.raises(TypeError):
            FlatSurface(
                triangles=surface8.triangles, glue=surface8.glue, area_exact=4.0,
                exact=surface8.exact, vertex_class=surface8.vertex_class,
            )

    def test_check_rejects_under_optimize(self):
        # The checks must not be asserts, which ``python -O`` strips.
        code = textwrap.dedent(
            f"""
            from prymsv.flatcount import FlatSurface
            tris = [(0j, 1 + 0j, 1 + 1j), (0j, 1 + 1j, 1j)]
            s = FlatSurface(
                triangles=tris, glue={BROKEN_GLUE!r}, area_exact=1.0,
                exact={SQUARE_TORUS_EXACT!r},
            )
            try:
                s.check()
            except ValueError as exc:
                print("rejected:", exc)
            else:
                print("accepted")
            """
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        assert out.startswith("rejected: gluing is not an involution"), out

    def test_build_checks_the_surface(self, monkeypatch):
        def reject(self):
            raise ValueError("rejected")

        monkeypatch.setattr(FlatSurface, "check", reject)
        with pytest.raises(ValueError, match="rejected"):
            build_slit_triple(P8, default_slit(P8))

    def test_slit_too_long(self):
        with pytest.raises(InvalidSlit, match="half the systole"):
            build_slit_triple(P8, 0.9 + 0.1j)

    def test_slit_outside_parallelogram(self):
        # systole_estimate overestimates the systole 3.16 of this skewed lattice
        # as 14.65, so both slits pass the half-systole gate; each leaves the
        # fundamental parallelogram, where a fan triangle would be clockwise.
        p = TripleProto(100, 33, 1, 1)  # D = 801
        assert systole_estimate(p) > 14
        for t in (2.5 + 1j, default_slit(p, 0.3)):
            with pytest.raises(InvalidSlit, match="parallelogram"):
                build_slit_triple(p, t)

    def test_degenerate_direction(self):
        # Slit parallel to the horizontal generator.
        with pytest.raises(InvalidSlit, match="parallel to a lattice generator"):
            build_slit_triple(P8, 0.05 + 0j)

    def test_slit_too_short(self):
        # A generic direction, but both basis coordinates are below 1e-12: the
        # slit is too short for the lattice, not parallel to a generator.
        with pytest.raises(InvalidSlit, match="too short for the lattice"):
            build_slit_triple(P8, 1e-200 + 3e-200j)

    @pytest.mark.parametrize("t", [complex(math.nan, 0.1), complex(math.inf, 0), complex(0.01, -math.inf)])
    def test_slit_not_finite(self, t):
        with pytest.raises(InvalidSlit, match="not finite"):
            build_slit_triple(P8, t)

    def test_negative_e_prototype(self):
        p = TripleProto(2, 1, 1, -1)  # D = 17
        s = build_slit_triple(p, default_slit(p))
        s.check()
        lam = lambda_float(17, -1)
        assert s.area == pytest.approx(lam * lam + 4)

    def test_systole(self):
        assert systole_estimate(P8) == pytest.approx(1.0)
        assert abs(default_slit(P8)) == pytest.approx(0.05)


def _holonomies(s, R, sign=1):
    """The sorted holonomies of ``enumerate_sc(s, R)``, times ``sign``, to 9 places."""
    return sorted(
        (round(sign * c.holonomy.real, 9), round(sign * c.holonomy.imag, 9))
        for c in enumerate_sc(s, R)
    )


class TestEnumeration:
    def test_slit_family_of_three(self, surface8, swap_zeros):
        t = default_slit(P8)
        R = abs(t) * 1.01
        forward = enumerate_sc(surface8, R)
        backward = enumerate_sc(swap_zeros(surface8), R)
        assert len(forward) == len(backward) == 3
        for c in forward:
            assert cmath.isclose(c.holonomy, t, rel_tol=1e-9)
        for c in backward:
            assert cmath.isclose(c.holonomy, -t, rel_tol=1e-9)

    def test_records_join_z1_to_z2(self, surface8):
        z1, z2 = surface8.zeros()
        sc = enumerate_sc(surface8, 2.0)
        assert sc
        assert {(c.start, c.end) for c in sc} == {(z1, z2)}

    def test_zero_radius(self, surface8):
        assert enumerate_sc(surface8, 0.0) == []

    @pytest.mark.parametrize("R", [math.nan, math.inf, 1e200, math.sqrt(sys.float_info.max)])
    def test_non_finite_radius(self, surface8, R):
        # None of these ever prunes the search, so it would not terminate:
        # the last two are finite, but the pruning bound R*R*(1 + 1e-12) is inf.
        with pytest.raises(ValueError, match="finite pruning bound"):
            enumerate_sc(surface8, R)

    def test_negation_symmetry(self, surface8, swap_zeros):
        # Developed from z2's corners, the connections are the reversals of
        # those developed from z1's.
        forward = _holonomies(surface8, 2.5)
        assert forward
        assert forward == _holonomies(swap_zeros(surface8), 2.5, sign=-1)

    @pytest.mark.parametrize(
        "proto,frac", [((1, 0, 1, 0), 0.3), ((2, 1, 1, -1), 0.05), ((2, 1, 1, -1), 0.3)]
    )
    def test_negation_symmetry_other_slits(self, swap_zeros, proto, frac):
        p = TripleProto(*proto)
        s = build_slit_triple(p, default_slit(p, frac))
        assert _holonomies(s, 3.0) == _holonomies(swap_zeros(s), 3.0, sign=-1)

    @pytest.mark.parametrize(
        "proto,expected",
        [((1, 0, 1, 0), {3: 21, 2: 151, 1: 120}), ((2, 1, 1, -1), {3: 9, 2: 91, 1: 79})],
    )
    def test_slit_in_every_quadrant(self, proto, expected):
        # -t is t turned by pi, and both tori are symmetric under conjugation,
        # so the slits t, -t, conj(t) and -conj(t) give equal counts; each puts
        # the slit in another cone of the lattice bases.
        p = TripleProto(*proto)
        t = default_slit(p, 0.3)
        for slit in (t, -t, t.conjugate(), -t.conjugate()):
            s = build_slit_triple(p, slit)
            s.check()
            assert family_counts(s, 8.0) == expected, slit

    def test_prefix_monotonicity(self, surface8):
        small = enumerate_sc(surface8, 1.5)
        large = enumerate_sc(surface8, 2.5)
        assert set(small) <= set(large)
        assert set(small) == {c for c in large if c.length <= 1.5}

    def test_sorted_deterministic(self, surface8):
        sc = enumerate_sc(surface8, 2.0)
        assert sc == sorted(sc, key=SaddleConnection.sort_key)
        assert sc == enumerate_sc(surface8, 2.0)

    def test_order_is_a_function_of_the_set(self, surface8):
        # The sort is stable: a tie between distinct records would come out
        # of the reversed list reversed.
        sc = enumerate_sc(surface8, 25.0)
        assert sorted(reversed(sc), key=SaddleConnection.sort_key) == sc

    def test_lengths_bounded(self, surface8):
        # A vertex is kept on abs() of its holonomy, which is ``c.length``.
        for c in enumerate_sc(surface8, 1.8):
            assert c.length <= 1.8

    @pytest.mark.parametrize("proto", [(1, 0, 1, 0), (2, 1, 1, -1), (1, 0, 1, 2), (2, 1, 1, -2)])
    @pytest.mark.parametrize("frac", [0.05, 0.3])
    def test_radius_on_a_connection(self, proto, frac):
        # At R equal to a connection's length, the prune must not drop the
        # search before it reaches that connection.
        p = TripleProto(*proto)
        t = default_slit(p, frac)
        s = build_slit_triple(p, t)
        slit_family = enumerate_sc(s, abs(t))
        assert len(slit_family) == 3
        assert all(c.holonomy == t for c in slit_family)
        sample = enumerate_sc(s, 6.0)[::97]
        assert sample
        for c in sample:
            assert c in enumerate_sc(s, c.length), c


def _digest(connections):
    """SHA-256 of every record, with its holonomy bit for bit."""
    h = hashlib.sha256()
    for c in connections:
        x, y = c.holonomy.real.hex(), c.holonomy.imag.hex()
        h.update(f"{c.start} {c.end} {x} {y} {c.exact}\n".encode())
    return h.hexdigest()


#: (proto, slit, R, digest): the slit is a complex vector or a ``frac`` of the
#: default slit.  Each test id names the case, not the digest, so that
#: re-recording a digest keeps the id.
_PINNED_LISTS = [
    ((1, 0, 1, 0), 0.05, 25.0,
     "1b815842a3484cdb12bb0465b877f7b75d1c5ed96e000c314a4d4db8d5eb3b57"),
    ((1, 0, 1, 0), 0.3, 25.0,
     "f52d3e4efdaffa0e2f38158bfa0e2357f2e5e5973d730b0d57ed42a12f33b20a"),
    ((2, 1, 1, -1), 0.05, 25.0,
     "0dafa20b530d41048eaf5056b29dbaadd1bb9b7d1c499f0e68c8d64a17185c7f"),
    ((2, 1, 1, -1), 0.3, 25.0,
     "3424005fd4a0aea17ffe296749535b561983aa5e4990ff525c45b72522d8c5a2"),
    ((1, 0, 1, 0), 0.03 + 0.02j, 25.0,
     "be38a04bf9053bf45b895e442cdc69cfaa7f274551e3cca6e736f3e99612c13d"),
    ((1, 0, 1, 1), 0.25 + 0.125j, 8.0,
     "5a8396ad9567064a7fad8480ada4f5cd3c6cdb0a5ee360520e50c337c321baee"),
    ((1, 0, 1, 2), 0.05, 25.0,
     "f7a739c17176c02b6623534d6b47c69bb828d1fe691900620c86ad367b9d7003"),
    ((2, 1, 1, -2), 0.05, 25.0,
     "d2b703514d4b15924f706c6cf70ab438d51e3c6190b76b7456e40d1520494a9f"),
    ((1, 0, 2, 0), 0.3, 8.0,
     "8a39e0bb2afe0794c0b4f8075f45cc1aa4994aa713ed0e8694fe4e87a4cb4bfd"),
    ((1, 0, 1, 0), 0.3, 30.0,
     "262739066c388fde208a377764676e8aee36c7a91357ae40e9ee7aeddc9fbb7a"),
]  # fmt: skip


@pytest.mark.parametrize(
    "proto,slit,R,digest",
    _PINNED_LISTS,
    ids=[f"{a},{b},{d},{e}-{slit}-{R}" for (a, b, d, e), slit, R, _ in _PINNED_LISTS],
)
def test_connection_list_pinned(proto, slit, R, digest):
    # The first six were recorded while the wedge loop pruned on abs() of
    # complex offsets, the last four while it stacked every sector it
    # developed (D = 12, 20, the square D = 16 with sqrt(D) folded in, and
    # the benchmark's radius).  Seven were recorded again when the sort key
    # became a total order: each new list is the old one re-sorted.  A count
    # can hide a changed holonomy bit, this cannot.
    p = TripleProto(*proto)
    t = slit if isinstance(slit, complex) else default_slit(p, slit)
    assert _digest(enumerate_sc(build_slit_triple(p, t), R)) == digest


def _reference_cases():
    """(prototype, frac, surface): 14 triple prototypes with D < 60 drawn with
    a fixed seed, each slit by 0.05, 0.3 and 0.49 systoles at seeded angles;
    an angle at which the slit does not fit a lattice is drawn again."""
    rng = random.Random(60)
    protos = [
        p for D in range(5, 60) if admissible(D, "triple") is None for p in enumerate_triple(D)
    ]
    cases = []
    for p in rng.sample(protos, 14):
        for frac in (0.05, 0.3, 0.49):
            while True:
                t = default_slit(p, frac) * cmath.exp(2j * math.pi * rng.random())
                try:
                    cases.append((p, frac, build_slit_triple(p, t)))
                    break
                except InvalidSlit:
                    pass
    return cases


_REFERENCE_CASES = _reference_cases()


@pytest.mark.parametrize(
    "p,frac,s",
    _REFERENCE_CASES,
    ids=[f"{p.a},{p.b},{p.d},{p.e}-{frac}" for p, frac, _ in _REFERENCE_CASES],
)
def test_matches_the_reference_loop(swap_zeros, p, frac, s):
    # The loop tests an edge's endpoints before its segment distance and
    # unpacks only what a crossing reads; the reference computes the distance
    # at every crossing.  Records agree bit for bit, holonomies and exact
    # keys, developed from either cone point, at R = 6 systoles.
    R = 6 * systole_estimate(p)
    for surface in (s, swap_zeros(s)):
        found = enumerate_sc(surface, R)
        assert len(found) >= 3
        assert found == enumerate_sc_reference(surface, R)


def test_order_is_the_sort_key_order():
    # enumerate_sc sorts on the length, then re-sorts each run of equal
    # lengths on the whole key.  Some runs hold distinct records: members of
    # one family whose float holonomies differ in the last bit but whose
    # lengths round alike, so the re-sort has work to do.
    runs_with_distinct_keys = 0
    for p, _, s in _REFERENCE_CASES:
        found = enumerate_sc(s, 6 * systole_estimate(p))
        assert found == sorted(found, key=SaddleConnection.sort_key)
        for _, run in itertools.groupby(found, key=SaddleConnection.length.fget):
            runs_with_distinct_keys += len({c.sort_key() for c in run}) > 1
    assert runs_with_distinct_keys >= 1


def test_family_counts_holds_its_records_and_one_entry_per_family(surface8):
    # At R = 8 the D = 8 surface has 495 connections in 293 families.  Beside
    # its records family_counts holds one float per record while they sort
    # and one small entry per family while they group: it peaks at about 1.7
    # times the record list.  A key tuple per record in the sort, or a key
    # tuple, a list and a frozen dataclass per family, took 2.7 times.  Each
    # full collection empties the interpreter's free lists, so neither figure
    # counts objects that were freed but kept for reuse.
    R = 8.0
    family_counts(surface8, R)
    gc.collect()
    tracemalloc.start()
    try:
        found = enumerate_sc(surface8, R)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del found
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        held -= base
        tracemalloc.reset_peak()
        family_counts(surface8, R)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert held > 50_000
    assert peak < 2.2 * held

class TestGrouping:
    def test_exact_keys_group(self):
        sc = [
            SaddleConnection(0, 1, 1 + 1j, 7),
            SaddleConnection(0, 1, 1 + 1.0000000001j, 7),  # same key: grouped
            SaddleConnection(0, 1, 1 + 1j, 8),  # another key: never grouped
            SaddleConnection(1, 0, 1 + 1j, 7),  # other endpoints: never grouped
        ]
        fams = group_families(sc, 1e-6)
        assert [(f.start, f.end, f.holonomy, f.multiplicity) for f in fams] == [
            (0, 1, 1 + 1j, 2),
            (0, 1, 1 + 1j, 1),
            (1, 0, 1 + 1j, 1),
        ]

    def test_endpoints_split_a_key_in_any_order(self):
        # One exact key with two endpoint pairs, interleaved: two families,
        # in the order of their first connections.
        sc = [
            SaddleConnection(0, 1, 1 + 1j, 7),
            SaddleConnection(1, 0, 2 + 1j, 7),
            SaddleConnection(0, 1, 1 + 1j, 7),
            SaddleConnection(1, 0, 2 + 1j, 7),
            SaddleConnection(1, 0, 2 + 1j, 7),
        ]
        fams = group_families(sc, 1e-6)
        assert [(f.start, f.end, f.holonomy, f.multiplicity) for f in fams] == [
            (0, 1, 1 + 1j, 2),
            (1, 0, 2 + 1j, 3),
        ]

    def test_float_spread_above_tol_raises(self):
        sc = [
            SaddleConnection(0, 1, 1 + 0j, 7),
            SaddleConnection(0, 1, 1.0000015 + 0j, 7),  # one key, spread > tol
        ]
        with pytest.raises(ValueError, match="exact key"):
            group_families(sc, 1e-6)
        assert group_families(sc, 1e-5)[0].multiplicity == 2

    def test_negative_tol(self):
        for tol in (-1.0, 0.0):
            with pytest.raises(ValueError):
                group_families([], tol)


class TestEstimates:
    def test_counts_include_slit_family(self, surface8):
        t = default_slit(P8)
        counts = family_counts(surface8, abs(t) * 1.01)
        assert counts == {3: 1}

    def test_report_needs_positive_radius(self, surface8):
        assert issubclass(InvalidRadius, PrymsvError)
        assert issubclass(InvalidRadius, ValueError)
        # At 1e-160 Area / (pi R^2) overflows and at 1e-300 pi R^2 underflows,
        # so only the report fails; at 5e-324 the tolerance 1e-9 * R is 0 too.
        for R in (0.0, -1.0, 1e-160, 1e-300, 5e-324):
            with pytest.raises(InvalidRadius, match="radius"):
                count_report(surface8, R)
        for R in (0.0, -1.0, 5e-324):
            with pytest.raises(InvalidRadius, match="radius"):
                family_counts(surface8, R)

    def test_report_shape(self, surface8):
        report = count_report(surface8, 2.0)
        assert set(report) == {"R", "families", "estimates"}
        assert set(report["families"]) == {"1", "2", "3"}
        assert set(report["estimates"]) == {"c1", "c2", "c3"}
        norm = surface8.area / (math.pi * 4.0)
        for k in (1, 2, 3):
            assert report["estimates"][f"c{k}"] == pytest.approx(
                report["families"][str(k)] * norm
            )

    def test_estimate_loose_sanity(self):
        # Moderate radius: the estimates should already be on the right
        # order of magnitude (the acceptance test uses a much larger R).
        p = TripleProto(1, 0, 1, 0)
        s = build_slit_triple(p, default_slit(p, frac=0.3))
        estimates = count_report(s, 12.0)["estimates"]
        c1, c2, c3 = (estimates[f"c{k}"] for k in (1, 2, 3))
        assert 1.0 < c1 < 5.0
        assert 1.5 < c2 < 5.0
        assert 0.0 < c3 < 1.0

    def test_two_zeros_required(self):
        with pytest.raises(ValueError, match="two cone points"):
            family_counts(square_torus(), 1.0)
        with pytest.raises(ValueError, match="two cone points"):
            enumerate_sc(square_torus(), 1.0)


def _decode(key):
    """The signed digits (A, B, C, E) of a packed exact position."""
    digits = []
    for _ in range(4):
        digit = (key + _KEY // 2) % _KEY - _KEY // 2
        digits.append(digit)
        key = (key - digit) // _KEY
    assert key == 0
    return digits


def _naive_family_counts(connections, tol):
    """Float grouping by pairwise comparison: a connection joins the first
    family with its endpoints whose holonomy lies within ``tol``."""
    reps = []  # [start, end, holonomy, count]
    for sc in connections:
        for rep in reps:
            if rep[:2] == [sc.start, sc.end] and abs(rep[2] - sc.holonomy) <= tol:
                rep[3] += 1
                break
        else:
            reps.append([sc.start, sc.end, sc.holonomy, 1])
    counts = {}
    for rep in reps:
        counts[rep[3]] = counts.get(rep[3], 0) + 1
    return counts


class TestExactHolonomy:
    @pytest.mark.parametrize(
        "proto,slit",
        [((1, 0, 1, 0), None), ((2, 1, 1, -1), None), ((1, 0, 1, 1), 0.25 + 0.125j)],
    )
    def test_key_evaluates_to_holonomy(self, swap_zeros, proto, slit):
        # From z1 (the lattice corners) a connection ends at a copy of the slit
        # endpoint t; on the relabelled copy it starts there and ends at a corner.
        p = TripleProto(*proto)
        t = default_slit(p) if slit is None else slit
        s = build_slit_triple(p, t)
        R = 12.0
        root = math.sqrt(p.D)
        for surface, sign in ((s, 1), (swap_zeros(s), -1)):
            connections = enumerate_sc(surface, R)
            assert connections
            for c in connections:
                A, B, C, E = _decode(c.exact)
                if p.D == 9:
                    assert B == E == 0  # sqrt(9) is folded in
                value = complex(A + B * root, C + E * root) / 2 + sign * t
                assert abs(value - c.holonomy) <= 1e-12 * R, c

    @pytest.mark.parametrize(
        "proto,slit",
        [
            ((1, 0, 1, 0), 0.05),
            ((1, 0, 1, 0), 0.3),
            ((2, 1, 1, -1), 0.05),
            ((2, 1, 1, -1), 0.3),
            ((2, 1, 1, -2), 0.05),
            ((2, 1, 1, -2), 0.3),
            ((1, 0, 1, 1), 0.25 + 0.125j),
            ((1, 0, 1, 1), 0.05),
            ((1, 0, 1, 1), 0.3),
            ((1, 0, 2, 0), 0.05),
            ((1, 0, 2, 0), 0.3),
        ],
    )
    def test_grouping_matches_pairwise_float_oracle(self, proto, slit):
        # D = 8, 17, 20 and the square D = 9 and 16; a float slit is a
        # fraction of the systole estimate.
        p = TripleProto(*proto)
        t = slit if isinstance(slit, complex) else default_slit(p, slit)
        R = 8.0
        connections = enumerate_sc(build_slit_triple(p, t), R)
        counts = {}
        for fam in group_families(connections, 1e-9 * R):
            counts[fam.multiplicity] = counts.get(fam.multiplicity, 0) + 1
        assert counts == _naive_family_counts(connections, 1e-9 * R)
        assert 3 in counts
