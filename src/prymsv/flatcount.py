"""Slit-tori surfaces and empirical saddle-connection counting.

This is the one module that works in double precision: it builds the
triple-of-tori translation surface with a short slit (three flat tori
cyclically reglued along a slit of holonomy ``t``), enumerates the saddle
connections from one cone point z1 to the other, z2, up to a radius by
developing triangles into the plane, groups them into families of equal
holonomy, and turns the family counts into empirical Siegel-Veech constants
``c_k = N_k(R) * Area / (pi R^2)``.  The development carries each position
exactly too, as an integer combination of the periods, and the families are
decided on those integers alone.

The surface: one square torus C/lambda(Z+iZ) and two copies of
C/(aZ + (b+id)Z), each slit along the same segment of holonomy ``t`` based at
the marked point, with the slit sides reglued cyclically across the three
tori.  The result has genus 3 and two cone points of angle 6*pi; the three
copies of the slit form a family of three saddle connections sharing endpoints
and holonomy.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InvalidRadius, InvalidSlit
from .prototypes import TripleProto

Edge = tuple[int, int]  # (triangle index, edge index 0..2)

#: Relative tolerance of :meth:`FlatSurface.check` on edge vectors and area.
_CHECK_RTOL = 1e-9
#: The least basis coordinate the slit may have: a smaller one would leave a
#: fan triangle of area below about 1e-12 of its parallelogram.
_BASIS_EPS = 1e-12
#: Base of the packed exact positions: the int ``A + B*K + C*K**2 + E*K**3``
#: with signed digits ``|A|, |B|, |C|, |E| < K/2`` is ``((A + B*sqrt(D)) +
#: i*(C + E*sqrt(D))) / 2``.  ``+`` and ``-`` act digit by digit.
_KEY = 1 << 32


def _cross(z: complex, w: complex) -> float:
    return z.real * w.imag - z.imag * w.real


class SaddleConnection(NamedTuple):
    start: int  # cone point class id
    end: int
    holonomy: complex
    exact: int  # the holonomy minus its multiple of t, packed (see _KEY)

    @property
    def length(self) -> float:
        return abs(self.holonomy)

    def sort_key(self) -> tuple:
        """(length, angle, holonomy, exact key): only equal records of one list tie."""
        h = self.holonomy
        return (abs(h), cmath.phase(h), h.real, h.imag, self.exact)


@dataclass
class FlatSurface:
    """A triangulated translation surface.

    ``triangles[t]`` are the three vertex coordinates of triangle ``t`` in its
    own chart; edge ``(t, i)`` runs from vertex ``i`` to vertex ``(i+1) % 3``.
    ``glue`` is the orientation-reversing involution on directed edges (glued
    edges carry opposite vectors), and every identification is a translation.
    ``exact[t]`` are the same three vertices exactly, each minus its multiple
    of the slit ``t``, packed as described at ``_KEY``.  ``vertex_class`` and
    ``cone_angles`` are always derived from the triangles and the gluing.
    """

    triangles: list[tuple[complex, complex, complex]]
    glue: dict[Edge, Edge]
    area_exact: float
    exact: list[tuple[int, int, int]]
    vertex_class: dict[Edge, int] = field(init=False)
    cone_angles: dict[int, float] = field(init=False)

    def __post_init__(self) -> None:
        self._classify_vertices()

    # -- structure -----------------------------------------------------------

    def edge_vector(self, edge: Edge) -> complex:
        t, i = edge
        tri = self.triangles[t]
        return tri[(i + 1) % 3] - tri[i]

    def corner_angle(self, t: int, i: int) -> float:
        tri = self.triangles[t]
        u = tri[(i + 1) % 3] - tri[i]
        v = tri[(i + 2) % 3] - tri[i]
        return math.atan2(_cross(u, v), (u * v.conjugate()).real)

    @property
    def area(self) -> float:
        return sum(
            _cross(tri[1] - tri[0], tri[2] - tri[0]) / 2 for tri in self.triangles
        )

    def _classify_vertices(self) -> None:
        # Walk each vertex star: from corner (t, i), crossing the outgoing
        # edge (t, i) lands on the corner at the glued edge's endpoint.
        classes: dict[Edge, int] = {}
        angles: dict[int, float] = {}
        next_id = 0
        for t in range(len(self.triangles)):
            for i in range(3):
                if (t, i) in classes:
                    continue
                cid = next_id
                next_id += 1
                total = 0.0
                cur = (t, i)
                while cur not in classes:
                    classes[cur] = cid
                    total += self.corner_angle(*cur)
                    t2, e2 = self.glue[cur]
                    cur = (t2, (e2 + 1) % 3)
                angles[cid] = total
        self.vertex_class = classes
        self.cone_angles = angles

    def zeros(self) -> list[int]:
        """Class ids of the cone points (total angle away from 2*pi)."""
        return sorted(
            cid
            for cid, ang in self.cone_angles.items()
            if abs(ang - 2 * math.pi) > 1e-9
        )

    def check(self) -> None:
        """Check the structural invariants; raises ValueError on the first failure.

        Every edge is finite and every triangle counter-clockwise, the gluing
        is an involution pairing edges with opposite vectors, every cone angle
        is a multiple of 2*pi, and the area matches ``area_exact``.  A
        triangle's edges sum to zero within the slack unless one is non-finite.
        """

        def require(ok: bool, what: str) -> None:
            if not ok:
                raise ValueError(what)

        slack = _CHECK_RTOL * max(abs(v) for tri in self.triangles for v in tri)
        for t, tri in enumerate(self.triangles):
            require(
                abs(sum(self.edge_vector((t, i)) for i in range(3))) <= slack,
                f"triangle {t} has a non-finite edge",
            )
            require(_cross(tri[1] - tri[0], tri[2] - tri[0]) > 0, f"triangle {t} not ccw")
        for edge, other in self.glue.items():
            require(self.glue[other] == edge, f"gluing is not an involution at {edge}")
            require(
                abs(self.edge_vector(edge) + self.edge_vector(other)) <= slack,
                f"glued edges {edge}, {other} must carry opposite vectors",
            )
        excess = 0.0
        for cid, ang in self.cone_angles.items():
            k = round(ang / (2 * math.pi))
            require(
                abs(ang - 2 * math.pi * k) <= 1e-9 * max(1.0, ang),
                f"vertex class {cid} has angle {ang}, not a multiple of 2*pi",
            )
            excess += ang - 2 * math.pi
        genus_term = round(excess / (2 * math.pi)) + 2  # 2g - 2 + 2
        require(
            abs(excess - 2 * math.pi * (genus_term - 2)) <= 1e-9,
            f"angle excess {excess} is not a multiple of 2*pi",
        )
        require(
            abs(self.area - self.area_exact) <= _CHECK_RTOL * self.area_exact,
            f"area {self.area} differs from {self.area_exact}",
        )


# ---------------------------------------------------------------------------
# Construction.
# ---------------------------------------------------------------------------


def _quarter_turns(u: complex, v: complex, t: complex) -> int:
    """How many turns ``(u, v) -> (v, -u)`` of the positively oriented lattice
    basis put ``t`` inside the open parallelogram it spans."""
    det = _cross(u, v)
    alpha = _cross(t, v) / det
    beta = _cross(u, t) / det
    if max(abs(alpha), abs(beta)) <= _BASIS_EPS:
        raise InvalidSlit(f"slit {t} is too short for the lattice of {u} and {v}")
    if abs(alpha) <= _BASIS_EPS or abs(beta) <= _BASIS_EPS:
        raise InvalidSlit(f"slit direction {t} is (nearly) parallel to a lattice generator")
    if max(abs(alpha), abs(beta)) >= 1:
        raise InvalidSlit(f"slit {t} is outside the parallelogram of {u} and {v}")
    if alpha > 0:
        return 0 if beta > 0 else 3
    return 1 if beta > 0 else 2


def lambda_float(D: int, e: int) -> float:
    """The eigenvalue ``lambda = (e + sqrt(D)) / 2`` in floating point."""
    return e / 2 + 0.5 * math.sqrt(D)


def systole_estimate(p: TripleProto) -> float:
    """An upper estimate of the shortest lattice vector: the shortest of ``lambda``
    and ``m*a + n*(b + id)`` with ``|m|, |n| <= 2``.  A skewed basis has shorter
    ones: 14.65 against 3.16 for (100, 33, 1, 1) at D = 801."""
    lam = lambda_float(p.D, p.e)
    shortest = lam
    u, v = complex(p.a), complex(p.b, p.d)
    for m in range(-2, 3):
        for n in range(-2, 3):
            if m == n == 0:
                continue
            shortest = min(shortest, abs(m * u + n * v))
    return shortest


def default_slit(p: TripleProto, frac: float = 0.05) -> complex:
    """A generic short slit: direction ``(1/pi, 1/e)``, length ``frac * systole``."""
    direction = complex(1 / math.pi, 1 / math.e)
    return direction / abs(direction) * (frac * systole_estimate(p))


def build_slit_triple(p: TripleProto, t: complex) -> FlatSurface:
    """Build the cyclically-slit triple-of-tori surface for prototype ``p``.

    Each torus is triangulated by a fan of four triangles from the slit
    endpoint ``R = t`` inside a fundamental parallelogram with the other slit
    endpoint ``L = 0`` at its corner; the doubled slit edge of torus ``j`` is
    reglued to torus ``j + 1 (mod 3)``.  Area is ``lambda^2 + 2ad``.  A slit
    that is not finite, at least half :func:`systole_estimate` long, or too
    short, too long or (nearly) parallel for one of the three lattices raises
    ``InvalidSlit``.  The surface is returned only after
    :meth:`FlatSurface.check` has passed.
    """
    lam = lambda_float(p.D, p.e)
    # Packed lambda: (A, B) = (e, 1), or (e + r, 0) at a square D = r^2, where
    # sqrt(D) is folded in so that B = E = 0 and one rule is exact for every D.
    r = math.isqrt(p.D)
    klam = p.e + (r if r * r == p.D else _KEY)
    torus = (complex(p.a), complex(p.b, p.d), 2 * p.a, 2 * p.b + 2 * p.d * _KEY**2)
    lattices = [(complex(lam), complex(0, lam), klam, klam * _KEY**2), torus, torus]
    if not cmath.isfinite(t):
        raise InvalidSlit(f"slit {t} is not finite")
    sys_len = systole_estimate(p)
    if abs(t) >= 0.5 * sys_len:
        raise InvalidSlit(f"|t| = {abs(t):.6g} >= half the systole {sys_len:.6g}")
    triangles: list[tuple[complex, complex, complex]] = []
    exact: list[tuple[int, int, int]] = []
    glue: dict[Edge, Edge] = {}

    def pair(e1: Edge, e2: Edge) -> None:  # one gluing, written in both directions
        glue[e1], glue[e2] = e2, e1

    for j, (u, v, ku, kv) in enumerate(lattices):
        for _ in range(_quarter_turns(u, v, t)):
            u, v, ku, kv = v, -u, kv, -ku
        corners = (0j, u, u + v, v)
        kcorners = (0, ku, ku + kv, kv)
        base = 4 * j
        for k in range(4):
            triangles.append((corners[k], corners[(k + 1) % 4], t))
            exact.append((kcorners[k], kcorners[(k + 1) % 4], 0))
        # Fan edges between consecutive triangles (corner -> t vs t -> corner).
        for k in range(3):
            pair((base + k, 1), (base + k + 1, 2))
        # Torus side identifications: bottom with top, right with left.
        pair((base + 0, 0), (base + 2, 0))
        pair((base + 1, 0), (base + 3, 0))
    # Slit regluing: side (t -> 0) of torus j with side (0 -> t) of torus j+1.
    for j in range(3):
        pair((4 * j + 0, 2), (4 * ((j + 1) % 3) + 3, 1))
    area = lam * lam + 2 * p.a * p.d
    surface = FlatSurface(triangles=triangles, glue=glue, area_exact=area, exact=exact)
    surface.check()
    return surface


# ---------------------------------------------------------------------------
# Saddle-connection enumeration (wedge development search).
# ---------------------------------------------------------------------------


def enumerate_sc(s: FlatSurface, R: float) -> list[SaddleConnection]:
    """The z1 -> z2 saddle connections of length <= R, one record per connection.

    Here ``z1, z2 = s.zeros()``; a surface without exactly two cone points
    raises ``ValueError``.  From every corner of every triangle at z1, the
    wedge between the two adjacent edges is developed across glued triangles
    (translations only); a developed vertex at z2 strictly inside the current
    direction sector is a saddle connection.  The wedge-boundary directions are
    exactly the triangulation edges, recorded directly.  Every z2 -> z1
    connection is the reversal of one of these, so developing from z2 too
    would find nothing new.  Beside each float offset the search carries the
    packed exact one (``s.exact``); every offset maps a vertex to a copy of
    itself, so it has no multiple of the slit.  Depth first, a sector is
    followed through every edge it crosses whole; where a vertex splits it,
    the right part is followed on and the left part stacked, so the stack
    holds only the parts left at a split.  The bound is ``R2 = R*R*(1 +
    1e-12)``.  An edge is pruned only when the squared norms of both its
    endpoints exceed R2 (the far one, b, is tested first: the new offset
    needs it anyway) and so does its squared distance from the origin; an
    edge with an endpoint within R is never pruned.  The distance is
    computed from the edge vector and ``1/|b - a|^2`` of the edge's own
    chart, which round otherwise than the offset endpoints would; but an
    edge of length L within R has its endpoints within R + L, so the square
    is off by a few ulps of ``R*(R + L)``.  Unless R is thousands of times
    shorter than the edge, that is inside the slack, and no edge within R is
    pruned.  A vertex is found when the ``hypot`` of its holonomy (``abs``,
    which is its ``length``) is at most R, so no length exceeds R.  Results
    are in the order of :meth:`SaddleConnection.sort_key`, a total order on
    records, so the list depends only on the surface and R, not on the order
    of the search.  The sort holds one float per record, not one key tuple:
    a stable sort on ``length``, the key's first field, and then each run of
    equal lengths re-sorted on the whole key.  Stable sorts compose, so the
    list is the one that sorting on ``sort_key`` gives, ties included.
    A pruning bound that is not finite (a non-finite ``R``, or one whose
    square overflows) never stops the search, so it raises ``InvalidRadius``.
    """
    R2 = R * R * (1 + 1e-12)
    if not math.isfinite(R2):
        raise InvalidRadius(f"radius must have a finite pruning bound R*R*(1 + 1e-12), got {R}")
    zeros = s.zeros()
    if len(zeros) != 2:
        raise ValueError(f"expected exactly two cone points, found {zeros}")
    if R <= 0:
        return []
    z1, z2 = zeros
    hypot = math.hypot
    triangles = s.triangles
    exact = s.exact
    vclass = s.vertex_class
    # Per directed edge 3*t + i, a hot row, read at every crossing: its far
    # endpoint b in triangle t's chart, then, across the glue, the glued
    # triangle's base vertex and far vertex (each point as two floats), the
    # rows of the two sub-edges past that vertex and the exact offset step.
    # Two rows are read only in the rare cases: the segment row (a, b - a,
    # 1/|b - a|^2) when both endpoints lie beyond R, and the split row
    # (whether the far vertex is z2, and its exact position) at a split.
    hot, seg, split = [], [], []
    for t, tri in enumerate(triangles):
        for i in range(3):
            nt, ne = s.glue[(t, i)]
            k = (ne + 2) % 3
            a, b, base, far = tri[i], tri[(i + 1) % 3], triangles[nt][ne], triangles[nt][k]
            dx, dy = b.real - a.real, b.imag - a.imag
            denom = dx * dx + dy * dy
            hot.append((
                b.real, b.imag, base.real, base.imag, far.real, far.imag,
                3 * nt + (ne + 1) % 3, 3 * nt + k, exact[t][(i + 1) % 3] - exact[nt][ne],
            ))  # fmt: skip
            seg.append((a.real, a.imag, dx, dy, 1 / denom if denom else 0.0))
            split.append((vclass[(nt, k)] == z2, exact[nt][k]))
    found: list[SaddleConnection] = []
    for t, tri in enumerate(triangles):
        ktri = exact[t]
        for i in range(3):
            if vclass[(t, i)] != z1:
                continue
            apex = tri[i]
            lo = tri[(i + 1) % 3] - apex
            hi = tri[(i + 2) % 3] - apex
            # The wedge's low boundary is the directed edge (t, i) itself.
            if abs(lo) <= R and vclass[(t, (i + 1) % 3)] == z2:
                found.append(SaddleConnection(z1, z2, lo, ktri[(i + 1) % 3] - ktri[i]))
            # Develop the wedge interior from the opposite edge.  Only the root can
            # be empty: a sub-sector is its parent or is clipped strictly inside it.
            if _cross(lo, hi) <= 0.0:
                continue
            # The stack holds only the parts left at a split.  Entry: edge
            # row, float and exact offsets, and each sector ray with 1e-12
            # times its length, the scale of its boundary band.
            stack = [(3 * t + (i + 1) % 3, -apex.real, -apex.imag, -ktri[i],
                      lo.real, lo.imag, 1e-12 * abs(lo), hi.real, hi.imag, 1e-12 * abs(hi))]
            while stack:
                e, ox, oy, koffset, lx, ly, blo, hx, hy, bhi = stack.pop()
                while True:
                    bx, by, cx, cy, fx, fy, left, right, kstep = hot[e]
                    bx, by = bx + ox, by + oy
                    if bx * bx + by * by > R2:
                        ax, ay, dx, dy, inv = seg[e]
                        ax, ay = ax + ox, ay + oy
                        if ax * ax + ay * ay > R2:
                            # Both endpoints lie beyond R: prune unless the foot
                            # of the perpendicular lies between them, within R.
                            u = -(ax * dx + ay * dy) * inv
                            if u <= 0.0 or u >= 1.0:
                                break
                            px, py = ax + u * dx, ay + u * dy
                            if px * px + py * py > R2:
                                break
                    ox, oy = bx - cx, by - cy
                    if kstep:
                        koffset += kstep
                    wx, wy = fx + ox, fy + oy
                    # A sector boundary ray always passes through an already-found
                    # vertex (a cone point), so a vertex collinear with it is not
                    # the endpoint of a new saddle connection; exclude the boundary
                    # with a relative band so round-off cannot admit it when
                    # developing from one end and drop it from the other.
                    aw = hypot(wx, wy)
                    inside_lo = lx * wy - ly * wx > blo * aw
                    inside_hi = wx * hy - wy * hx > bhi * aw
                    if inside_lo and inside_hi:
                        at_z2, kfar = split[e]
                        if at_z2:
                            # Kept on abs(), which is SaddleConnection.length:
                            # math.hypot may differ from it in the last bit.
                            w = complex(wx, wy)
                            if abs(w) <= R:
                                found.append(SaddleConnection(z1, z2, w, kfar + koffset))
                        # The sector splits at w: stack the part across the
                        # sub-edge a -> w, follow the part across w -> b.
                        bw = 1e-12 * aw
                        stack.append((left, ox, oy, koffset, lx, ly, blo, wx, wy, bw))
                        e, lx, ly, blo = right, wx, wy, bw
                    elif inside_lo or inside_hi:
                        # w is past one ray: the whole sector crosses the other sub-edge.
                        e = left if inside_lo else right
                    else:
                        break
    length = SaddleConnection.length.fget
    found.sort(key=length)
    start, run_length = 0, None
    for i, h in enumerate(itertools.chain(map(length, found), (None,))):
        if h != run_length:
            if i - start > 1:
                found[start:i] = sorted(found[start:i], key=SaddleConnection.sort_key)
            start, run_length = i, h
    return found


# ---------------------------------------------------------------------------
# Families and Siegel-Veech estimates.
# ---------------------------------------------------------------------------


class SCFamily(NamedTuple):
    start: int
    end: int
    holonomy: complex
    multiplicity: int


def group_families(
    connections: list[SaddleConnection], tol: float
) -> list[SCFamily]:
    """Group connections by their ordered endpoints and exact holonomy.

    A family is one key ``(start, end, exact)``, so the decision compares only
    ints; its holonomy is its first connection's, which in a list from
    :func:`enumerate_sc` is its least by the total order ``sort_key``.
    Families come in the order of their first connections.  Each is one dict
    entry while grouping, its first connection and a count, keyed by the
    exact holonomy the records hold (by the whole key only where an earlier
    family has that holonomy and other endpoints), so nothing is allocated
    per connection but the spread check's numbers.  ``tol`` bounds the float
    spread inside a family: a holonomy farther than ``tol`` from the first
    means the float and exact developments disagree, and raises
    ``ValueError``, as does ``tol <= 0``.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    reps: dict = {}  # exact, or (start, end, exact) -> [first connection, count]
    for sc in connections:
        key = sc.exact
        rep = reps.get(key)
        if rep is not None and (rep[0].start != sc.start or rep[0].end != sc.end):
            key = (sc.start, sc.end, key)
            rep = reps.get(key)
        if rep is None:
            reps[key] = [sc, 1]
            continue
        if abs(sc.holonomy - rep[0].holonomy) > tol:
            raise ValueError(
                f"holonomies {rep[0].holonomy} and {sc.holonomy} share exact key {sc.exact}"
            )
        rep[1] += 1
    # Each entry becomes its family in place, so the lists and the families
    # are never all held at once.
    for key, (sc, n) in reps.items():
        reps[key] = SCFamily(sc.start, sc.end, sc.holonomy, n)
    return list(reps.values())


def family_counts(s: FlatSurface, R: float) -> dict[int, int]:
    """Counts ``{multiplicity: number of families}`` of z1 -> z2 connections.

    A family is the connections of one exact holonomy (:func:`group_families`),
    whose float holonomies must agree to ``1e-9 * R``.  Raises
    ``InvalidRadius`` unless that tolerance is ``> 0``.
    """
    tol = 1e-9 * R
    if not tol > 0:
        raise InvalidRadius(f"radius must be > 0 with a family tolerance 1e-9 * R > 0, got {R}")
    counts: dict[int, int] = {}
    for fam in group_families(enumerate_sc(s, R), tol):
        counts[fam.multiplicity] = counts.get(fam.multiplicity, 0) + 1
    return counts


def count_report(s: FlatSurface, R: float) -> dict:
    """JSON-ready report with family counts and empirical constants.

    Raises ``InvalidRadius`` unless the disc area ``pi * R * R`` is ``> 0``
    and ``Area / (pi * R * R)`` is finite.
    """
    disc = math.pi * R * R
    if not disc > 0 or not math.isfinite(norm := s.area / disc):
        raise InvalidRadius(
            f"radius {R} is out of range: pi * R * R = {disc} must be > 0 "
            "and Area / (pi * R * R) finite"
        )
    counts = family_counts(s, R)
    return {
        "R": R,
        "families": {str(k): counts.get(k, 0) for k in (1, 2, 3)},
        "estimates": {
            f"c{k}": counts.get(k, 0) * norm for k in (1, 2, 3)
        },
    }
