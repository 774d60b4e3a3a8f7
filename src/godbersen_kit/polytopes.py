"""Polytope kernel: hulls, volumes, Minkowski sums, intersections, polars.

Bounded convex polytopes in dimension 1..6, in exact rational arithmetic.
The hull is an incremental beneath-beyond insertion; all downstream
quantities (volume, centroid, facet structure) fall out of the same
boundary triangulation.  The integer kernel, its volume fan and the polar
chains run on rows (X, w), ints over each point's own denominator (see
:func:`point_row`), so no common denominator is formed: a fan cone's
volume is an int over its own vertices' denominators (:func:`fan_total`).
The volume is computed with the hull; vertices, facets and centroid only
when read.
:func:`triangulate` is the kernel's one entry, for hulls, the Cayley mixed
volumes and the translation search's float probes alike.

Conventions:

* a point is a tuple of Fractions; a float coordinate given to
  :func:`convex_hull` (or read from float polytope JSON) is read at its
  exact binary value, a dyadic rational;
* ``VPolytope.vertices`` is lexicographically sorted and contains extreme
  points only, so equality of polytopes is equality of representations;
* facet half-spaces are ``<x, outward_normal> <= offset``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import (
    DegenerateInput,
    EmptyIntersection,
    OriginNotContained,
    OriginNotInterior,
    Unbounded,
)
from .linalg import RankTracker, det, dot, hyperplane_through, vadd, vscale
from .lp import feasible_interior
from .scalars import EXACT, bit_size, rational, read_exact, scalar_to_json

MAX_DIM = 6


def _check_dim(d):
    if not 1 <= d <= MAX_DIM:
        raise ValueError("dimension %d outside supported range 1..%d" % (d, MAX_DIM))


@dataclass(frozen=True)
class Facet:
    """One facet's supporting half-space <x, outward_normal> <= offset."""

    outward_normal: tuple
    offset: object


class VPolytope:
    """Canonical vertex representation of a full-dimensional polytope.

    Construct through :func:`convex_hull` (or the serialization helpers);
    the constructor trusts its arguments.  ``reps`` = (vertices, facets)
    and ``centroid`` are values or functions computing them on first read.
    """

    __slots__ = ("dim", "_reps", "_volume", "_cent")
    mode = EXACT  # every body is exact

    def __init__(self, dim, reps, volume, centroid):
        self.dim = dim
        self._reps = reps
        self._volume = volume
        self._cent = centroid

    vertices = property(lambda self: self._read("_reps")[0])
    facets = property(lambda self: self._read("_reps")[1])
    _centroid = property(lambda self: self._read("_cent"))

    def _read(self, slot):
        if callable(getattr(self, slot)):
            setattr(self, slot, getattr(self, slot)())
        return getattr(self, slot)

    def __eq__(self, other):
        return (
            isinstance(other, VPolytope)
            and self.dim == other.dim
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.dim, self.vertices))

    def __repr__(self):
        return "VPolytope(dim=%d, %d vertices, %d facets)" % (
            self.dim,
            len(self.vertices),
            len(self.facets),
        )


@dataclass(frozen=True)
class HPolytope:
    """Half-space representation ``<x, normal> <= offset`` per entry.

    ``empty`` marks an infeasible system; ``full_dim`` distinguishes flat
    (measure-zero) intersections from solid ones.  ``interior_point`` is a
    strictly interior witness when one is known.
    """

    dim: int
    halfspaces: tuple
    interior_point: tuple = None
    empty: bool = False
    full_dim: bool = True


# ---------------------------------------------------------------------------
# hull construction


def point_row(p):
    """The point p as its kernel row (X, w): w is the lcm of its own
    coordinates' denominators and X = p * w, as ints, so equal points have
    equal rows.  Coordinates are read through ``as_integer_ratio()``, so a
    float enters at its exact binary value."""
    ratios = [c.as_integer_ratio() for c in p]
    w = math.lcm(*(q for _, q in ratios))
    return tuple(n * (w // q) for n, q in ratios), w


def _reduced(X, w):
    g = math.gcd(*X, w)
    return tuple(x // g for x in X), w // g


def sum_rows(A, B):
    """The rows of the pairwise sums of the points of two lists of rows."""
    return [_reduced([x1 * w2 + x2 * w1 for x1, x2 in zip(X1, X2)], w1 * w2)
            for X1, w1 in A for X2, w2 in B]


def _affine_basis(hpts, d):
    """Indices of d+1 affinely independent points, or None.  Points are
    affinely independent exactly when their (X, w) are linearly independent,
    so the greedy choice is the one the differences p_i - p_0 would make."""
    tracker = RankTracker()
    chosen = []
    for i, (X, w) in enumerate(hpts):
        if tracker.add(X + (w,)):
            chosen.append(i)
            if len(chosen) == d + 1:
                return chosen
    return None


def _simplex_planes(hpts, basis):
    """(vertex indices, N, O) of each facet of the basis simplex, in the
    order of the vertex it leaves out, facing away from that vertex."""
    common = math.lcm(*(hpts[i][1] for i in basis))
    ys = {i: tuple(c * (common // hpts[i][1]) for c in hpts[i][0]) for i in basis}
    planes = []
    for opposite in basis:
        verts = tuple(i for i in basis if i != opposite)
        # normal . (common * x) = offset on the facet.
        normal, offset = hyperplane_through([ys[i] for i in verts])
        normal = tuple(c * common for c in normal)
        g = math.gcd(*normal, offset)
        normal, offset = tuple(c // g for c in normal), offset // g
        X, w = hpts[opposite]
        if dot(normal, X) > offset * w:
            normal, offset = tuple(-c for c in normal), -offset
        planes.append((verts, normal, offset))
    return planes


def _hull_core(hpts):
    """Beneath-beyond insertion on distinct homogeneous points (X, w).

    Returns (basis, simplices): the indices of the first simplex, and
    simplicial facets (sorted vertex indices, N, O) that triangulate the
    boundary.  A plane is a primitive integer (N, O), and a point lies
    beyond it when h(p) = N.X - O w > 0.  Points on the current boundary
    are skipped (they cannot be extreme for the full set).

    Only the first simplex's planes are solved for.  A facet that a new
    point p raises over a horizon ridge, between the visible facet pi1 and
    its hidden neighbour pi2, is the pencil h1(p) pi2 - h2(p) pi1 (the
    hyperplane rotation of gift wrapping): it vanishes on the ridge and at
    p, and since h1(p) > 0 >= h2(p) it is negative inside.
    """
    d = len(hpts[0][0]) if hpts else 0
    if len(hpts) < d + 1:
        raise DegenerateInput("need at least d+1 distinct points")
    basis = _affine_basis(hpts, d)
    if basis is None:
        raise DegenerateInput("points span a lower-dimensional affine subspace")

    facets = {}
    ridges = {}  # ridge (d-1 sorted vertex indices) -> the two facets on it
    next_id = 0

    def add(verts, normal, offset):
        nonlocal next_id
        facets[next_id] = (verts, normal, offset)
        for skip in range(d):
            ridges.setdefault(verts[:skip] + verts[skip + 1 :], []).append(next_id)
        next_id += 1

    for plane in _simplex_planes(hpts, basis):
        add(*plane)

    in_simplex = set(basis)
    for idx, (X, w) in enumerate(hpts):
        if idx in in_simplex:
            continue
        visible = {}
        for fid, (_, normal, offset) in facets.items():
            h = dot(normal, X) - offset * w
            if h > 0:
                visible[fid] = h
        if not visible:
            continue
        raised = []
        for fid, h1 in visible.items():
            verts, n1, o1 = facets[fid]
            for skip in range(d):
                ridge = verts[:skip] + verts[skip + 1 :]
                a, b = ridges[ridge]
                other = b if a == fid else a
                if other in visible:
                    continue
                _, n2, o2 = facets[other]
                h2 = dot(n2, X) - o2 * w
                normal = tuple(h1 * c2 - h2 * c1 for c1, c2 in zip(n1, n2))
                offset = h1 * o2 - h2 * o1
                g = math.gcd(*normal, offset)
                raised.append((tuple(sorted(ridge + (idx,))),
                               tuple(c // g for c in normal), offset // g))
        for fid in visible:
            verts = facets.pop(fid)[0]
            for skip in range(d):
                ridge = verts[:skip] + verts[skip + 1 :]
                owners = ridges[ridge]
                owners.remove(fid)
                if not owners:
                    del ridges[ridge]
        for plane in raised:
            add(*plane)

    return basis, list(facets.values())


_row_key = functools.cmp_to_key(lambda a, b: next(
    (x * b[1] - y * a[1] for x, y in zip(a[0], b[0]) if x * b[1] != y * a[1]), 0))


def _lex_sorted(indices, rows):
    """``indices`` in the lexicographic order of their rows' points.  The
    first coordinate to 64 binary places, an int, decides most comparisons;
    only ties in it compare the rows themselves, on cross products."""
    return sorted(indices, key=lambda i: ((rows[i][0][0] << 64) // rows[i][1], _row_key(rows[i])))


def triangulate(rows):
    """The integer kernel's triangulation of the boundary of the hull of
    the points whose :func:`point_row` are ``rows`` (see :func:`_hull_core`).

    Returns (basis, simplices): basis holds the indices of the first
    simplex, basis[0] the lexicographically smallest point, which is a
    vertex; each simplex is (vertex indices into ``rows``, N, O), the
    primitive integer plane N.x = O of its facet with N facing out.  The
    first of equal rows stands for all of them.  Raises DegenerateInput
    when the points span less than their dimension.
    """
    first = {row: i for i, row in reversed(list(enumerate(rows)))}  # row -> its first index
    order = _lex_sorted(first.values(), rows)
    # The smallest point first, the rest far first (fewer transient facets): by decreasing
    # squared distance from their mean on the ints (X << 32) // w, ties lexicographic.
    fixed = {i: [(x << 32) // rows[i][1] for x in rows[i][0]] for i in order[1:]}
    mean = [sum(col) // len(fixed) for col in zip(*fixed.values())]
    order[1:] = sorted(order[1:], key=lambda i: -sum((a - b) ** 2 for a, b in zip(fixed[i], mean)))
    basis, simplices = _hull_core([rows[i] for i in order])
    return [order[i] for i in basis], [
        (tuple(order[i] for i in verts), normal, offset) for verts, normal, offset in simplices]


def boundary_fan(hpts, apex, simplices):
    """The boundary simplices coned to the vertex ``apex``, skipping the
    cones through it, on each point's own (X, w).

    The edge from the apex to a point v is m[v] (p_v - p_apex) as ints, over
    the pair's own denominator m[v] = lcm(w_v, w_apex): the homogeneous rows
    (w, X) with the apex row eliminated once per point.  Returns (m, cones):
    each cone is (vertex indices, |D|) with D the determinant of its d
    edges, so that its volume is |D| / (d! prod(m[v])) (see
    :func:`fan_total`)."""
    used = {apex, *(v for verts, _, _ in simplices for v in verts)}
    Xa, wa = hpts[apex]
    m = {v: math.lcm(hpts[v][1], wa) for v in used}
    edges = {v: tuple(x * (m[v] // hpts[v][1]) - y * (m[v] // wa) for x, y in zip(hpts[v][0], Xa))
             for v in used}
    cones = [(verts, abs(det([edges[v] for v in verts])))
             for verts, _, _ in simplices if apex not in verts]
    return m, cones


def fan_total(m, cones):
    """The sum of the cones' D / prod(m[v]) as one Fraction: d! times the
    volume of a :func:`boundary_fan`.

    Every m[v] is first divided by g, their gcd, whose d-th power goes back
    into the denominator.  The sorted cones are then summed depth first in
    a balanced binary tree whose node (a, S) stands for a / prod(m[v] for v
    in S): a merge multiplies each side's numerator by the m[v] of the
    vertices only the other side has, and no gcd is taken before the root."""
    if not cones:
        return rational(0)
    g = math.gcd(*m.values())
    m = {v: mv // g for v, mv in m.items()}
    cones = sorted(cones)

    def node(lo, hi):
        if hi - lo == 1:
            return cones[lo][1], set(cones[lo][0])
        (a, S), (b, T) = node(lo, (lo + hi) // 2), node((lo + hi) // 2, hi)
        return a * math.prod(m[v] for v in T - S) + b * math.prod(m[v] for v in S - T), S | T

    total, S = node(0, len(cones))
    return rational(total, g ** len(cones[0][0]) * math.prod(m[v] for v in S))


def fan_volume(fan, d):
    """Volume of a d-dimensional :func:`boundary_fan`, its :func:`fan_total`
    over d!."""
    return fan_total(*fan) / math.factorial(d)


def _fan_centroid(hpts, apex, fan):
    """Volume centroid of a :func:`boundary_fan`: the t-weighted mean of the
    cones' vertex means, on the points scaled to L, the lcm of the fan's m,
    where a cone's t = |D| prod(L / m[v]) is d! L^d times its volume."""
    m, cones = fan
    d = len(hpts[apex][0])
    scale = math.lcm(*m.values())
    ys = {v: tuple(c * (scale // hpts[v][1]) for c in hpts[v][0]) for v in m}  # L p, as ints
    ts = [(D * math.prod(scale // m[v] for v in verts), verts) for verts, D in cones]
    total = sum(t for t, _ in ts)
    return tuple(rational(sum(t * sum(ys[v][c] for v in verts) for t, verts in ts)
                          + total * ys[apex][c], total * scale * (d + 1)) for c in range(d))


def _hull_finish(rows, simplices):
    """The hull's vertices, sorted rational points, and its facets, one
    sorted Facet per plane n.x <= O / g, where g = gcd(N) and n = N / g.

    The kernel's primitive plane (N, O) is canonical per facet, so two
    simplices are coplanar exactly when their planes are equal; each plane
    is one facet, and every vertex of a facet is a vertex of the simplices
    on its plane.  A point is therefore extreme when the normals of the
    facets whose simplices use it reach rank d.
    """
    d = len(rows[0][0])
    planes = {}
    for verts, normal, offset in simplices:
        planes.setdefault((normal, offset), set()).update(verts)
    normals = {}
    for (normal, _), members in planes.items():
        for v in members:
            normals.setdefault(v, []).append(normal)

    vertices = []
    for v in _lex_sorted(normals, rows):
        tracker = RankTracker()
        for n in normals[v]:
            if tracker.add(n) and tracker.rank == d:
                vertices.append(tuple(rational(x, rows[v][1]) for x in rows[v][0]))
                break
    facets = sorted((tuple(c // g for c in normal), offset, g)
                    for normal, offset in planes for g in [math.gcd(*normal)])
    return tuple(vertices), tuple(
        Facet(tuple(rational(c) for c in n), rational(o, g)) for n, o, g in facets)


def _hull(rows):
    """The canonical hull of the points of ``rows``."""
    basis, simplices = triangulate(rows)
    fan = boundary_fan(rows, basis[0], simplices)
    d = len(rows[0][0])
    return VPolytope(d, functools.partial(_hull_finish, rows, simplices), fan_volume(fan, d),
                     functools.partial(_fan_centroid, rows, basis[0], fan))


def convex_hull(points):
    """Canonical hull of the given points (each a sequence of scalars).

    Coordinates are read exactly, a float at its binary value.  Raises
    DegenerateInput when the points span less than the ambient
    dimension.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        raise DegenerateInput("no points")
    d = len(pts[0])
    _check_dim(d)
    if any(len(p) != d for p in pts):
        raise ValueError("points of mixed dimension")
    return _hull([point_row([read_exact(c) for c in p]) for p in pts])


# ---------------------------------------------------------------------------
# basic queries


def volume(P):
    """Lebesgue volume, exact."""
    return P._volume


def centroid(P):
    """Volume centroid, computed from the same fan as volume() when first
    read, and kept."""
    return P._centroid


def support(P, u):
    """Support value max_v <v,u> over the vertex list."""
    return max(dot(v, u) for v in P.vertices)


def contains_point(P, x, *, strict=False):
    for f in P.facets:
        slack = f.offset - dot(f.outward_normal, x)
        if slack < 0 or strict and slack == 0:
            return False
    return True


def contains_polytope(P, Q):
    """True iff every vertex of Q, a VPolytope or an HPolytope, lies in P.
    Each facet of P is read as an integer normal n with offset a/b, so the
    test b (n.X) <= a w runs on the rows (X, w) of Q's vertices."""
    planes = []
    for f in P.facets:
        normal, q = point_row(f.outward_normal)
        planes.append((normal, *(f.offset * q).as_integer_ratio()))
    rows = _vertex_rows(Q) if isinstance(Q, HPolytope) else map(point_row, Q.vertices)
    return all(b * dot(normal, X) <= a * w for X, w in rows for normal, a, b in planes)


def gauge(P, u):
    """Minkowski gauge inf{r > 0 : u in rP}; requires 0 in P.

    Returns None for +infinity (u outside the recession cone of the
    vertex-at-origin case).
    """
    if not contains_point(P, (0,) * P.dim):
        raise OriginNotContained("gauge needs 0 inside the body")
    best = rational(0)
    for f in P.facets:
        num = dot(f.outward_normal, u)
        if f.offset > 0:
            best = max(best, num / f.offset)
        elif num > 0:  # 0 sits on this facet
            return None
    return best


def coordinate_bits(P):
    """Max numerator/denominator bit length over all vertex coordinates."""
    return max(bit_size(c) for v in P.vertices for c in v)


# ---------------------------------------------------------------------------
# affine operations (translations and scalings move the stored fields)


def translate(P, t):
    t = tuple(read_exact(c) for c in t)
    vertices = tuple(vadd(v, t) for v in P.vertices)
    facets = tuple(Facet(f.outward_normal, f.offset + dot(f.outward_normal, t)) for f in P.facets)
    return VPolytope(P.dim, (vertices, facets), P._volume, lambda: vadd(P._centroid, t))


def scale_polytope(P, s):
    """sP: vertices and offsets scale by s, and s < 0 also flips the normals,
    so both lists are sorted again."""
    s = read_exact(s)
    if s == 0:
        raise ValueError("scale factor must be nonzero; a point is not a polytope")
    planes = sorted((tuple(c if s > 0 else -c for c in f.outward_normal), f.offset * abs(s))
                    for f in P.facets)
    return VPolytope(P.dim, (tuple(sorted(vscale(v, s) for v in P.vertices)),
                             tuple(Facet(*plane) for plane in planes)),
                     P._volume * abs(s) ** P.dim, lambda: vscale(P._centroid, s))


def negate(P):
    """The reflection -P."""
    return scale_polytope(P, -1)


def minkowski_sum(P, Q):
    """Hull of all pairwise vertex sums."""
    if P.dim != Q.dim:
        raise ValueError("operands must share dimension")
    return _hull(sum_rows([point_row(v) for v in P.vertices], [point_row(w) for w in Q.vertices]))


def convex_hull_union(P, Q):
    """Hull of the union (the join P v Q)."""
    if P.dim != Q.dim:
        raise ValueError("operands must share dimension")
    return convex_hull(list(P.vertices) + list(Q.vertices))


def scaled_reflected_join(K, lam):
    """Hull of (1-lam)K and -lam*K for lam in [0,1], endpoints included."""
    lam = read_exact(lam)
    if lam == 0:
        return K
    if lam == 1:
        return negate(K)
    return convex_hull([vscale(v, s) for s in (1 - lam, -lam) for v in K.vertices])


# ---------------------------------------------------------------------------
# representation conversion


def to_hrep(P):
    return HPolytope(P.dim, tuple((f.outward_normal, f.offset) for f in P.facets))


def _interior_of(H):
    if H.interior_point is not None:
        return H.interior_point
    margin, x = feasible_interior([h[0] for h in H.halfspaces],
                                  [h[1] for h in H.halfspaces], H.dim)
    if margin is None:
        raise EmptyIntersection("no feasible point")
    if not margin > 0:
        raise DegenerateInput("feasible set is lower-dimensional")
    return x


def to_vrep(H):
    """The canonical hull of H's vertices (see :func:`_vertex_rows`)."""
    return _hull(_vertex_rows(H))


def _polar_rows(halfspaces, z, error):
    """Rows of the polar points a / (b - a.z) of the half-spaces a.x <= b
    seen from z, or ``error`` unless z is strictly inside: with a = A/alpha,
    b = p/q and z = Z/zeta, the row of A q zeta / (p alpha zeta - q A.Z)."""
    (Z, zeta), rows = point_row(z), []
    for normal, offset in halfspaces:
        (A, alpha), (p, q) = point_row(normal), offset.as_integer_ratio()
        w = p * alpha * zeta - q * dot(A, Z)
        if not w > 0:
            raise error
        rows.append(_reduced([a * q * zeta for a in A], w))
    return rows


def _dual_rows(rows, z):
    """Rows of the vertices dual to the facets of the hull of the polar
    rows around z: a facet's primitive plane (N, O), O > 0, is the row of
    the vertex N/O, shifted by z."""
    try:
        planes = dict.fromkeys((normal, offset) for _, normal, offset in triangulate(rows)[1])
    except DegenerateInput:
        raise Unbounded("half-space normals do not span the space; recession cone nontrivial")
    if not all(offset > 0 for _, offset in planes):
        raise Unbounded("recession cone nontrivial")
    return sum_rows(planes, [point_row(z)]) if any(z) else list(planes)


def _vertex_rows(H):
    """Rows of H's vertices, by the polar trick around an interior point."""
    if H.empty:
        raise EmptyIntersection("H-polytope is flagged empty")
    z = _interior_of(H)
    error = DegenerateInput("declared interior point is not strictly interior")
    return _dual_rows(_polar_rows(H.halfspaces, z, error), z)


def intersect(*hpolys):
    """Intersection of H-polytopes, with a strictly interior point when solid.

    Never raises for empty or flat inputs: the flags on the returned
    HPolytope carry that information.
    """
    dims = {h.dim for h in hpolys}
    if len(dims) != 1:
        raise ValueError("operands must share dimension")
    dim = dims.pop()
    halfspaces = tuple(hs for h in hpolys for hs in h.halfspaces)
    margin, x = feasible_interior([h[0] for h in halfspaces], [h[1] for h in halfspaces], dim)
    if margin is None:
        return HPolytope(dim, halfspaces, None, empty=True, full_dim=False)
    if not margin > 0:
        return HPolytope(dim, halfspaces, None, empty=False, full_dim=False)
    return HPolytope(dim, halfspaces, interior_point=x)


def polar(P):
    """Polar dual, swapping representations.

    VPolytope -> HPolytope with half-spaces <x, v> <= 1; HPolytope ->
    VPolytope with vertices normal/offset.  Requires 0 strictly interior.
    """
    origin = (rational(0),) * P.dim
    if isinstance(P, VPolytope):
        if not contains_point(P, origin, strict=True):
            raise OriginNotInterior("polar needs 0 in the interior")
        return HPolytope(P.dim, tuple((v, rational(1)) for v in P.vertices),
                         interior_point=origin)
    error = OriginNotInterior("polar needs 0 in the interior (an offset is <= 0)")
    return _hull(_polar_rows(P.halfspaces, origin, error))


def polar_body(P):
    """Polar of a VPolytope as a canonical VPolytope (facets -> vertices)."""
    return polar(to_hrep(P))


def polar_sum_polar(K, L):
    """(K° + L°)° for 0 interior to K and L: the vertices of K° and L° are
    the rows of their facets' n/o, and the planes of the hull of their
    pairwise sums give the vertices of the result."""
    origin, error = (0,) * K.dim, OriginNotInterior("polar needs 0 in the interior")
    polars = [_polar_rows(to_hrep(P).halfspaces, origin, error) for P in (K, L)]
    return _hull(_dual_rows(sum_rows(*polars), origin))


# ---------------------------------------------------------------------------
# serialization


def polytope_to_json(P):
    return {
        "dim": P.dim,
        "mode": P.mode,
        "vertices": [[scalar_to_json(c) for c in v] for v in P.vertices],
    }


def polytope_from_json(obj):
    """The exact body of polytope JSON: fraction strings in ``"exact"``
    mode, floats in ``"float"`` mode, each read at its exact value (see
    :func:`convex_hull`)."""
    dim = int(obj["dim"])
    _check_dim(dim)
    if obj["mode"] not in (EXACT, "float"):
        raise ValueError("bad mode %r" % obj["mode"])
    if any(len(v) != dim for v in obj["vertices"]):
        raise ValueError("vertex length disagrees with dim")
    return convex_hull(obj["vertices"])


# ---------------------------------------------------------------------------
# stock bodies


def standard_simplex(n):
    """conv{0, e_1, ..., e_n}."""
    return convex_hull([(0,) * n] + [tuple(int(i == j) for j in range(n)) for i in range(n)])


def centered_simplex(n):
    """standard_simplex translated so its centroid is the origin."""
    S = standard_simplex(n)
    return translate(S, tuple(-c for c in centroid(S)))


def cube(n, *, low=0, high=1):
    return convex_hull([tuple(high if mask >> i & 1 else low for i in range(n))
                        for mask in range(1 << n)])


def cross_polytope(n):
    return convex_hull([tuple(s if j == i else 0 for j in range(n))
                        for i in range(n) for s in (1, -1)])
