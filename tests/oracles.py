"""Independent reference implementations used to cross-check the kernel.

Everything here is deliberately naive: exhaustive scans and solves instead of
incremental geometry, Monte-Carlo instead of triangulation.  Slow is fine;
sharing code with the implementation under test is not.  The common-scale
kernel is the reference for the package's kernel on per-point weights: the
same triangulation, on one common denominator with a plane solve per facet.

The last section is different: checks of the paper's statements that only
tests run (sections, slices, the KL homothety, the body K_t), built on the
package's own hulls.
"""

import itertools
import math

import numpy as np

from godbersen_kit.linalg import RankTracker, dot, hyperplane_through, solve, vsub
from godbersen_kit.errors import DegenerateInput, EmptyIntersection, GodbersenKitError
from godbersen_kit.polytopes import (
    Facet,
    HPolytope,
    VPolytope,
    convex_hull,
    gauge,
    to_vrep,
    volume,
)
from godbersen_kit.reports import comparison_report
from godbersen_kit.rs_bodies import _zero
from godbersen_kit.scalars import rational, read_exact
from godbersen_kit.simplexes import _admissible_k


def brute_force_facet_planes_3d(points):
    """All supporting planes through point triples, canonicalized.

    The points are scaled to integers on one common denominator D, so each
    triple's normal is an integer cross product.  A triple's plane supports
    the hull when every point sits on one side of it.  Returns a sorted set
    of (normal, offset) with primitive integer normals, in the points' own
    coordinates.
    """
    D = math.lcm(*(rational(c).denominator for p in points for c in p))
    ints = [tuple(int(c * D) for c in p) for p in points]
    planes = set()
    for a, b, c in itertools.combinations(ints, 3):
        u = [x - y for x, y in zip(b, a)]
        v = [x - y for x, y in zip(c, a)]
        normal = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                  u[0] * v[1] - u[1] * v[0])
        if not any(normal):
            continue
        n0, n1, n2 = normal
        offset = n0 * a[0] + n1 * a[1] + n2 * a[2]
        sides = [n0 * x + n1 * y + n2 * z - offset for x, y, z in ints]
        if any(s > 0 for s in sides):
            if any(s < 0 for s in sides):
                continue
            normal, offset = tuple(-x for x in normal), -offset
        g = math.gcd(*normal)
        planes.add((tuple(rational(x // g) for x in normal), rational(offset, g * D)))
    return sorted(planes)


def brute_force_extreme_points(points):
    """Extreme points of a full-dimensional set of distinct 3-d points: a
    point is a vertex exactly when the normals of the supporting planes of
    :func:`brute_force_facet_planes_3d` through it have rank 3.  Each plane
    holds at least three points, so every facet of the hull is one of them."""
    planes = brute_force_facet_planes_3d(points)
    return sorted(p for p in points if _fraction_rank(n for n, o in planes if dot(n, p) == o) == 3)


def _primitive_plane(normal, offset):
    """Scale a rational plane by a positive rational so that its normal is a
    primitive integer vector."""
    denom_lcm = math.lcm(*(int(x.denominator) for x in normal))
    g = math.gcd(*(int(x * denom_lcm) for x in normal))
    scale = rational(denom_lcm, g)
    return tuple(x * scale for x in normal), offset * scale


# ---------------------------------------------------------------------------
# reference exact hull: beneath-beyond over Fractions


def fraction_det(matrix):
    """Determinant by Gaussian elimination over rationals."""
    m = [list(row) for row in matrix]
    n = len(m)
    result = rational(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return rational(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            result = -result
        pivot = m[col][col]
        result *= pivot
        for r in range(col + 1, n):
            factor = m[r][col] / pivot
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return result


def _fraction_rank(vectors):
    rows = []
    for vector in vectors:
        v = list(vector)
        for row, pc in rows:
            if v[pc] != 0:
                factor = v[pc] / row[pc]
                v = [a - factor * b for a, b in zip(v, row)]
        pc = next((c for c, a in enumerate(v) if a != 0), None)
        if pc is not None:
            rows.append((v, pc))
    return len(rows)


def _fraction_plane(points):
    d = len(points[0])
    edges = [vsub(p, points[0]) for p in points[1:]]
    normal = tuple(
        (-1) ** j * fraction_det([[row[c] for c in range(d) if c != j] for row in edges])
        for j in range(d)
    )
    if all(c == 0 for c in normal):
        raise DegenerateInput("points do not span a hyperplane")
    return normal, dot(normal, points[0])


def reference_convex_hull(points):
    """Exact hull by beneath-beyond insertion with every quantity a Fraction.

    The same algorithm and conventions as ``polytopes.convex_hull``:
    lexicographically sorted distinct points, the first affinely
    independent d+1 of them as the starting simplex, its vertex centroid as
    the interior reference point, coplanar simplices grouped by their
    primitive integer plane, and volume and centroid fanned from the
    interior point.  Raises DegenerateInput for a flat point set.
    """
    pts = sorted({tuple(read_exact(c) for c in p) for p in points})
    d = len(pts[0])
    if len(pts) < d + 1:
        raise DegenerateInput("need at least d+1 distinct points")
    basis = [0]
    for i in range(1, len(pts)):
        if _fraction_rank(vsub(pts[j], pts[0]) for j in basis[1:] + [i]) == len(basis):
            basis.append(i)
            if len(basis) == d + 1:
                break
    else:
        raise DegenerateInput("points span a lower-dimensional affine subspace")
    interior = tuple(sum(pts[i][c] for i in basis) / (d + 1) for c in range(d))

    def plane(verts):
        normal, offset = _fraction_plane([pts[i] for i in verts])
        side = dot(normal, interior) - offset
        if side == 0:
            raise DegenerateInput("facet plane passes through the interior reference point")
        if side > 0:
            normal, offset = tuple(-c for c in normal), -offset
        return normal, offset

    facets = {}
    for skip in range(d + 1):
        verts = tuple(b for j, b in enumerate(basis) if j != skip)
        facets[verts] = plane(verts)
    for idx, p in enumerate(pts):
        if idx in basis:
            continue
        visible = [v for v, (n, o) in facets.items() if dot(n, p) - o > 0]
        ridges = {}
        for verts in visible:
            del facets[verts]
            for skip in range(d):
                ridge = verts[:skip] + verts[skip + 1 :]
                ridges[ridge] = ridges.get(ridge, 0) + 1
        for ridge, count in ridges.items():
            if count == 1:
                verts = tuple(sorted(ridge + (idx,)))
                facets[verts] = plane(verts)

    planes = sorted({_primitive_plane(n, o) for n, o in facets.values()})
    vertices = sorted(
        p for p in pts
        if _fraction_rank(n for n, o in planes if dot(n, p) == o) == d
    )
    hull_facets = tuple(Facet(n, o) for n, o in planes)
    total = rational(0)
    weighted = [rational(0)] * d
    for verts in facets:
        vol = abs(fraction_det([vsub(pts[v], interior) for v in verts])) / math.factorial(d)
        total += vol
        for c in range(d):
            weighted[c] += vol * (interior[c] + sum(pts[v][c] for v in verts)) / (d + 1)
    if total == 0:
        raise DegenerateInput("zero-volume hull")
    return VPolytope(d, (tuple(vertices), hull_facets), total,
                     tuple(w / total for w in weighted))


# ---------------------------------------------------------------------------
# reference integer kernel: one common scale, one cofactor plane per facet


def common_scale_triangulate(points):
    """``polytopes.triangulate`` as it ran on one common denominator.

    Every point is scaled by S = (d+1) * lcm(all denominators), and every
    facet plane, not only the first simplex's, comes from the cofactors of
    ``hyperplane_through``, made primitive and oriented by the interior
    point.  Points are inserted in the kernel's order: the lexicographically
    smallest first, then the others by decreasing squared distance from
    their own mean, on the fixed-point ints (y << 32) // S, which are the
    kernel's (X << 32) // w; ties stay in lexicographic order.  Returns the
    same (ints, scale, interior, simplices).
    """
    d = len(points[0])
    ratios = [[c.as_integer_ratio() for c in p] for p in points]
    scale = (d + 1) * math.lcm(*(q for r in ratios for _, q in r))
    ints = [tuple(n * (scale // q) for n, q in r) for r in ratios]
    first = {}
    for i, y in enumerate(ints):
        first.setdefault(y, i)
    pts = sorted(first)
    fixed = {y: [(c << 32) // scale for c in y] for y in pts[1:]}
    mean = [sum(col) // len(fixed) for col in zip(*fixed.values())]
    pts[1:] = sorted(pts[1:], key=lambda y: -sum((a - b) ** 2 for a, b in zip(fixed[y], mean)))
    if len(pts) < d + 1:
        raise DegenerateInput("need at least d+1 distinct points")
    tracker = RankTracker()
    basis = [0]
    for i in range(1, len(pts)):
        if tracker.add(vsub(pts[i], pts[0])):
            basis.append(i)
            if len(basis) == d + 1:
                break
    else:
        raise DegenerateInput("points span a lower-dimensional affine subspace")
    interior = tuple(sum(pts[i][c] for i in basis) // (d + 1) for c in range(d))

    def plane(verts):
        normal, offset = hyperplane_through([pts[i] for i in verts])
        g = math.gcd(*normal)
        normal, offset = tuple(c // g for c in normal), offset // g
        if dot(normal, interior) > offset:
            normal, offset = tuple(-c for c in normal), -offset
        return verts, normal, offset

    facets = [plane(tuple(b for j, b in enumerate(basis) if j != skip))
              for skip in range(d + 1)]
    for idx, p in enumerate(pts):
        if idx in basis:
            continue
        visible = [f for f in facets if dot(f[1], p) > f[2]]
        if not visible:
            continue
        ridges = {}
        for verts, _, _ in visible:
            for skip in range(d):
                ridge = verts[:skip] + verts[skip + 1 :]
                ridges[ridge] = ridges.get(ridge, 0) + 1
        facets = [f for f in facets if not dot(f[1], p) > f[2]]
        facets += [plane(tuple(sorted(ridge + (idx,))))
                   for ridge, count in ridges.items() if count == 1]
    row = [first[y] for y in pts]
    return ints, scale, interior, [(tuple(row[v] for v in verts), normal, offset)
                                   for verts, normal, offset in facets]


def monte_carlo_volume(P, n_samples=1_000_000, seed=0):
    """Rejection sampling in the bounding box; returns (estimate, stderr)."""
    rng = np.random.default_rng(seed)
    verts = np.array(P.vertices, dtype=float)
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    box_vol = float(np.prod(hi - lo))
    samples = rng.uniform(lo, hi, size=(n_samples, len(lo)))
    normals = np.array([f.outward_normal for f in P.facets], dtype=float)
    offsets = np.array([f.offset for f in P.facets], dtype=float)
    inside = np.all(samples @ normals.T <= offsets + 1e-12, axis=1)
    p = inside.mean()
    est = p * box_vol
    stderr = box_vol * float(np.sqrt(p * (1 - p) / n_samples))
    return est, stderr


def lp_vertex_enumeration(halfspaces, dim):
    """Vertices of an H-polytope by solving every d-subset of equalities.

    Exact mode only.  A candidate counts when its linear system is solvable
    and it satisfies every half-space.
    """
    verts = set()
    for subset in itertools.combinations(range(len(halfspaces)), dim):
        mat = [list(halfspaces[i][0]) for i in subset]
        rhs = [halfspaces[i][1] for i in subset]
        try:
            x = solve(mat, rhs)
        except DegenerateInput:
            continue
        if all(dot(n, x) <= b for n, b in halfspaces):
            verts.add(tuple(x))
    return sorted(verts)


def random_exact_points(rng, m, dim, denom=64, span=2):
    """Deterministic rational points with small denominators."""
    return [
        tuple(rational(rng.randint(-span * denom, span * denom), denom) for _ in range(dim))
        for _ in range(m)
    ]


def brute_force_lambda_difference(f_axes, f_vals, g_axes, g_vals, lam, out_axes):
    """Exhaustive pair search for the discrete sup-convolution.

    For every pair of sample points (u, v) the combination
    z = (1-lam)^2 u - lam^2 v is binned to the nearest output cell and the
    product f(u)^(1-lam) * g(v)^lam recorded; each output cell keeps its max.
    Plain Python loops on purpose.
    """
    n = len(f_axes)
    out_shape = tuple(len(a) for a in out_axes)
    out = np.zeros(out_shape)
    steps = [a[1] - a[0] if len(a) > 1 else 1.0 for a in out_axes]
    f_points = list(itertools.product(*[range(len(a)) for a in f_axes]))
    g_points = list(itertools.product(*[range(len(a)) for a in g_axes]))
    c1 = (1.0 - lam) ** 2
    c2 = lam ** 2
    for iu in f_points:
        fu = float(f_vals[iu])
        if fu <= 0.0:
            continue
        for iv in g_points:
            gv = float(g_vals[iv])
            if gv <= 0.0:
                continue
            idx = []
            ok = True
            for k in range(n):
                z = c1 * f_axes[k][iu[k]] - c2 * g_axes[k][iv[k]]
                j = int(round((z - out_axes[k][0]) / steps[k]))
                if j < 0 or j >= out_shape[k]:
                    ok = False
                    break
                idx.append(j)
            if not ok:
                continue
            val = fu ** (1.0 - lam) * gv ** lam
            idx = tuple(idx)
            if val > out[idx]:
                out[idx] = val
    return out


def unmerged_joint_dual_nodes(slope_sets, cap):
    """Dual nodes as every distinct float slope, rounding copies included,
    subsampled evenly to at most ``cap``."""
    nonempty = [s for s in slope_sets if s.size]
    if not nonempty:
        return np.zeros(1)
    u = np.unique(np.concatenate(nonempty))
    if len(u) > cap:
        idx = np.unique(np.linspace(0, len(u) - 1, cap).round().astype(int))
        u = u[idx]
    return u

# ---------------------------------------------------------------------------
# statements the package checks only in tests: axis sections and slices,
# the KL homothety at equality, and the joined two-simplex body K_t


class EmptySection(GodbersenKitError):
    """A slice of a polytope by an affine subspace came out empty."""


def _section(P, axes, fixed, message):
    """P cut by the coordinates ``fixed`` ((index, value) pairs), as an
    HPolytope in the chart of ``axes``.  A facet parallel to the cut either
    contains it, and is dropped, or excludes it: EmptySection(message)."""
    halfspaces = []
    for f in P.facets:
        normal = tuple(f.outward_normal[i] for i in axes)
        offset = f.offset - sum(f.outward_normal[i] * value for i, value in fixed)
        if not any(normal):
            if offset < 0:
                raise EmptySection(message)
            continue
        halfspaces.append((normal, offset))
    return HPolytope(len(axes), tuple(halfspaces))


def slice_of_C(C, theta):
    """The height-theta slice of the joined body, as an n-dim polytope in
    the chart that drops the height coordinate."""
    n = C.dim - 1
    theta = read_exact(theta)
    H = _section(C, range(n), ((n, theta),), "slice height outside the body")
    try:
        return to_vrep(H)
    except EmptyIntersection:
        raise EmptySection("slice is empty")


def section_projection_check(P, axes, point=None):
    """Section-projection inequality for an axis-aligned subspace.

    E = {x : x_i = point_i for i not in axes}; H = P cap E measured in the
    axes chart, the projection drops the axes coordinates.  Checks
    j!(n-j)!/n! * Vol_j(H) * Vol_{n-j}(proj) <= Vol_n(P).
    """
    n = P.dim
    axes = tuple(sorted(axes))
    j = len(axes)
    if not 1 <= j <= n - 1:
        raise ValueError("need a proper nontrivial coordinate subspace")
    if point is None:
        point = _zero(n)
    other = tuple(i for i in range(n) if i not in axes)

    H = _section(P, axes, tuple((i, point[i]) for i in other), "subspace misses the polytope")
    flat_section = False
    try:
        section = to_vrep(H)
        vol_section = volume(section)
    except EmptyIntersection:
        raise EmptySection("subspace misses the polytope")
    except DegenerateInput:
        flat_section = True
        vol_section = rational(0)

    proj_pts = [tuple(v[i] for i in other) for v in P.vertices]
    projection = convex_hull(proj_pts)
    factor = rational(math.factorial(j) * math.factorial(n - j), math.factorial(n))
    lhs = factor * vol_section * volume(projection)
    rhs = volume(P)
    meta = {
        "n": n,
        "axes": list(axes),
        "section_volume": vol_section,
        "projection_volume": volume(projection),
        "flat_section": flat_section,
        "equality_attained": bool(lhs == rhs),
    }
    return comparison_report(lhs, rhs, meta=meta)


def homothety_support_identity(K, L, theta, directions):
    """At equality in the KL bound the bodies are homothets,
    L = (theta/(1-theta)) K, so gauge_L(u) = ((1-theta)/theta) gauge_K(u)
    in every direction u (both None, +infinity, when u leaves both
    recession cones).  Returns (all_hold, samples), a sample being
    (u, gauge_K(u), gauge_L(u))."""
    theta = read_exact(theta)
    factor = (1 - theta) / theta
    samples = []
    ok = True
    for u in directions:
        hk = gauge(K, u)
        hl = gauge(L, u)
        if hk is None or hl is None:
            match = hk is None and hl is None
        else:
            match = hl == factor * hk
        samples.append((tuple(u), hk, hl))
        ok = ok and match
    return ok, samples


def kt_ambient_vertices(n, t):
    """Vertex data of the joined body in the ambient space, one dimension up.

    Returns (simplex_vertices, reflected_vertices): e_1..e_{n+1} and
    v_j = (1+t)a - t e_j, all on the hyperplane of coordinate sum 1.
    """
    t = read_exact(t)
    es = [
        tuple(rational(1 if i == j else 0) for j in range(n + 1)) for i in range(n + 1)
    ]
    a = tuple(rational(1, n + 1) for _ in range(n + 1))
    vs = [
        tuple((1 + t) * a[c] - t * es[j][c] for c in range(n + 1)) for j in range(n + 1)
    ]
    return es, vs


def kt_facet_direction(n, k, t):
    """The direction certifying the generic facet with k simplex vertices:
    k entries of -t, then n-k ones, then (1+t)k - n."""
    t = read_exact(t)
    return tuple(
        [-t] * k + [rational(1)] * (n - k) + [(1 + t) * k - n]
    )


def build_Kt(n, t):
    """Hull of a simplex and its reflected t-scaled copy, as an exact
    n-polytope in the affine chart that drops the last ambient coordinate.

    The chart sends e_j -> e_j (j <= n) and e_{n+1} -> 0; volume ratios
    against the chart simplex are chart-invariant.
    """
    t = read_exact(t)
    if not (rational(1, n) <= t <= 1):
        raise ValueError("t must lie in [1/n, 1]")
    es, vs = kt_ambient_vertices(n, t)
    chart_points = [p[:n] for p in es] + [v[:n] for v in vs]
    return convex_hull(chart_points)


def chart_simplex(n):
    """Image of the ambient simplex under the same chart: conv{0, e_1..e_n}."""
    pts = [tuple(rational(1 if i == j else 0) for j in range(n)) for i in range(n)]
    pts.append(tuple(rational(0) for _ in range(n)))
    return convex_hull(pts)


def kt_volume_ratio_formula(n, t):
    """C(n,k) t^(n-k) with k admissible for t: (n+1)/(1+t) - 1 <= k <= (n+1)/(1+t)."""
    t = read_exact(t)
    ks = _admissible_k(n, rational(n + 1) / (1 + t))
    ratios = [rational(math.comb(n, k)) * t ** (n - k) for k in ks]
    for r in ratios[1:]:
        assert r == ratios[0], "tie expressions must coincide"
    return ks, ratios[0]
