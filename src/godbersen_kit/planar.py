"""Area- and centroid-preserving vertex removal for polygons.

A vertex x2 of a centered polygon slides parallel to the chord joining its
neighbours (u = x3 - x1) without changing the area; the admissible range
[alpha, beta] ends where the slid vertex hits the lines through the two
adjacent edges, at which point one vertex is absorbed and the count drops
by one.  Recentering by the centroid shift -theta*t*u keeps the centroid at
the origin.  Because all vertices move along one direction, the area of the
join hull((1-lam)K_t, -lam*K_t) is convex in t, so its maximum over the
range sits at an endpoint; stepping to that endpoint never decreases the
join area.  Iterating reaches a triangle, which witnesses the planar bound
checked by verify_planar_gfr.
"""

import functools
import math
from dataclasses import dataclass

from .errors import DegenerateInput, NotCentered, TooFewVertices
from .polytopes import (
    centroid,
    convex_hull,
    polytope_to_json,
    scaled_reflected_join,
    translate,
    volume,
)
from .reports import CheckReport
from .scalars import EXACT, FLOAT_EPS, as_scalar, rationalize, scalar_to_json
from .simplexes import simplex_hull_ratio

ENDPOINT_CAP_FACTOR = 10 ** 6


def _require_polygon(P):
    if P.dim != 2:
        raise DegenerateInput("planar reduction needs a 2-dimensional polytope")


def _coordinate_scale(P):
    return max((abs(c) for v in P.vertices for c in v), default=1) or 1


def _require_centered(P):
    c = centroid(P)
    if P.mode == EXACT:
        if any(x != 0 for x in c):
            raise NotCentered("polygon centroid must be the origin")
    else:
        scale = float(_coordinate_scale(P))
        if any(abs(float(x)) > 1e-9 * scale for x in c):
            raise NotCentered("polygon centroid must be the origin")


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def ccw_vertices(P):
    """Vertices of a polygon in counterclockwise order around its centroid.

    The cycle starts at the lexicographically smallest vertex, making the
    indexing deterministic.  All vertex-index arguments in this module refer
    to positions in this cycle.
    """
    _require_polygon(P)
    c = centroid(P)
    rel = [(_sub(v, c), v) for v in P.vertices]

    def half(w):
        return 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1

    def cmp(a, b):
        ha, hb = half(a[0]), half(b[0])
        if ha != hb:
            return -1 if ha < hb else 1
        cr = _cross(a[0], b[0])
        if cr > 0:
            return -1
        if cr < 0:
            return 1
        return 0

    ordered = [v for _, v in sorted(((w, v) for w, v in rel), key=functools.cmp_to_key(
        lambda p, q: cmp(p, q)))]
    start = min(range(len(ordered)), key=lambda i: ordered[i])
    return ordered[start:] + ordered[:start]


def _line_parameter(p, u, q1, q2):
    """t with p + t*u on the line through q1 and q2 (None when parallel)."""
    w = _sub(q2, q1)
    denom = _cross(w, u)
    if denom == 0:
        return None
    return -_cross(w, _sub(p, q1)) / denom


def _diameter_sq(verts):
    """Squared diameter of a vertex list."""
    diam_sq = 0
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            d = _sub(verts[i], verts[j])
            diam_sq = max(diam_sq, _dot(d, d))
    return diam_sq


def _endpoint_cap(diam_sq, u, mode):
    """Parameter-space cap corresponding to 1e6 diameters of motion."""
    ratio = math.sqrt(float(diam_sq) / float(_dot(u, u)))
    cap = ENDPOINT_CAP_FACTOR * max(ratio, 1.0)
    if mode == EXACT:
        return rationalize(cap)
    return cap


def _cycle(K):
    """The ccw cycle of a polygon with at least 4 vertices."""
    cyc = ccw_vertices(K)
    if len(cyc) < 4:
        raise TooFewVertices("vertex removal needs at least 4 vertices")
    return cyc


def _interval(cyc, i2, diam_sq, mode):
    """slide_interval on a ccw cycle whose squared diameter is diam_sq."""
    n = len(cyc)
    x1, x2, x3 = cyc[i2 - 1], cyc[i2], cyc[(i2 + 1) % n]
    x4, xN = cyc[(i2 + 2) % n], cyc[i2 - 2]
    u = _sub(x3, x1)
    cap = _endpoint_cap(diam_sq, u, mode)
    alpha = _line_parameter(x2, u, xN, x1)
    beta = _line_parameter(x2, u, x3, x4)
    alpha_flagged = alpha is None or alpha < -cap
    beta_flagged = beta is None or beta > cap
    if alpha_flagged:
        alpha = -cap
    if beta_flagged:
        beta = cap
    if not alpha < 0 < beta:
        raise DegenerateInput(
            "slide endpoints did not straddle 0; polygon is not in convex position")
    return alpha, beta, alpha_flagged, beta_flagged


def slide_interval(K, vertex_index):
    """(alpha, beta, alpha_flagged, beta_flagged) for sliding one vertex.

    alpha < 0 < beta are the parameters where the slid vertex meets the
    lines through the two adjacent edges.  A flagged endpoint means the
    intersection was missing or beyond the cap (near-parallel degeneracy,
    possible only through float roundoff) and was clamped.
    """
    cyc = _cycle(K)
    return _interval(cyc, vertex_index % len(cyc), _diameter_sq(cyc), K.mode)


def _slide_vertices(cyc, i2, t):
    x1, x3 = cyc[i2 - 1], cyc[(i2 + 1) % len(cyc)]
    u = _sub(x3, x1)
    x2 = cyc[i2]
    p = (x2[0] + t * u[0], x2[1] + t * u[1])
    verts = list(cyc)
    verts[i2] = p
    return verts, u, p


def _recentered(vertices, theta, t, u, mode):
    shift = (-theta * t * u[0], -theta * t * u[1])
    moved = [(v[0] + shift[0], v[1] + shift[1]) for v in vertices]
    return convex_hull(moved, mode), shift


def _theta(cyc, i2, area):
    x1, x2, x3 = cyc[i2 - 1], cyc[i2], cyc[(i2 + 1) % len(cyc)]
    tri_twice = _cross(_sub(x2, x1), _sub(x3, x1))
    if tri_twice < 0:
        tri_twice = -tri_twice
    return tri_twice / (6 * area)


def slide_vertex(K, vertex_index, t):
    """The recentered polygon with one vertex slid by t along its chord.

    Valid for t within slide_interval; preserves area and centroid there.
    """
    _require_polygon(K)
    _require_centered(K)
    cyc = _cycle(K)
    i2 = vertex_index % len(cyc)
    area = volume(K)
    verts, u, _ = _slide_vertices(cyc, i2, t)
    theta = _theta(cyc, i2, area)
    P, _ = _recentered(verts, theta, t, u, K.mode)
    return P


@dataclass(frozen=True)
class ReductionStep:
    """One vertex removal: the polygon before and after, the slide range,
    the endpoint chosen (larger join area; ties take alpha), and the
    recentering shift.  Flagged steps had a clamped endpoint and carry no
    guarantees; they are excluded from sweeps."""

    before: object
    after: object
    t_endpoints: tuple
    chosen_t: object
    objective_before: object
    objective_after: object
    shift: tuple
    vertex_index: int
    endpoint: str
    flagged: bool

    def to_json_dict(self):
        return {
            "before": polytope_to_json(self.before),
            "after": polytope_to_json(self.after),
            "t_endpoints": [scalar_to_json(self.t_endpoints[0]),
                            scalar_to_json(self.t_endpoints[1])],
            "chosen_t": scalar_to_json(self.chosen_t),
            "objective_before": scalar_to_json(self.objective_before),
            "objective_after": scalar_to_json(self.objective_after),
            "shift": [scalar_to_json(self.shift[0]), scalar_to_json(self.shift[1])],
            "vertex_index": self.vertex_index,
            "endpoint": self.endpoint,
            "flagged": self.flagged,
        }


def _objective(P, lam):
    return volume(scaled_reflected_join(P, lam))


def _absorbed_endpoint_vertices(cyc, i2, t, endpoint):
    """Vertex list at an endpoint with the absorbed vertex deleted
    symbolically: the slid vertex lands on a neighbouring edge line, making
    one of the three collinear points redundant."""
    n = len(cyc)
    verts, u, p = _slide_vertices(cyc, i2, t)
    if endpoint == "alpha":
        x1, xN = cyc[i2 - 1], cyc[i2 - 2]
        # x1 lies between xN and the slid vertex: drop x1; otherwise the
        # slid vertex landed on the edge itself and is the redundant one
        if _dot(_sub(x1, xN), _sub(p, x1)) >= 0:
            drop = (i2 - 1) % n
        else:
            drop = i2
    else:
        x3, x4 = cyc[(i2 + 1) % n], cyc[(i2 + 2) % n]
        if _dot(_sub(x4, x3), _sub(x3, p)) >= 0:
            drop = (i2 + 1) % n
        else:
            drop = i2
    return [v for i, v in enumerate(verts) if i != drop], u


def remove_vertex_step(K, lam, vertex_index):
    """Slide one vertex to the endpoint with the larger join area and
    absorb the collinear vertex there, recentering to keep the centroid at
    the origin.  Area is preserved and the join area never decreases."""
    _require_polygon(K)
    _require_centered(K)
    cyc = _cycle(K)
    return _step(K, cyc, _diameter_sq(cyc), lam, vertex_index % len(cyc))


def _step(K, cyc, diam_sq, lam, i2):
    """remove_vertex_step on the ccw cycle of K, whose squared diameter is
    diam_sq."""
    lam = as_scalar(lam, K.mode)
    alpha, beta, a_flag, b_flag = _interval(cyc, i2, diam_sq, K.mode)
    area = volume(K)
    theta = _theta(cyc, i2, area)
    obj_before = _objective(K, lam)

    candidates = []
    for endpoint, t, flagged in (("alpha", alpha, a_flag), ("beta", beta, b_flag)):
        if flagged:
            verts, u, _ = _slide_vertices(cyc, i2, t)
        else:
            verts, u = _absorbed_endpoint_vertices(cyc, i2, t, endpoint)
        after, shift = _recentered(verts, theta, t, u, K.mode)
        candidates.append((endpoint, t, flagged, after, shift, _objective(after, lam)))

    best = candidates[0]
    if not candidates[0][2] and not candidates[1][2]:
        if candidates[1][5] > candidates[0][5]:
            best = candidates[1]
    elif candidates[0][2]:
        best = candidates[1]
    endpoint, t, flagged, after, shift, obj_after = best
    return ReductionStep(
        before=K,
        after=after,
        t_endpoints=(alpha, beta),
        chosen_t=t,
        objective_before=obj_before,
        objective_after=obj_after,
        shift=shift,
        vertex_index=i2,
        endpoint=endpoint,
        flagged=flagged or (a_flag and b_flag),
    )


def reduce_to_triangle(K, lam):
    """Remove vertices one by one until a triangle remains.

    The polygon is recentered at its centroid first.  Each round removes
    the vertex with the smallest slide range |alpha| + |beta| (ties take
    the first in the ccw cycle); the cycle and its diameter are computed
    once per round.  Returns the list of steps; a triangle input gives an
    empty list.  The join-area objective is non-decreasing along the chain.
    """
    _require_polygon(K)
    c = centroid(K)
    P = translate(K, tuple(-x for x in c)) if any(x != 0 for x in c) else K
    steps = []
    while len(P.vertices) > 3:
        _require_centered(P)
        cyc = ccw_vertices(P)
        diam_sq = _diameter_sq(cyc)
        usable = []
        for i in range(len(cyc)):
            alpha, beta, a_flag, b_flag = _interval(cyc, i, diam_sq, P.mode)
            if a_flag and b_flag:
                continue
            usable.append((-alpha + beta, i))
        if not usable:
            raise DegenerateInput("every slide endpoint was degenerate")
        step = _step(P, cyc, diam_sq, lam, min(usable)[1])
        steps.append(step)
        P = step.after
    return steps


def verify_planar_gfr(K, lam):
    """Check the planar bound: after centering at the centroid, the join
    area is at most the centered-triangle value at equal area."""
    _require_polygon(K)
    c = centroid(K)
    P = translate(K, tuple(-x for x in c)) if any(x != 0 for x in c) else K
    lam = as_scalar(lam, P.mode)
    formula = simplex_hull_ratio(2, lam)
    area = volume(P)
    lhs = _objective(P, lam)
    rhs = formula.ratio * area
    tol = 0 if P.mode == EXACT else FLOAT_EPS * max(1.0, abs(float(rhs)))
    ratio = lhs / rhs if rhs != 0 else None
    meta = {
        "lambda": lam,
        "area": area,
        "vertex_count": len(P.vertices),
        "centroid_shift": list(c),
        "formula_k": list(formula.k),
    }
    return CheckReport(lhs, rhs, ratio, tol, bool(lhs <= rhs + tol), meta)
