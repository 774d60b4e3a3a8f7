"""Area- and centroid-preserving vertex removal for exact polygons.

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

The argument is exact, and so is every function here: a polygon that is
not in exact mode raises ValueError.
"""

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
from .scalars import EXACT, exact_scalar, scalar_to_json
from .simplexes import simplex_hull_ratio


def _require_polygon(P):
    if P.dim != 2:
        raise DegenerateInput("planar reduction needs a 2-dimensional polytope")
    if P.mode != EXACT:
        raise ValueError("planar reduction takes exact-mode polygons only")


def _require_centered(P):
    if any(x != 0 for x in centroid(P)):
        raise NotCentered("polygon centroid must be the origin")


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def ccw_vertices(P):
    """Vertices of a polygon in counterclockwise order.

    The cycle starts at the lexicographically smallest vertex, making the
    indexing deterministic.  All vertex-index arguments in this module refer
    to positions in this cycle.  The chord from the first sorted vertex to
    the last splits the rest into the lower chain, in order, and the upper
    chain, reversed (Andrew's monotone chain).
    """
    _require_polygon(P)
    first, last = P.vertices[0], P.vertices[-1]
    chord = _sub(last, first)
    lower, upper = [], []
    for v in P.vertices[1:-1]:
        (lower if _cross(chord, _sub(v, first)) < 0 else upper).append(v)
    return [first] + lower + [last] + upper[::-1]


def _line_parameter(p, u, q1, q2):
    """t with p + t*u on the line through q1 and q2 (None when parallel)."""
    w = _sub(q2, q1)
    denom = _cross(w, u)
    if denom == 0:
        return None
    return -_cross(w, _sub(p, q1)) / denom


def _cycle(K):
    """The ccw cycle of a polygon with at least 4 vertices."""
    cyc = ccw_vertices(K)
    if len(cyc) < 4:
        raise TooFewVertices("vertex removal needs at least 4 vertices")
    return cyc


def _interval(cyc, i2):
    """slide_interval on a ccw cycle."""
    n = len(cyc)
    x1, x2, x3 = cyc[i2 - 1], cyc[i2], cyc[(i2 + 1) % n]
    x4, xN = cyc[(i2 + 2) % n], cyc[i2 - 2]
    u = _sub(x3, x1)
    alpha = _line_parameter(x2, u, xN, x1)
    beta = _line_parameter(x2, u, x3, x4)
    if alpha is None or beta is None or not alpha < 0 < beta:
        raise DegenerateInput(
            "slide endpoints did not straddle 0; polygon is not in convex position")
    return alpha, beta


def slide_interval(K, vertex_index):
    """(alpha, beta) for sliding one vertex.

    alpha < 0 < beta are the parameters where the slid vertex meets the
    lines through the two adjacent edges.  An edge line parallel to the
    chord makes three vertices collinear and raises DegenerateInput.
    """
    cyc = _cycle(K)
    return _interval(cyc, vertex_index % len(cyc))


def _slide_vertices(cyc, i2, t):
    x1, x3 = cyc[i2 - 1], cyc[(i2 + 1) % len(cyc)]
    u = _sub(x3, x1)
    x2 = cyc[i2]
    p = (x2[0] + t * u[0], x2[1] + t * u[1])
    verts = list(cyc)
    verts[i2] = p
    return verts, u, p


def _recentered(vertices, theta, t, u):
    shift = (-theta * t * u[0], -theta * t * u[1])
    moved = [(v[0] + shift[0], v[1] + shift[1]) for v in vertices]
    return convex_hull(moved, EXACT), shift


def _theta(cyc, i2, area):
    x1, x2, x3 = cyc[i2 - 1], cyc[i2], cyc[(i2 + 1) % len(cyc)]
    return abs(_cross(_sub(x2, x1), _sub(x3, x1))) / (6 * area)


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
    P, _ = _recentered(verts, theta, t, u)
    return P


@dataclass(frozen=True)
class ReductionStep:
    """One vertex removal: the polygon before and after, the slide range,
    the endpoint chosen (larger join area; ties take alpha), and the
    recentering shift."""

    before: object
    after: object
    t_endpoints: tuple
    chosen_t: object
    objective_before: object
    objective_after: object
    shift: tuple
    vertex_index: int
    endpoint: str

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
    return _step(K, cyc, lam, vertex_index % len(cyc))


def _step(K, cyc, lam, i2):
    """remove_vertex_step on the ccw cycle of K."""
    lam = exact_scalar(lam)
    alpha, beta = _interval(cyc, i2)
    area = volume(K)
    theta = _theta(cyc, i2, area)
    obj_before = _objective(K, lam)

    candidates = []
    for endpoint, t in (("alpha", alpha), ("beta", beta)):
        verts, u = _absorbed_endpoint_vertices(cyc, i2, t, endpoint)
        after, shift = _recentered(verts, theta, t, u)
        candidates.append((endpoint, t, after, shift, _objective(after, lam)))

    best = candidates[1] if candidates[1][4] > candidates[0][4] else candidates[0]
    endpoint, t, after, shift, obj_after = best
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
    )


def reduce_to_triangle(K, lam):
    """Remove vertices one by one until a triangle remains.

    The polygon is recentered at its centroid first.  Each round removes
    the vertex with the smallest slide range beta - alpha (ties take the
    first in the ccw cycle); the cycle is computed once per round.  Returns
    the list of steps; a triangle input gives an empty list.  The join-area
    objective is non-decreasing along the chain.
    """
    _require_polygon(K)
    c = centroid(K)
    P = translate(K, tuple(-x for x in c)) if any(x != 0 for x in c) else K
    steps = []
    while len(P.vertices) > 3:
        _require_centered(P)
        cyc = ccw_vertices(P)
        widths = []
        for i in range(len(cyc)):
            alpha, beta = _interval(cyc, i)
            widths.append((beta - alpha, i))
        step = _step(P, cyc, lam, min(widths)[1])
        steps.append(step)
        P = step.after
    return steps


def verify_planar_gfr(K, lam):
    """Check the planar bound: after centering at the centroid, the join
    area is at most the centered-triangle value at equal area."""
    _require_polygon(K)
    c = centroid(K)
    P = translate(K, tuple(-x for x in c)) if any(x != 0 for x in c) else K
    lam = exact_scalar(lam)
    formula = simplex_hull_ratio(2, lam)
    area = volume(P)
    lhs = _objective(P, lam)
    rhs = formula.ratio * area
    ratio = lhs / rhs if rhs != 0 else None
    meta = {
        "lambda": lam,
        "area": area,
        "vertex_count": len(P.vertices),
        "centroid_shift": list(c),
        "formula_k": list(formula.k),
    }
    return CheckReport(lhs, rhs, ratio, 0, bool(lhs <= rhs), meta)
