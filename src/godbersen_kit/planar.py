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

The argument is exact, and so is every function here.
"""

from dataclasses import dataclass

from .errors import DegenerateInput, NotCentered
from .polytopes import (
    centroid,
    convex_hull,
    point_row,
    polytope_to_json,
    scaled_reflected_join,
    translate,
    volume,
)
from .reports import CheckReport
from .scalars import rational, read_exact, scalar_to_json
from .simplexes import simplex_hull_ratio


def _require_polygon(P):
    if P.dim != 2:
        raise DegenerateInput("planar reduction needs a 2-dimensional polytope")


def _require_centered(P):
    if any(x != 0 for x in centroid(P)):
        raise NotCentered("polygon centroid must be the origin")


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def ccw_vertices(P):
    """Vertices of a polygon in counterclockwise order.

    The cycle starts at the lexicographically smallest vertex, making the
    indexing deterministic.  A step's ``vertex_index`` is a position in this
    cycle.  The chord from the first sorted vertex to the last splits the
    rest into the lower chain, in order, and the upper chain, reversed
    (Andrew's monotone chain).
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
    return rational(-_cross(w, _sub(p, q1)), denom)


def _interval(cyc, i2):
    """(alpha, beta) for sliding the vertex cyc[i2] of a ccw cycle.

    alpha < 0 < beta are the parameters where the slid vertex meets the
    lines through the two adjacent edges, found on ints over the five
    points' common denominator.  An edge line parallel to the chord makes
    three vertices collinear and raises DegenerateInput.
    """
    n = len(cyc)
    X, _ = point_row([c for k in (-2, -1, 0, 1, 2) for c in cyc[(i2 + k) % n]])
    xN, x1, x2, x3, x4 = (X[k:k + 2] for k in range(0, 10, 2))
    u = _sub(x3, x1)
    alpha = _line_parameter(x2, u, xN, x1)
    beta = _line_parameter(x2, u, x3, x4)
    if alpha is None or beta is None or not alpha < 0 < beta:
        raise DegenerateInput(
            "slide endpoints did not straddle 0; polygon is not in convex position")
    return alpha, beta


def _slid(cyc, i2, t, area):
    """The polygon with cyc[i2] slid by t along its chord, recentered, and
    the recentering shift.  The slide moves the centroid by theta*t*u, with
    theta = area(x1, x2, x3) / (3 * area)."""
    x1, x2, x3 = cyc[i2 - 1], cyc[i2], cyc[(i2 + 1) % len(cyc)]
    u = _sub(x3, x1)
    theta = abs(_cross(_sub(x2, x1), u)) / (6 * area)
    shift = (-theta * t * u[0], -theta * t * u[1])
    moved = [(v[0] + shift[0], v[1] + shift[1]) for v in cyc]
    moved[i2] = (x2[0] + t * u[0] + shift[0], x2[1] + t * u[1] + shift[1])
    return convex_hull(moved), shift


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


def _step(K, cyc, lam, i2, obj_before):
    """Slide cyc[i2], on the ccw cycle of K whose join area is obj_before,
    to the endpoint with the larger join area, where the hull absorbs the
    collinear neighbour, recentering to keep the centroid at the origin.
    Area is preserved and the join area never decreases."""
    alpha, beta = _interval(cyc, i2)
    area = volume(K)
    candidates = []
    for endpoint, t in (("alpha", alpha), ("beta", beta)):
        after, shift = _slid(cyc, i2, t, area)
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


def _centered(K):
    """K translated so that its centroid is the origin."""
    c = centroid(K)
    return translate(K, tuple(-x for x in c)) if any(x != 0 for x in c) else K


def reduce_to_triangle(K, lam):
    """Remove vertices one by one until a triangle remains.

    The polygon is recentered at its centroid first.  Each round removes
    the vertex with the smallest slide range beta - alpha (ties take the
    first in the ccw cycle); the cycle is computed once per round.  Returns
    the list of steps; a triangle input gives an empty list.  The join-area
    objective is non-decreasing along the chain.
    """
    _require_polygon(K)
    P = _centered(K)
    obj = _objective(P, lam)
    steps = []
    while len(P.vertices) > 3:
        _require_centered(P)
        cyc = ccw_vertices(P)
        widths = [beta - alpha for alpha, beta in (_interval(cyc, i) for i in range(len(cyc)))]
        step = _step(P, cyc, lam, widths.index(min(widths)), obj)
        steps.append(step)
        P, obj = step.after, step.objective_after
    return steps


def verify_planar_gfr(K, lam, join_area=None):
    """Check the planar bound: after centering at the centroid, the join
    area is at most the centered-triangle value at equal area.  A caller
    that holds the centered polygon's join area (a reduction chain's first
    ``objective_before``) passes it as ``join_area``."""
    _require_polygon(K)
    P = _centered(K)
    lam = read_exact(lam)
    formula = simplex_hull_ratio(2, lam)
    area = volume(P)
    lhs = _objective(P, lam) if join_area is None else join_area
    rhs = formula.ratio * area
    ratio = lhs / rhs if rhs != 0 else None
    meta = {
        "lambda": lam,
        "area": area,
        "vertex_count": len(P.vertices),
        "centroid_shift": list(centroid(K)),
        "formula_k": list(formula.k),
    }
    return CheckReport(lhs, rhs, ratio, 0, bool(lhs <= rhs), meta)
