"""Joined cone bodies one dimension up and the volume inequalities tying
products, intersections, and polar sums together.

The central object is C = conv(L at height 0, -K at height 1).  Its
height-theta slice is (1-theta)L - theta*K, which feeds the
product-volume inequalities.  Every check is exact, with zero tolerance.
"""

from .errors import OriginNotContained, OriginNotInterior
from .polytopes import (
    HPolytope,
    contains_point,
    contains_polytope,
    convex_hull,
    convex_hull_union,
    intersect,
    negate,
    polar_sum_polar,
    to_vrep,
    volume,
)
from .reports import CheckReport, comparison_report
from .scalars import rational, read_exact

MAX_BASE_DIM = 4


def _zero(n):
    return (rational(0),) * n


def build_C(K, L):
    """conv(L x {0}, -K x {1}) in dimension n+1."""
    if K.dim != L.dim:
        raise ValueError("operands must share dimension")
    n = K.dim
    if n > MAX_BASE_DIM:
        raise ValueError("base dimension capped at %d" % MAX_BASE_DIM)
    pts = [v + (0,) for v in L.vertices]
    pts += [tuple(-c for c in w) + (1,) for w in K.vertices]
    return convex_hull(pts)


def _scaled_intersection(K, L, theta):
    """theta*K cap (1-theta)*L as an HPolytope (flags carry degeneracy).

    At theta in {0, 1} one factor shrinks to the point 0, so the cut is
    flat.  When every offset is positive the origin is strictly interior
    and no LP is needed to find an interior point."""
    if theta == 0 or theta == 1:
        return HPolytope(K.dim, (), empty=False, full_dim=False)
    halfspaces = tuple((f.outward_normal, f.offset * s)
                       for P, s in ((K, theta), (L, 1 - theta)) for f in P.facets)
    cut = HPolytope(K.dim, halfspaces, interior_point=_zero(K.dim))
    if all(offset > 0 for _, offset in halfspaces):
        return cut
    return intersect(cut)


def verify_ckl_bound(K, L, theta, C=None):
    """Vol_{n+1}(C) <= Vol(K) Vol(L) / ((n+1) Vol(theta K cap (1-theta) L)).

    A zero-volume intersection makes the bound vacuous; that is reported,
    not raised.  ``C`` is ``build_C(K, L)`` when the caller already has it.
    """
    n = K.dim
    theta = read_exact(theta)
    if not 0 <= theta <= 1:
        raise ValueError("theta must lie in [0, 1]")
    lhs = volume(build_C(K, L) if C is None else C)
    I = _scaled_intersection(K, L, theta)
    if I.empty or not I.full_dim:
        return CheckReport(
            lhs,
            None,
            None,
            0,
            True,
            {"n": n, "theta": theta, "vacuous": True, "reason": "intersection has zero volume"},
        )
    vol_i = volume(to_vrep(I))
    rhs = volume(K) * volume(L) / ((n + 1) * vol_i)
    meta = {"n": n, "theta": theta, "vacuous": False, "intersection_volume": vol_i}
    return comparison_report(lhs, rhs, meta=meta)


def verify_KL_inequality(K, L, theta, join=None):
    """Vol(L v -K) * Vol(theta K cap (1-theta) L) <= Vol(K) Vol(L),
    for bodies with 0 in both; ``join`` is L v -K when the caller has it."""
    n = K.dim
    theta = read_exact(theta)
    if not 0 <= theta <= 1:
        raise ValueError("theta must lie in [0, 1]")
    origin = _zero(n)
    if not (contains_point(K, origin) and contains_point(L, origin)):
        raise OriginNotContained("both bodies must contain the origin")
    join = convex_hull_union(L, negate(K)) if join is None else join
    rhs = volume(K) * volume(L)
    if theta == 0 or theta == 1:
        return CheckReport(
            rational(0),
            rhs,
            rational(0),
            0,
            True,
            {"n": n, "theta": theta, "vacuous": True, "join_volume": volume(join)},
        )
    I = _scaled_intersection(K, L, theta)
    if I.empty or not I.full_dim:
        vol_i = rational(0)
    else:
        vol_i = volume(to_vrep(I))
    lhs = volume(join) * vol_i
    meta = {
        "n": n,
        "theta": theta,
        "vacuous": False,
        "join_volume": volume(join),
        "intersection_volume": vol_i,
        "equality_attained": bool(lhs == rhs),
    }
    return comparison_report(lhs, rhs, meta=meta)


def verify_strange(K, L, theta_grid=(rational(1, 4), rational(1, 2), rational(3, 4))):
    """Vol(K v -L) * Vol((K°+L°)°) <= Vol(K) Vol(L) for 0 interior to both,
    plus the inclusion of each cut theta K cap (1-theta) L's vertices in
    (K°+L°)°, tested vertex by vertex against its facets."""
    n = K.dim
    origin = _zero(n)
    if not (contains_point(K, origin, strict=True) and contains_point(L, origin, strict=True)):
        raise OriginNotInterior("both bodies need 0 in the interior")
    M = polar_sum_polar(K, L)
    join = convex_hull_union(K, negate(L))
    lhs = volume(join) * volume(M)
    rhs = volume(K) * volume(L)
    inclusions = []
    for theta in theta_grid:
        theta = read_exact(theta)
        I = _scaled_intersection(K, L, theta)
        if I.empty:
            inclusions.append((theta, True))
            continue
        if not I.full_dim:
            inclusions.append((theta, None))
            continue
        inclusions.append((theta, contains_polytope(M, I)))
    meta = {
        "n": n,
        "join_volume": volume(join),
        "polar_sum_polar_volume": volume(M),
        "inclusion_by_theta": [[t, flag] for t, flag in inclusions],
        "inclusions_hold": all(flag is not False for _, flag in inclusions),
    }
    return comparison_report(lhs, rhs, meta=meta)
