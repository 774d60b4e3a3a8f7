"""Closed-form simplex quantities and the explicit two-simplex hull body.

The centered-simplex hull ratio and the one-parameter body joining a
simplex to a shrunken reflected copy both live here, together with the
algebraic identity that turns the simplex ratio into the binomial bound
on mixed-volume ratios.
"""

import math
from dataclasses import dataclass

from .polytopes import convex_hull
from .reports import equality_report
from .scalars import EXACT, FLOAT, as_scalar, exact_scalar, rational


@dataclass(frozen=True)
class SimplexHullFormula:
    """Ratio Vol((1-lam)S v (-lam S)) / Vol(S) for a centered simplex S.

    k holds every admissible integer (two at ties, where both expressions
    coincide); ratio is their common value.
    """

    n: int
    lam: object
    k: tuple
    ratio: object

    def to_json_dict(self):
        from .reports import _jsonify

        return {
            "n": self.n,
            "lambda": _jsonify(self.lam),
            "k": list(self.k),
            "ratio": _jsonify(self.ratio),
        }


def _admissible_k(n, w):
    """Integers k with w - 1 <= k <= w, clamped to [0, n]: w = (n+1)(1-lam)
    for the hull ratio, (n+1)/(1+t) for K_t."""
    hi = math.floor(w)
    lo = math.ceil(w - 1)
    return sorted({min(n, max(0, k)) for k in range(lo, hi + 1)})


def simplex_hull_ratio(n, lam):
    """Closed-form volume ratio of the hull of (1-lam)S and -lam*S, S centered."""
    mode = FLOAT if isinstance(lam, float) else EXACT
    lam = as_scalar(lam, mode)
    if not (0 <= lam <= 1):
        raise ValueError("lambda must lie in [0, 1]")
    ks = _admissible_k(n, (n + 1) * (1 - lam))
    ratios = [
        as_scalar(math.comb(n, k), mode) * (1 - lam) ** k * lam ** (n - k) for k in ks
    ]
    first = ratios[0]
    for r in ratios[1:]:
        if mode == EXACT:
            assert r == first, "tie expressions must coincide"
        else:
            assert abs(r - first) <= 1e-12 * max(1.0, abs(first))
    return SimplexHullFormula(n, lam, tuple(ks), first)


def kt_ambient_vertices(n, t):
    """Vertex data of the joined body in the ambient space, one dimension up.

    Returns (simplex_vertices, reflected_vertices): e_1..e_{n+1} and
    v_j = (1+t)a - t e_j, all on the hyperplane of coordinate sum 1.
    """
    t = exact_scalar(t)
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
    t = exact_scalar(t)
    return tuple(
        [-t] * k + [rational(1)] * (n - k) + [(1 + t) * k - n]
    )


def build_Kt(n, t):
    """Hull of a simplex and its reflected t-scaled copy, as an exact
    n-polytope in the affine chart that drops the last ambient coordinate.

    The chart sends e_j -> e_j (j <= n) and e_{n+1} -> 0; volume ratios
    against the chart simplex are chart-invariant.
    """
    t = exact_scalar(t)
    if not (rational(1, n) <= t <= 1):
        raise ValueError("t must lie in [1/n, 1]")
    es, vs = kt_ambient_vertices(n, t)
    chart_points = [p[:n] for p in es] + [v[:n] for v in vs]
    return convex_hull(chart_points, EXACT)


def chart_simplex(n):
    """Image of the ambient simplex under the same chart: conv{0, e_1..e_n}."""
    pts = [tuple(rational(1 if i == j else 0) for j in range(n)) for i in range(n)]
    pts.append(tuple(rational(0) for _ in range(n)))
    return convex_hull(pts, EXACT)


def kt_volume_ratio_formula(n, t):
    """C(n,k) t^(n-k) with k admissible for t: (n+1)/(1+t) - 1 <= k <= (n+1)/(1+t)."""
    t = exact_scalar(t)
    ks = _admissible_k(n, rational(n + 1) / (1 + t))
    ratios = [rational(math.comb(n, k)) * t ** (n - k) for k in ks]
    for r in ratios[1:]:
        assert r == ratios[0], "tie expressions must coincide"
    return ks, ratios[0]


def gfr_implies_godbersen_bound(n, j):
    """The algebraic step from the simplex hull ratio to the binomial bound:
    at lam = (n+1-j)/(n+1), ratio / ((1-lam)^j lam^(n-j)) = C(n,j) exactly."""
    if not 1 <= j <= n - 1:
        raise ValueError("need 1 <= j <= n-1")
    lam = rational(n + 1 - j, n + 1)
    formula = simplex_hull_ratio(n, lam)
    assert j in formula.k
    lhs = formula.ratio / ((1 - lam) ** j * lam ** (n - j))
    rhs = rational(math.comb(n, j))
    meta = {
        "n": n,
        "j": j,
        "lambda": lam,
        "admissible_k": list(formula.k),
        "ratio": formula.ratio,
    }
    return equality_report(lhs, rhs, tol=0, meta=meta)
