"""Closed-form simplex quantities.

The centered-simplex hull ratio lives here, together with the algebraic
identity that turns the simplex ratio into the binomial bound on
mixed-volume ratios.  Both are exact: lambda is read by
:func:`~godbersen_kit.scalars.read_exact`, a float at its binary value.
"""

import math
from dataclasses import dataclass

from .reports import equality_report
from .scalars import rational, read_exact


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
    lam = read_exact(lam)
    if not (0 <= lam <= 1):
        raise ValueError("lambda must lie in [0, 1]")
    ks = _admissible_k(n, (n + 1) * (1 - lam))
    ratios = [math.comb(n, k) * (1 - lam) ** k * lam ** (n - k) for k in ks]
    first = ratios[0]
    assert all(r == first for r in ratios), "tie expressions must coincide"
    return SimplexHullFormula(n, lam, tuple(ks), first)


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
