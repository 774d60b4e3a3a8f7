"""Mixed volumes of polytope pairs and small families, plus the volume
ratios they bound.

Three independent computation routes are kept deliberately separate so
they can cross-check each other: the Cayley trick, which reads every
V(K[j], T[n-j]) off one triangulation of conv(K x {0} u T x {1}) and
feeds the sweeps and :func:`mixed_volume_pair`; polynomial interpolation
of s -> Vol(sK + T), the exact-only reference :func:`volume_polynomial`;
and inclusion-exclusion over Minkowski sums (polarization).  All three
are exact and must agree to the digit.
"""

import math
from dataclasses import dataclass

from .linalg import solve
from .polytopes import (
    boundary_fan,
    fan_total,
    fan_volume,
    minkowski_sum,
    negate,
    point_row,
    scale_polytope,
    sum_rows,
    triangulate,
    volume,
)
from .reports import comparison_report
from .scalars import rational

MAX_GENERAL_BODIES = 4


@dataclass(frozen=True)
class MixedVolumeResult:
    value: object
    method: str  # "cayley" or "polarization"


def mixed_volumes(K, T):
    """All V(K[j], T[n-j]) for j = 0..n from one Cayley polytope.

    The Cayley polytope C = conv(K x {0} u T x {1}) slices at height t to
    (1-t)K + tT.  :func:`~.polytopes.triangulate` triangulates C's
    boundary; fanned from the lexicographically smallest point, a vertex
    of C, that triangulates C (:func:`~.polytopes.boundary_fan`, on each
    point's own denominator).  A simplex S with b of its n+2 vertices at
    height 1 slices to volumes proportional to (1-t)^(n+1-b) t^(b-1), so it
    adds (n+1) Vol(S) = |D| / (n! prod m) to V(K[n+1-b], T[b-1]) (the
    Cayley trick): V(K[j], T[n-j]) is its class's fan_total over n!.
    """
    if K.dim != T.dim:
        raise ValueError("operands must share dimension")
    n = K.dim
    rows = [(X + (0,), w) for X, w in map(point_row, K.vertices)]
    rows += [(X + (w,), w) for X, w in map(point_row, T.vertices)]
    basis, simplices = triangulate(rows)
    apex = basis[0]
    # b of each cone's n+2 points at height 1; cones at one height are flat.
    b = {verts: sum(rows[v][0][n] != 0 for v in (apex, *verts)) for verts, _, _ in simplices}
    m, cones = boundary_fan(rows, apex, [s for s in simplices if 0 < b[s[0]] < n + 2])
    return [fan_total(m, [c for c in cones if b[c[0]] == n + 1 - j]) / math.factorial(n)
            for j in range(n + 1)]


def volume_polynomial(K, T):
    """All coefficients V(K[j], T[n-j]) for j = 0..n by interpolation.

    Fits Vol(sK + T) = sum_j C(n,j) s^j V(K[j],T[n-j]) through the nodes
    s = 0..n, one Minkowski-sum hull per nonzero node, by an exact
    Vandermonde solve.  This is the reference for :func:`mixed_volumes`.
    """
    if K.dim != T.dim:
        raise ValueError("operands must share dimension")
    n = K.dim
    nodes = [rational(s) for s in range(n + 1)]
    volumes = [volume(T) if s == 0 else volume(minkowski_sum(scale_polytope(K, s), T))
               for s in nodes]
    coeffs = solve([[s**j for j in range(n + 1)] for s in nodes], volumes)
    return [c / math.comb(n, j) for j, c in enumerate(coeffs)]


def mixed_volume_pair(K, T, j):
    """V(K[j], T[n-j]), read off :func:`mixed_volumes`."""
    if not 0 <= j <= K.dim:
        raise ValueError("j out of range")
    return MixedVolumeResult(mixed_volumes(K, T)[j], "cayley")


def mixed_volume_general(bodies):
    """V(K_1, ..., K_n) by polarization over the 2^n - 1 subset sums."""
    bodies = list(bodies)
    n = len(bodies)
    if n > MAX_GENERAL_BODIES:
        raise ValueError("polarization route capped at %d bodies" % MAX_GENERAL_BODIES)
    if any(B.dim != n for B in bodies):
        raise ValueError("need n bodies of dimension n")

    sums = {}
    for mask in range(1, 1 << n):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        if rest == 0:
            sums[mask] = bodies[i]
        else:
            sums[mask] = minkowski_sum(sums[rest], bodies[i])

    total = rational(0)
    for mask in range(1, 1 << n):
        size = bin(mask).count("1")
        term = volume(sums[mask])
        if (n - size) % 2:
            total = total - term
        else:
            total = total + term
    value = total / math.factorial(n)
    return MixedVolumeResult(value, "polarization")


def godbersen_ratio(K, j, mixed=None):
    """V(K[j], -K[n-j]) / Vol(K) against the proved bound n^n/(j^j (n-j)^(n-j)).

    The conjectured bound C(n,j) rides along in the metadata.  ``mixed``
    is ``mixed_volumes(K, negate(K))`` when the caller already has it.
    """
    n = K.dim
    if not 1 <= j <= n - 1:
        raise ValueError("need 1 <= j <= n-1")
    if mixed is None:
        mixed = mixed_volumes(K, negate(K))
    lhs = mixed[j] / volume(K)
    conjectured = rational(math.comb(n, j))
    proved = rational(n**n, j**j * (n - j) ** (n - j))
    meta = {
        "n": n,
        "j": j,
        "rhs_conjectured": conjectured,
        "rhs_proved": proved,
        "method": "cayley",
        "conjecture_pass": bool(lhs <= conjectured),
    }
    return comparison_report(lhs, proved, meta=meta)


def difference_body_check(K, mixed=None):
    """Vol(K - K) / Vol(K) against C(2n, n), plus the binomial expansion
    of Vol(K - K) into mixed volumes.

    ``mixed`` is ``mixed_volumes(K, negate(K))`` when the caller already
    has it.  Vol(K - K) comes from its own triangulation of the vertex
    differences, on rows, so the expansion cross-checks the Cayley route.
    """
    n = K.dim
    if mixed is None:
        mixed = mixed_volumes(K, negate(K))
    rows = [point_row(v) for v in K.vertices]
    diffs = sum_rows(rows, [(tuple(-x for x in X), w) for X, w in rows])
    basis, simplices = triangulate(diffs)
    diff_volume = fan_volume(boundary_fan(diffs, basis[0], simplices), n)
    lhs = diff_volume / volume(K)
    rhs = rational(math.comb(2 * n, n))
    expansion = sum(math.comb(n, j) * mixed[j] for j in range(n + 1))
    meta = {
        "n": n,
        "expansion_sum": expansion,
        "difference_volume": diff_volume,
        "expansion_identity": bool(expansion == diff_volume),
        "equality_attained": bool(lhs == rhs),
    }
    return comparison_report(lhs, rhs, meta=meta)
