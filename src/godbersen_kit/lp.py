"""Dense one-phase simplex.

Problems here are tiny (tens of variables/constraints): the exact
interior-point search of the polytope layer, and the float translation
search's cutting planes.  Every caller states its LP with right-hand sides
>= 0, so the slack basis is feasible and no phase 1 is needed.  Bland's
rule keeps termination unconditional; with exact scalars there is no
rounding left to worry about at all.
"""

from __future__ import annotations

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


def _pivot(T, basis, row, col):
    pivot = T[row][col]
    T[row] = [v / pivot for v in T[row]]
    for r in range(len(T)):
        if r != row and T[r][col] != 0:
            factor = T[r][col]
            T[r] = [a - factor * b for a, b in zip(T[r], T[row])]
    basis[row] = col


def _run(T, basis, eps):
    """Pivot until the (maximization) objective row has no improving column.

    The objective row is T[-1]; entry j holds z_j - c_j, so column j improves
    while T[-1][j] < 0.  Bland's smallest-index rule on both choices.
    """
    m = len(T) - 1
    while True:
        enter = None
        for j in range(len(T[m]) - 1):
            if T[m][j] < -eps:
                enter = j
                break
        if enter is None:
            return OPTIMAL
        leave = None
        best_ratio = None
        for i in range(m):
            if T[i][enter] > eps:
                ratio = T[i][-1] / T[i][enter]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(T, basis, leave, enter)


def simplex_max(c, A, b, eps=0):
    """Maximize c.y subject to A y <= b, y >= 0, for b >= 0.

    The pivots start from the slack basis, whose point y = 0 is feasible
    because b >= 0; a negative entry of b raises ValueError.  Returns
    (status, value, y), status OPTIMAL or UNBOUNDED (value and y None).
    Exact arithmetic when inputs are rational (eps=0); float callers pass a
    small positive eps.
    """
    if any(b_i < 0 for b_i in b):
        raise ValueError("simplex_max needs every right-hand side >= 0")
    m = len(A)
    n = len(c)
    T = []
    for i in range(m):
        row = list(A[i]) + [0] * m + [b[i]]  # structural, slack, rhs
        row[n + i] = 1
        T.append(row)
    T.append([-c_j for c_j in c] + [0] * (m + 1))
    basis = list(range(n, n + m))
    if _run(T, basis, eps) == UNBOUNDED:
        return UNBOUNDED, None, None
    y = [0] * n
    for i in range(m):
        if basis[i] < n:
            y[basis[i]] = T[i][-1]
    return OPTIMAL, T[-1][-1], y


def feasible_interior(normals, offsets, dim):
    """Point maximizing the (L1-scaled) slack inside {x : <a_i,x> <= b_i}.

    Maximizes t subject to <a_i,x> + |a_i|_1 t <= b_i and t <= 1, the cap
    letting unbounded regions solve.  Returns (margin, x), margin the
    optimal t: margin > 0 means x is strictly interior, margin == 0 that
    the system is feasible but flat; (None, None) means margin < 0, an
    infeasible system.

    The point x = 0, t = t0 with t0 = min(0, min_i b_i / |a_i|_1) is
    feasible, so the LP runs in u = t - t0 >= 0 and x = xp - xm (xp,
    xm >= 0) with every right-hand side >= 0.  The t column's 1s are the
    input's own, so rational inputs give a rational margin and x.
    """
    n_free = 2 * dim
    A, b, scales = [], [], []
    for a_i, b_i in zip(normals, offsets):
        scale = sum(abs(x) for x in a_i)
        if scale == 0:
            if b_i < 0:
                return None, None
            continue
        A.append(list(a_i) + [-x for x in a_i] + [scale])
        b.append(b_i)
        scales.append(scale)
    if not A:  # no row constrains x: the cap alone binds
        return 1, (0,) * dim
    one = scales[0] / scales[0]
    t0 = min([0] + [b_i / s for b_i, s in zip(b, scales)])
    b = [b_i - s * t0 for b_i, s in zip(b, scales)] + [one - t0]
    A.append([0] * n_free + [one])
    _, u, y = simplex_max([0] * n_free + [one], A, b)
    margin = t0 + u
    if margin < 0:
        return None, None
    return margin, tuple(y[i] - y[dim + i] for i in range(dim))
