"""Dense two-phase simplex over exact rationals (float works too).

Problems here are tiny (tens of variables/constraints): interior-point
search, gauge evaluations, membership certificates.  Bland's rule keeps
termination unconditional; with exact scalars there is no rounding left
to worry about at all.
"""

from __future__ import annotations

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _pivot(T, basis, row, col):
    pivot = T[row][col]
    T[row] = [v / pivot for v in T[row]]
    for r in range(len(T)):
        if r != row and T[r][col] != 0:
            factor = T[r][col]
            T[r] = [a - factor * b for a, b in zip(T[r], T[row])]
    basis[row] = col


def _run(T, basis, ncols, eps):
    """Pivot until the (maximization) objective row has no improving column.

    The objective row is T[-1]; entry j holds z_j - c_j, so column j improves
    while T[-1][j] < 0.  Bland's smallest-index rule on both choices.
    """
    m = len(T) - 1
    while True:
        enter = None
        for j in range(ncols):
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
    """Maximize c.y subject to A y <= b, y >= 0.

    Returns (status, value, y).  Exact arithmetic when inputs are rational
    (eps=0); float callers pass a small positive eps.
    """
    m = len(A)
    n = len(c)
    zero = 0

    art_rows = [i for i in range(m) if b[i] < 0]
    n_art = len(art_rows)
    base_cols = n + m            # structural + slack columns, stable indices
    ncols = base_cols + n_art    # artificials live at the tail
    art_col = {i: base_cols + k for k, i in enumerate(art_rows)}

    T = []
    basis = [0] * m
    for i in range(m):
        row = [zero] * (ncols + 1)
        flip = -1 if b[i] < 0 else 1
        for j in range(n):
            row[j] = flip * A[i][j]
        row[n + i] = flip  # slack coefficient
        row[-1] = flip * b[i]
        if i in art_col:
            row[art_col[i]] = 1
            basis[i] = art_col[i]
        else:
            basis[i] = n + i
        T.append(row)

    if n_art:
        # Phase 1: maximize -(sum of artificials); optimum 0 iff feasible.
        obj = [zero] * (ncols + 1)
        for col in art_col.values():
            obj[col] = 1
        T.append(obj)
        for i in range(m):
            if basis[i] >= base_cols:
                T[-1] = [a - b_ for a, b_ in zip(T[-1], T[i])]
        status = _run(T, basis, ncols, eps)
        assert status == OPTIMAL, "phase-1 objective bounded by zero"
        if -T[-1][-1] > eps:
            return INFEASIBLE, None, None
        T.pop()

        # Pivot leftover zero-level artificials out of the basis; a row with
        # no structural/slack pivot available is redundant and is dropped.
        drop = []
        for i in range(len(T)):
            if basis[i] >= base_cols:
                pivot_col = None
                for j in range(base_cols):
                    if abs(T[i][j]) > eps:
                        pivot_col = j
                        break
                if pivot_col is None:
                    drop.append(i)
                else:
                    _pivot(T, basis, i, pivot_col)
        for i in reversed(drop):
            del T[i]
            del basis[i]
        # Artificial columns are trailing, so slicing them off is safe.
        T = [row[:base_cols] + [row[-1]] for row in T]
        ncols = base_cols

    obj = [zero] * (ncols + 1)
    for j in range(n):
        obj[j] = -c[j]
    T.append(obj)
    mrows = len(T) - 1
    for i in range(mrows):
        col = basis[i]
        if T[-1][col] != 0:
            factor = T[-1][col]
            T[-1] = [a - factor * b_ for a, b_ in zip(T[-1], T[i])]
    status = _run(T, basis, ncols, eps)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    y = [zero] * n
    for i in range(mrows):
        if basis[i] < n:
            y[basis[i]] = T[i][-1]
    return OPTIMAL, T[-1][-1], y


def feasible_interior(normals, offsets, dim, *, eps=0):
    """Point maximizing the (L1-scaled) slack inside {x : <a_i,x> <= b_i}.

    Returns (margin, x).  margin > 0 means x is strictly interior; margin == 0
    means the system is feasible but flat; margin is None when infeasible.
    The slack variable is capped at 1 so unbounded regions still solve.
    """
    n_free = 2 * dim  # x = xp - xm with xp, xm >= 0
    c = [0] * n_free + [1]
    A = []
    b = []
    for a_i, b_i in zip(normals, offsets):
        scale = sum(abs(x) for x in a_i)
        if scale == 0:
            if b_i < 0:
                return None, None
            continue
        row = list(a_i) + [-x for x in a_i] + [scale]
        A.append(row)
        b.append(b_i)
    A.append([0] * n_free + [1])
    b.append(1)
    status, value, y = simplex_max(c, A, b, eps=eps)
    if status == INFEASIBLE:
        return None, None
    assert status == OPTIMAL
    x = tuple(y[i] - y[dim + i] for i in range(dim))
    return value, x
