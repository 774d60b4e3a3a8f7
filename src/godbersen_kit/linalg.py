"""Small dense exact linear algebra.

Everything here works on plain tuples/lists of scalars, and nothing takes a
tolerance.  :func:`det` is integer only (Bareiss elimination), :func:`solve`
is an exact rational solve, and :class:`RankTracker` and
:func:`hyperplane_through` serve the integer hull kernel.  Sizes are tiny
(d <= 7), so the routines favour clarity over asymptotics.
"""

from __future__ import annotations

from .errors import DegenerateInput


def dot(u, v):
    acc = u[0] * v[0]
    for i in range(1, len(u)):
        acc += u[i] * v[i]
    return acc


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vscale(u, s):
    return tuple(a * s for a in u)


def det(matrix):
    """Integer determinant by Bareiss's fraction-free elimination (1968):
    every intermediate entry is a minor of the input, so each division by
    the previous pivot is exact.  Raises TypeError on a non-int entry."""
    if not all(type(x) is int for row in matrix for x in row):
        raise TypeError("det takes int entries only")
    n = len(matrix)
    if n == 0:
        return 1
    if n == 2:  # the cofactor minors of every 3-d facet plane
        (a, b), (c, d) = matrix
        return a * d - b * c
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def solve(matrix, rhs):
    """Solve a square exact system by Gauss-Jordan elimination on the first
    nonzero pivot; raises DegenerateInput when it is singular."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise DegenerateInput("singular linear system")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(n):
            if r == col or aug[r][col] == 0:
                continue
            factor = aug[r][col] / pivot
            for c in range(col, n + 1):
                aug[r][c] = aug[r][c] - factor * aug[col][c]
    return tuple(aug[i][n] / aug[i][i] for i in range(n))


class RankTracker:
    """Incremental rank of a growing set of vectors, by fraction-free
    Gaussian elimination: integer vectors stay integral."""

    def __init__(self):
        self.rows = []  # reduced, each with a leading pivot column
        self.pivot_cols = []

    @property
    def rank(self):
        return len(self.rows)

    def add(self, vector):
        """Add a vector; True if it increased the rank."""
        v = list(vector)
        for row, pc in zip(self.rows, self.pivot_cols):
            if v[pc] != 0:
                # Scale v by the pivot instead of dividing by it; the zero
                # pattern, hence every rank decision, is unchanged.
                lead, pivot = v[pc], row[pc]
                v = [a * pivot - lead * b for a, b in zip(v, row)]
        for c, a in enumerate(v):
            if a != 0:
                self.rows.append(v)
                self.pivot_cols.append(c)
                return True
        return False


def hyperplane_through(points):
    """Normal and offset of the hyperplane spanned by d affinely independent
    points in R^d, via cofactor expansion of the edge matrix.

    Returns (normal, offset) with <p, normal> = offset for each input point.
    Raises DegenerateInput when the points do not span a hyperplane, and
    TypeError on a non-int coordinate.  The test is exact, with no
    tolerance: the hull kernel passes int points.
    """
    d = len(points[0])
    base = points[0]
    if not all(type(c) is int for c in base):  # d = 1 has no minor entry to scan
        raise TypeError("hyperplane_through takes int points only")
    edges = [vsub(p, base) for p in points[1:]]  # (d-1) x d
    normal = []
    for j in range(d):
        minor = [[row[c] for c in range(d) if c != j] for row in edges]
        cof = det(minor)
        normal.append(cof if j % 2 == 0 else -cof)
    if not any(normal):
        raise DegenerateInput("points do not span a hyperplane")
    normal = tuple(normal)
    return normal, dot(normal, base)
