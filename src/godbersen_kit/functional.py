"""Gridded log-concave functional layer.

Densities are represented by their values at the cell centers of a regular
grid over a box.  The central operation is the weighted sup-convolution

    D(z) = sup { f(u)^(1-t) * g(v)^t : (1-t)^2 u - t^2 v = z },

equivalently, writing f = exp(-phi) and g = exp(-psi), the exponent of D is
the infimal convolution of (1-t)*phi(w/(1-t)^2) and t*psi(-w/t^2).
``lambda_difference`` picks one of two routes from its inputs:

* ``legendre``, when both inputs are flagged log-concave — per-axis discrete
  Legendre transforms over slope-adapted dual nodes.  It evaluates the
  infimal convolution of the piecewise-linear interpolants of the exponents,
  which is exact whenever the exponents are piecewise linear with sampled
  kinks, and second-order accurate for smooth convex exponents.
  Slopes that differ by at most DUAL_MERGE_RTOL * max(1, max|slope|) share
  one dual node; moving a dual node by delta moves a transform value by at
  most delta * (|z| + |x|) over the primal and output boxes.  Exactness
  holds while the merged dual nodes of each axis fit under ``_dual_cap``
  (513 at n = 3, 1025 below); beyond it the nodes are subsampled.
* ``pairs``, otherwise — direct windowed maximisation over all grid
  decompositions, binned to output cells.  Works for arbitrary nonnegative
  inputs and serves as the independent reference route.

Evaluator protocol: an evaluator maps a list of per-axis 1-D coordinate
arrays to the array of function values on that product grid (shape = the
per-axis lengths).  Evaluators enable Richardson-refined quadrature:
``quadrature`` reports the extrapolation of the midpoint sums at resolutions
R and 2R with error estimate |I_2R - I_R| / 3.  Inequality checks pass when
lhs <= rhs + 3*(err_lhs + err_rhs).
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IncompatibleGrids, NotLogConcave, OriginNotInterior
from .polytopes import convex_hull_union, negate, scale_polytope, volume
from .reports import CheckReport

FUNCTIONAL_MAX_DIM = 3
MAX_RESOLUTION = 257
SUPPORT_WINDOW = 1e-12
LOG_CONCAVITY_TOL = 1e-9
DUAL_MERGE_RTOL = 1e-12


def _dual_cap(dim):
    return 513 if dim >= 3 else 1025


def _mesh(axes):
    return np.meshgrid(*axes, indexing="ij")


# ---------------------------------------------------------------------------
# grid container


class GridFunction:
    """Values of a finite, nonnegative density at the cell centers of a grid.

    ``evaluator``, when present, follows the module's evaluator protocol and
    enables refined quadrature.
    """

    __slots__ = ("lo", "hi", "resolution", "values", "log_concave", "evaluator")

    def __init__(self, lo, hi, resolution, values, *, log_concave=False,
                 evaluator=None):
        lo = tuple(float(c) for c in lo)
        hi = tuple(float(c) for c in hi)
        resolution = tuple(int(r) for r in resolution)
        n = len(lo)
        if not (1 <= n <= FUNCTIONAL_MAX_DIM):
            raise ValueError(f"dimension {n} outside 1..{FUNCTIONAL_MAX_DIM}")
        if len(hi) != n or len(resolution) != n:
            raise ValueError("box and resolution dimensions disagree")
        for a, b in zip(lo, hi):
            if not a < b:
                raise ValueError("box must have positive side lengths")
        for r in resolution:
            if not (2 <= r <= MAX_RESOLUTION):
                raise ValueError(f"resolution per axis must be in 2..{MAX_RESOLUTION}")
        arr = np.array(values, dtype=float)
        if arr.shape != resolution:
            arr = arr.reshape(resolution)
        if not np.all(np.isfinite(arr)):
            raise ValueError("density values must be finite")
        if arr.min() < -1e-12 * max(1.0, abs(float(arr.max()))):
            raise ValueError("density values must be nonnegative")
        arr = np.maximum(arr, 0.0)
        arr.flags.writeable = False
        self.lo = lo
        self.hi = hi
        self.resolution = resolution
        self.values = arr
        self.log_concave = bool(log_concave)
        self.evaluator = evaluator
        if self.log_concave:
            self._check_log_concavity()

    @property
    def dim(self):
        return len(self.lo)

    @property
    def box(self):
        return self.lo, self.hi

    @property
    def widths(self):
        return tuple((b - a) / r for a, b, r in zip(self.lo, self.hi, self.resolution))

    def axis_centers(self, k, factor=1):
        """Cell-center coordinates along axis k (at `factor` times the resolution)."""
        r = self.resolution[k] * factor
        h = (self.hi[k] - self.lo[k]) / r
        return self.lo[k] + h * (np.arange(r) + 0.5)

    @property
    def axes(self):
        return [self.axis_centers(k) for k in range(self.dim)]

    def _check_log_concavity(self):
        v = self.values
        for k in range(self.dim):
            a = np.moveaxis(v, k, -1)
            mid, left, right = a[..., 1:-1], a[..., :-2], a[..., 2:]
            bad = mid * mid < left * right * (1.0 - LOG_CONCAVITY_TOL) - 1e-300
            if np.any(bad):
                raise NotLogConcave(f"midpoint log-concavity fails along axis {k}")

    def __repr__(self):
        return (f"GridFunction(dim={self.dim}, resolution={self.resolution}, "
                f"log_concave={self.log_concave})")


def sample_function(fn, lo, hi, resolution, *, log_concave=False):
    """Build a GridFunction by evaluating ``fn`` per the evaluator protocol."""
    lo = tuple(float(c) for c in lo)
    hi = tuple(float(c) for c in hi)
    resolution = tuple(int(r) for r in resolution)
    values = np.asarray(fn(_center_axes(lo, hi, resolution)), dtype=float)
    return GridFunction(lo, hi, resolution, values, log_concave=log_concave,
                        evaluator=fn)


# ---------------------------------------------------------------------------
# lambda-scaled absolute value


def lambda_abs(a, lam):
    """The weighted absolute value: a/(1-lam) for a >= 0, -a/lam for a < 0."""
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie strictly between 0 and 1")
    a = float(a)
    return a / (1.0 - lam) if a >= 0 else -a / lam


# ---------------------------------------------------------------------------
# discrete Legendre engine


def _axis_sup_transform(w, nodes, dual, axis):
    """out[..., j, ...] = max_i (nodes[i] * dual[j] + w[..., i, ...]) along axis."""
    a = np.moveaxis(np.asarray(w, dtype=float), axis, -1)
    lead = a.shape[:-1]
    m = a.shape[-1]
    dual = np.asarray(dual, dtype=float)
    d = len(dual)
    flat = a.reshape(-1, m)
    out = np.empty((flat.shape[0], d))
    prod = np.asarray(nodes, dtype=float)[:, None] * dual[None, :]
    chunk = max(1, int(4_000_000 // (m * d + 1)))
    for s in range(0, flat.shape[0], chunk):
        block = flat[s:s + chunk]
        out[s:s + chunk] = np.max(prod[None, :, :] + block[:, :, None], axis=1)
    return np.moveaxis(out.reshape(*lead, d), -1, axis)


def _extend_axis(g, nodes, axis, lo, hi):
    """Extend convex samples g to the physical box edges along one axis.

    Virtual nodes at lo and hi get chord-extrapolated values (constant when
    the neighbour is +inf, +inf when the edge sample itself is +inf), so the
    piecewise-linear model covers the full box rather than stopping at the
    outermost cell centers.
    """
    a = np.moveaxis(np.asarray(g, dtype=float), axis, -1)
    nodes = np.asarray(nodes, dtype=float)
    if a.shape[-1] < 2:
        return g, nodes
    with np.errstate(invalid="ignore"):
        s_left = (a[..., 1] - a[..., 0]) / (nodes[1] - nodes[0])
        s_right = (a[..., -1] - a[..., -2]) / (nodes[-1] - nodes[-2])
    left = np.where(
        np.isfinite(a[..., 0]),
        np.where(np.isfinite(a[..., 1]), a[..., 0] - s_left * (nodes[0] - lo), a[..., 0]),
        np.inf,
    )
    right = np.where(
        np.isfinite(a[..., -1]),
        np.where(np.isfinite(a[..., -2]), a[..., -1] + s_right * (hi - nodes[-1]),
                 a[..., -1]),
        np.inf,
    )
    ext = np.concatenate([left[..., None], a, right[..., None]], axis=-1)
    new_nodes = np.concatenate([[lo], nodes, [hi]])
    return np.moveaxis(ext, -1, axis), new_nodes


def _axis_slopes(g, nodes, axis):
    """Finite-difference slopes of samples along one axis, pooled and finite."""
    a = np.moveaxis(np.asarray(g, dtype=float), axis, -1)
    with np.errstate(invalid="ignore"):
        d = np.diff(a, axis=-1) / np.diff(np.asarray(nodes, dtype=float))
    return d[np.isfinite(d)]


def _joint_dual_nodes(slope_sets, cap):
    """Sorted distinct slopes of all sets, at most ``cap`` of them.

    A slope within DUAL_MERGE_RTOL * max(1, max|u|) of the slope before it
    is a rounding copy (each grid line of a separable exponent repeats the
    same slopes) and is dropped before the cap subsamples.
    """
    nonempty = [s for s in slope_sets if s.size]
    if not nonempty:
        return np.zeros(1)
    u = np.unique(np.concatenate(nonempty))
    tol = DUAL_MERGE_RTOL * max(1.0, float(np.abs(u).max()))
    u = u[np.concatenate(([True], np.diff(u) > tol))]
    if len(u) > cap:
        idx = np.unique(np.linspace(0, len(u) - 1, cap).round().astype(int))
        u = u[idx]
    return u


def _forward_stages(exponents):
    """Jointly Legendre-transform several convex-sample arrays, axis by axis.

    ``exponents`` is a list of (values, axis_data) pairs where axis_data is a
    list of (nodes, lo, hi) per axis.  All arrays are transformed onto the
    same slope-adapted dual nodes so the results can be added.  Returns
    (transformed arrays, dual node arrays).
    """
    dim = len(exponents[0][1])
    cap = _dual_cap(dim)
    ws = [-np.asarray(vals, dtype=float) for vals, _ in exponents]
    axdata = [list(ad) for _, ad in exponents]
    duals = []
    for k in range(dim):
        slope_sets = []
        extended = []
        for i, w in enumerate(ws):
            nodes, lo, hi = axdata[i][k]
            g, new_nodes = _extend_axis(-w, nodes, k, lo, hi)
            slope_sets.append(_axis_slopes(g, new_nodes, k))
            extended.append((g, new_nodes))
        dual = _joint_dual_nodes(slope_sets, cap)
        duals.append(dual)
        for i, (g, new_nodes) in enumerate(extended):
            ws[i] = _axis_sup_transform(-g, new_nodes, dual, k)
    return ws, duals


def _inverse_stages(s_values, duals, target_axes):
    """Evaluate sup_y (<z, y> - S(y)) on the product grid of ``target_axes``."""
    w = -np.asarray(s_values, dtype=float)
    for k in range(len(duals)):
        w = _axis_sup_transform(w, duals[k], target_axes[k], k)
    return w


# ---------------------------------------------------------------------------
# the weighted sup-convolution


def _output_box(f, g, lam):
    c1 = (1.0 - lam) ** 2
    c2 = lam * lam
    lo = tuple(c1 * a - c2 * b for a, b in zip(f.lo, g.hi))
    hi = tuple(c1 * a - c2 * b for a, b in zip(f.hi, g.lo))
    return lo, hi


def _center_axes(lo, hi, resolution):
    axes = []
    for k in range(len(lo)):
        h = (hi[k] - lo[k]) / resolution[k]
        axes.append(lo[k] + h * (np.arange(resolution[k]) + 0.5))
    return axes


def _exponent_data(f, scale_coord, scale_val, flip):
    """Nodes and values of scale_val * phi(x) on coordinates scale_coord * x,
    flipped to ascending order when scale_coord < 0."""
    with np.errstate(divide="ignore"):
        phi = -np.log(f.values)
    vals = scale_val * phi
    axis_data = []
    for k in range(f.dim):
        nodes = scale_coord * f.axis_centers(k)
        lo = scale_coord * f.lo[k]
        hi = scale_coord * f.hi[k]
        if flip:
            nodes = nodes[::-1].copy()
            lo, hi = hi, lo
        axis_data.append((nodes, lo, hi))
    if flip:
        vals = np.flip(vals)
    return vals, axis_data


def lambda_difference(f, g, lam):
    """The weighted sup-convolution of two gridded densities.

    The route follows the inputs: legendre when both are flagged log-concave,
    pairs otherwise.  The output box is (1-lam)^2 box_f + lam^2 (-box_g) at
    the shared resolution.

    The legendre route is exact for piecewise-linear exponents while the
    merged dual nodes of each axis fit under ``_dual_cap``; merging slopes
    within DUAL_MERGE_RTOL * max(1, max|slope|) moves a value by at most
    delta * (|z| + |x|) for a node moved by delta.
    """
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie strictly between 0 and 1")
    if f.dim != g.dim:
        raise IncompatibleGrids("inputs have different dimensions")
    if f.resolution != g.resolution:
        raise IncompatibleGrids("inputs have different resolutions")
    lo, hi = _output_box(f, g, lam)
    resolution = f.resolution
    out_axes = _center_axes(lo, hi, resolution)

    if f.log_concave and g.log_concave:
        a_data = _exponent_data(f, (1.0 - lam) ** 2, 1.0 - lam, flip=False)
        b_data = _exponent_data(g, -(lam * lam), lam, flip=True)
        (la, lb), duals = _forward_stages([a_data, b_data])
        s = la + lb
        delta = _inverse_stages(s, duals, out_axes)
        with np.errstate(over="ignore"):
            values = np.exp(-delta)

        def _evaluator(axes, _s=s, _duals=duals):
            d = _inverse_stages(_s, _duals, axes)
            with np.errstate(over="ignore"):
                return np.exp(-d)

        return GridFunction(lo, hi, resolution, values, log_concave=True,
                            evaluator=_evaluator)

    values = _pairs_values(f, g, lam, lo, hi, out_axes)
    return GridFunction(lo, hi, resolution, values)


def _pairs_values(f, g, lam, lo, hi, out_axes):
    """Direct windowed maximisation over grid decompositions, binned to cells.

    Quadratic in the number of cells; intended for moderate grids and as the
    reference route.
    """
    c1 = (1.0 - lam) ** 2
    c2 = lam * lam
    n = f.dim
    shape = tuple(len(a) for a in out_axes)
    steps = [(hi[k] - lo[k]) / shape[k] for k in range(n)]
    g_pow = np.power(g.values, lam)
    g_axes = [np.asarray(a, dtype=float) for a in g.axes]
    f_vals = f.values
    fmax = float(f_vals.max())
    window_f = f_vals > (SUPPORT_WINDOW * fmax if fmax > 0 else 0.0)
    window_g = g_pow > 0
    out = np.zeros(shape)
    out_flat = out.reshape(-1)
    f_axes = f.axes
    for iu in np.argwhere(window_f):
        fu = f_vals[tuple(iu)] ** (1.0 - lam)
        idx_axes = []
        inside = True
        for k in range(n):
            zk = c1 * f_axes[k][iu[k]] - c2 * g_axes[k]
            j = np.floor((zk - lo[k]) / steps[k]).astype(np.int64)
            valid = (j >= 0) & (j < shape[k])
            if not valid.any():
                inside = False
                break
            idx_axes.append((np.clip(j, 0, shape[k] - 1), valid))
        if not inside:
            continue
        valid = window_g.copy()
        for k in range(n):
            vshape = [1] * n
            vshape[k] = -1
            valid &= idx_axes[k][1].reshape(vshape)
        if not valid.any():
            continue
        flat_idx = np.zeros(g_pow.shape, dtype=np.int64)
        for k in range(n):
            vshape = [1] * n
            vshape[k] = -1
            flat_idx = flat_idx * shape[k] + idx_axes[k][0].reshape(vshape)
        vals = fu * g_pow
        np.maximum.at(out_flat, flat_idx[valid].ravel(), vals[valid].ravel())
    return out


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    base_value: float
    refined_value: float
    error_estimate: float
    refinable: bool


def quadrature(f):
    """Midpoint-rule integral with Richardson refinement when possible.

    With an evaluator: reports the Richardson extrapolation (4*I_2R - I_R)/3
    of the midpoint sums at resolutions R and 2R, with error estimate
    |I_2R - I_R| / 3.  Without one: the midpoint sum at R, with a
    second-difference error estimate.
    """
    cell = math.prod(f.widths)
    base = float(f.values.sum()) * cell
    if f.evaluator is not None:
        axes2 = [f.axis_centers(k, factor=2) for k in range(f.dim)]
        v2 = np.maximum(np.asarray(f.evaluator(axes2), dtype=float), 0.0)
        fine = float(v2.sum()) * cell / 2 ** f.dim
        value = (4.0 * fine - base) / 3.0
        err = abs(fine - base) / 3.0 + 1e-15
        return QuadratureResult(value, base, fine, err, True)
    err = 0.0
    v = f.values
    for k in range(f.dim):
        a = np.moveaxis(v, k, -1)
        second = np.abs(a[..., 2:] - 2.0 * a[..., 1:-1] + a[..., :-2])
        err += float(second.sum()) * cell / 24.0
    return QuadratureResult(base, base, base, err + 1e-15, False)


# ---------------------------------------------------------------------------
# pointwise combination


def _same_grid(f, g):
    return (
        f.dim == g.dim
        and f.resolution == g.resolution
        and all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
                for a, b in zip(f.lo, g.lo))
        and all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
                for a, b in zip(f.hi, g.hi))
    )


def geometric_mean(f, g, lam):
    """Pointwise f^lam * g^(1-lam) on a shared grid."""
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie strictly between 0 and 1")
    if not _same_grid(f, g):
        raise IncompatibleGrids("geometric_mean needs matching boxes and resolutions")
    values = np.power(f.values, lam) * np.power(g.values, 1.0 - lam)
    evaluator = None
    if f.evaluator is not None and g.evaluator is not None:
        def evaluator(axes, _f=f.evaluator, _g=g.evaluator, _lam=lam):
            fa = np.maximum(np.asarray(_f(axes), dtype=float), 0.0)
            ga = np.maximum(np.asarray(_g(axes), dtype=float), 0.0)
            return np.power(fa, _lam) * np.power(ga, 1.0 - _lam)
    return GridFunction(f.lo, f.hi, f.resolution, values,
                        log_concave=f.log_concave and g.log_concave,
                        evaluator=evaluator)


# ---------------------------------------------------------------------------
# the integral inequality


def verify_functional_inequality(f, g, lam):
    """Check Int(D) * Int(f^lam g^(1-lam)) <= Int(f) * Int(g) with error bars.

    The meta also reports the lower sandwich
    Int(D) >= ((1-lam)^(1-lam) * lam^lam)^n * (Int f)^(1-lam) * (Int g)^lam.
    """
    lam = float(lam)
    if not (f.log_concave and g.log_concave):
        raise NotLogConcave("the inequality is only claimed for log-concave inputs")
    diff = lambda_difference(f, g, lam)
    gm = geometric_mean(f, g, lam)
    q_diff = quadrature(diff)
    q_gm = quadrature(gm)
    q_f = quadrature(f)
    q_g = quadrature(g)
    lhs = q_diff.value * q_gm.value
    rhs = q_f.value * q_g.value
    err_lhs = abs(q_diff.value) * q_gm.error_estimate + \
        abs(q_gm.value) * q_diff.error_estimate + \
        q_diff.error_estimate * q_gm.error_estimate
    err_rhs = abs(q_f.value) * q_g.error_estimate + \
        abs(q_g.value) * q_f.error_estimate + \
        q_f.error_estimate * q_g.error_estimate
    tol = 3.0 * (err_lhs + err_rhs)
    n = f.dim
    pl_lower = ((1.0 - lam) ** (1.0 - lam) * lam ** lam) ** n * \
        q_f.value ** (1.0 - lam) * q_g.value ** lam
    err_pl = 0.0
    if q_f.value > 0 and q_g.value > 0:
        err_pl = pl_lower * ((1.0 - lam) * q_f.error_estimate / q_f.value +
                             lam * q_g.error_estimate / q_g.value)
    pl_pass = q_diff.value >= pl_lower - 3.0 * (q_diff.error_estimate + err_pl)
    passed = lhs <= rhs + tol
    meta = {
        "lambda": lam,
        "integral_difference": q_diff.value,
        "integral_geometric_mean": q_gm.value,
        "integral_f": q_f.value,
        "integral_g": q_g.value,
        "err_difference": q_diff.error_estimate,
        "err_geometric_mean": q_gm.error_estimate,
        "err_f": q_f.error_estimate,
        "err_g": q_g.error_estimate,
        "near_equality": abs(lhs - rhs) <= tol,
        "lower_bound": pl_lower,
        "lower_bound_pass": pl_pass,
        "method": "legendre" if diff.log_concave else "pairs",
    }
    ratio = lhs / rhs if rhs else None
    return CheckReport(lhs, rhs, ratio, tol, passed, meta)


# ---------------------------------------------------------------------------
# support-function bridge


def _require_interior_origin(P, name):
    for facet in P.facets:
        if not facet.offset > 0:
            raise OriginNotInterior(f"origin is not interior to {name}")


def _sample_directions(n):
    """The at most 16 unit directions the support identity is sampled along."""
    if n == 1:
        return ((1.0,), (-1.0,))
    if n == 2:
        return tuple((math.cos(2.0 * math.pi * k / 16.0), math.sin(2.0 * math.pi * k / 16.0))
                     for k in range(16))
    dirs = []
    for k in range(n):
        e = [0.0] * n
        e[k] = 1.0
        dirs.append(tuple(e))
        dirs.append(tuple(-x for x in e))
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        dirs.append(tuple(s / math.sqrt(n) for s in signs))
    return tuple(dirs[:16])


def _gauge(P, pts):
    """Gauge max(0, max_i n_i.u / o_i) of an exact body with interior
    origin at each row u of ``pts``, on float facet arrays."""
    normals = np.array([f.outward_normal for f in P.facets], dtype=float)
    offsets = np.array([f.offset for f in P.facets], dtype=float)
    return np.maximum((pts @ normals.T / offsets).max(axis=1), 0.0)


def _gauge_density(P, resolution):
    """exp(-gauge) of a body with interior origin, sampled on a covering box."""
    n = P.dim
    rho = max(abs(float(c)) for v in P.vertices for c in v)
    half = 14.0 * rho

    def ev(axes, _P=P):
        grids = _mesh(axes)
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        return np.exp(-_gauge(_P, pts)).reshape(grids[0].shape)

    res = min(resolution, 65) if n >= 3 else resolution
    # even cell count puts the gauge's kink at the origin on a cell edge,
    # keeping the midpoint rule second-order accurate
    if res % 2:
        res -= 1
    return sample_function(ev, [-half] * n, [half] * n, [res] * n, log_concave=True)


def delta_support_identity_check(K, L, lam, *, resolution=129):
    """Bridge check between the functional and geometric layers.

    K and L are exact bodies with the origin in their interiors.  For
    f = exp(-gauge_K) and g = exp(-gauge_L), the exponent of their
    weighted sup-convolution must equal the gauge of hull((1-lam)K, -lam L)
    along sampled directions (within grid tolerance); additionally the
    normalization Int exp(-gauge_K) = n! Vol(K) is verified by refined
    quadrature to 1e-3 relative.
    """
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie strictly between 0 and 1")
    _require_interior_origin(K, "K")
    _require_interior_origin(L, "L")
    n = K.dim

    f = _gauge_density(K, resolution)
    g = _gauge_density(L, resolution)
    diff = lambda_difference(f, g, lam)
    # The join is exact, at lam's binary value.
    join = convex_hull_union(scale_polytope(K, 1 - Fraction(lam)),
                             negate(scale_polytope(L, Fraction(lam))))

    r = 0.45 * min(min(diff.hi), min(-c for c in diff.lo))
    directions = _sample_directions(n)
    targets = _gauge(join, r * np.array(directions))
    samples = []
    max_rel = 0.0
    for d, target in zip(directions, targets.tolist()):
        z = tuple(r * c for c in d)
        dens = float(np.asarray(
            diff.evaluator([np.array([zc]) for zc in z])).ravel()[0])
        dval = -math.log(max(dens, 1e-300))
        rel = abs(dval - target) / max(abs(target), 1e-12)
        samples.append({"direction": list(d), "exponent": dval, "gauge": target,
                        "rel_dev": rel})
        max_rel = max(max_rel, rel)

    # grid tolerance: a couple of input cells of exponent slack, relative to
    # the magnitude of the compared exponent at the evaluation radius
    slope_scale = 0.0
    for fn in (f, g):
        with np.errstate(divide="ignore"):
            expo = -np.log(np.maximum(fn.values, 1e-300))
        for k in range(fn.dim):
            s = _axis_slopes(expo, fn.axis_centers(k), k)
            if s.size:
                slope_scale = max(slope_scale, float(np.max(np.abs(s))))
    h_max = max(max(f.widths), max(g.widths))
    typical = min(s["gauge"] for s in samples)
    grid_tol = max(0.05, 3.0 * slope_scale * h_max / max(typical, 1e-12))

    q = quadrature(f)
    target_norm = math.factorial(n) * float(volume(K))
    norm_rel = abs(q.value - target_norm) / target_norm
    norm_ok = norm_rel <= 1e-3 + 3.0 * q.error_estimate / target_norm

    passed = (max_rel <= grid_tol) and norm_ok
    meta = {
        "lambda": lam,
        "samples": samples,
        "grid_tolerance": grid_tol,
        "normalization_integral": q.value,
        "normalization_target": target_norm,
        "normalization_rel_dev": norm_rel,
        "normalization_pass": norm_ok,
        "evaluation_radius": r,
    }
    return CheckReport(max_rel, grid_tol, None, 0.0, passed, meta)


# ---------------------------------------------------------------------------
# stock densities


def sharp_exponential(n, *, hi=20.0, resolution=129):
    """exp(-sum x_i) restricted to [0, hi]^n."""

    def ev(axes):
        grids = _mesh(axes)
        return np.exp(-sum(grids))

    return sample_function(ev, [0.0] * n, [float(hi)] * n, [resolution] * n,
                           log_concave=True)


def sharp_pair(n, lam, resolution=129):
    """Two truncations of exp(-sum x_i) on [0, R]^n tuned so the exponent kink
    of their weighted sup-convolution falls exactly on an output cell edge at
    the given resolution and at its doubling, keeping refined quadrature
    clean.  Returns (f_role, g_role)."""
    lam_frac = Fraction(lam).limit_denominator(10 ** 6)
    res = int(resolution)
    r_f = Fraction(14) / (1 - lam_frac)
    k = math.ceil(res * lam_frac)
    if k >= res:
        k = res - 1
    r_g = Fraction(k, res - k) * (1 - lam_frac) ** 2 * r_f / lam_frac ** 2
    return (sharp_exponential(n, hi=r_f, resolution=res),
            sharp_exponential(n, hi=r_g, resolution=res))


def truncated_gaussian(n, *, half_width=5.0, resolution=129):
    """exp(-|x|^2 / 2) restricted to a centered box."""

    def ev(axes):
        grids = _mesh(axes)
        return np.exp(-0.5 * sum(g * g for g in grids))

    return sample_function(ev, [-float(half_width)] * n, [float(half_width)] * n,
                           [resolution] * n, log_concave=True)


def indicator_simplex(n, *, resolution=129):
    """Indicator of {x >= 0, sum x <= 2} on a padded box."""

    def ev(axes):
        grids = _mesh(axes)
        shape = np.broadcast_shapes(*[g.shape for g in grids])
        inside = np.ones(shape, dtype=bool)
        total = np.zeros(shape)
        for g in grids:
            gb = np.broadcast_to(g, shape)
            inside &= gb >= 0.0
            total = total + gb
        inside &= total <= 2.0
        return inside.astype(float)

    return sample_function(ev, [-0.5] * n, [2.5] * n, [resolution] * n, log_concave=True)

