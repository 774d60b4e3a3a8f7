"""Reproducible experiment harness driving the toolkit's checks in bulk.

The harness turns a validated :class:`ExperimentConfig` into a sweep of
randomized trials, streams one JSON-lines record per check to
``<output_path>.jsonl``, and writes a CSV companion (``<output_path>.csv``)
with the same per-trial rows plus min/max/mean ratio summary rows per
parameter cell.

Design rules the whole module obeys:

* **Byte-identical reruns.**  The same config must produce byte-identical
  output files.  All randomness flows through per-trial
  ``random.Random(seed * SEED_STRIDE + trial)`` streams, iteration orders
  are fixed, floats are summed with ``math.fsum`` in a fixed order, JSON is
  emitted with sorted keys and fixed separators, and no timestamps or
  environment data enter the records.
* **Hard versus soft checks.**  Records carry a ``hard`` flag.  Hard records
  verify proved statements; any hard failure makes :func:`run_experiment`
  return exit code 2.  Soft records track conjectured bounds or
  search-based certificates; their failures never fail the run — they are
  marked ``violation_candidate``.  Every failing record carries one
  ``reproduction`` payload: the trial's kind, n, seed, trial and mode, the
  record's non-null j/lambda/theta, then the trial's exact input vertices
  (the density parameters for ``functional``, the config for
  ``trial-error``).
* **Exact bodies and scalars.**  Every trial draws exact bodies, every
  polytope check is exact, with zero tolerance, so a failing record is a
  true failure on the recorded vertices, and every lambda and theta is an
  exact rational (a float grid entry at its binary value).  A sweep's
  ``mode`` changes no value: ``float`` is accepted by the kinds that
  compute in floats either way (``gfr``, ``godbersen-via-gfr`` and
  ``functional``), rejected by the others, and written into
  reproductions.

The translation search (:func:`minimize_over_translation`) is Kelley's
cutting-plane method on a convex objective, run in float arithmetic.  Its
``value`` U is the objective at the returned point, hence an *upper bound*
on the true minimum over translations: a value below a claimed bound
certifies the bound, a value above it is inconclusive.  Its float lower
bound L brackets the minimum but certifies nothing.  Records built from
the search are therefore always soft.
"""

import contextlib
import dataclasses
import json
import math
import random
import sys
from fractions import Fraction

from .errors import DegenerateInput, GodbersenKitError
from .mixed import difference_body_check, godbersen_ratio, mixed_volumes
from .planar import reduce_to_triangle, verify_planar_gfr
from .polytopes import (
    MAX_DIM,
    boundary_fan,
    centroid,
    convex_hull,
    convex_hull_union,
    fan_total,
    negate,
    point_row,
    scale_polytope,
    scaled_reflected_join,
    translate,
    triangulate,
    volume,
)
from .reports import CheckReport, comparison_report, equality_report
from .rs_bodies import MAX_BASE_DIM, build_C, verify_KL_inequality, verify_ckl_bound, verify_strange
from .scalars import EXACT, FLOAT, FLOAT_EPS, rational, rationalize, read_exact, scalar_to_json
from .simplexes import gfr_implies_godbersen_bound, simplex_hull_ratio

KINDS = (
    "godbersen",
    "godbersen-via-gfr",
    "gfr",
    "kl",
    "strange",
    "ckl",
    "functional",
    "planar",
)
FLAVORS = ("hull-of-gaussians", "hull-of-sphere-points", "perturbed-simplex")
SEED_STRIDE = 1_000_003
PAIR_SEED_OFFSET = 524_287
MAX_SEARCH_PROBES = 64
COORDINATE_DENOMINATOR = 1 << 20
CSV_COLUMNS = ("kind", "n", "j", "lambda", "theta", "seed", "trial",
               "lhs", "rhs", "ratio", "pass")

_KINDS_WITH_J = ("godbersen", "godbersen-via-gfr")
_KINDS_WITH_LAMBDA = ("godbersen-via-gfr", "gfr", "functional", "planar")
_KINDS_WITH_THETA = ("kl", "strange", "ckl")
_KINDS_WITH_FLOAT = ("godbersen-via-gfr", "gfr", "functional")
_DEFAULT_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
# n=5 polar bodies take minutes per trial
_STRANGE_MAX_DIM = 4


def thread_cap():
    """1: every sweep runs its trials in order on the calling thread."""
    return 1


# ---------------------------------------------------------------------------
# configuration


def _grid_value(value):
    """One grid entry as an exact rational, required to lie in [0, 1]."""
    if isinstance(value, bool):
        raise ValueError("grid entries must be numbers, got %r" % value)
    out = read_exact(value)
    if not 0 <= out <= 1:
        raise ValueError("grid entry %s outside [0, 1]" % value)
    return out


_CONFIG_FIELDS = ("kind", "n", "trials", "seed", "lambda_grid", "theta_grid",
                  "j_list", "mode", "output_path")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one experiment sweep.

    ``lambda_grid``/``theta_grid`` entries may be given as fraction strings
    ("1/4"), integers, floats, or Fractions; they are read as exact
    rationals, a float at its binary value, and must lie in [0, 1].
    For kind ``godbersen-via-gfr`` the lambda grid is always the derived
    set {(n+1-j)/(n+1) : j in j_list}; a user-supplied grid is rejected so
    that the run provably exercises exactly that set.
    """

    kind: str
    n: int
    trials: int = 1
    seed: int = 0
    lambda_grid: tuple = None
    theta_grid: tuple = None
    j_list: tuple = None
    mode: str = EXACT
    output_path: str = "experiment"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown kind %r; expected one of %s" % (self.kind, list(KINDS)))
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError("n must be an integer")
        if not 1 <= self.n <= MAX_DIM:
            raise ValueError("n=%d outside the supported range 1..%d" % (self.n, MAX_DIM))
        if self.kind == "planar" and self.n != 2:
            raise ValueError("kind 'planar' requires n=2")
        if self.kind == "functional" and self.n > 3:
            raise ValueError("kind 'functional' supports n <= 3")
        if self.kind in _KINDS_WITH_J and self.n < 2:
            raise ValueError("kind %r needs n >= 2 so that 1 <= j <= n-1 is nonempty" % self.kind)
        if not isinstance(self.trials, int) or isinstance(self.trials, bool) or self.trials < 1:
            raise ValueError("trials must be an integer >= 1")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError("seed must be an integer")
        if self.mode not in (EXACT, FLOAT):
            raise ValueError("mode must be %r or %r" % (EXACT, FLOAT))
        if self.mode == FLOAT and self.kind not in _KINDS_WITH_FLOAT:
            raise ValueError("kind %r checks exact bodies; use mode='exact'" % self.kind)
        if self.kind == "ckl" and self.n > MAX_BASE_DIM:
            raise ValueError("kind 'ckl' supports n <= %d" % MAX_BASE_DIM)
        if self.kind == "strange" and self.n > _STRANGE_MAX_DIM:
            raise ValueError("kind 'strange' supports n <= %d" % _STRANGE_MAX_DIM)
        if not isinstance(self.output_path, str) or not self.output_path:
            raise ValueError("output_path must be a nonempty string")

        if self.kind in _KINDS_WITH_J:
            js = self.j_list if self.j_list is not None else tuple(range(1, self.n))
            js = tuple(js)
            for j in js:
                if not isinstance(j, int) or isinstance(j, bool) or not 1 <= j <= self.n - 1:
                    raise ValueError("j_list entries must be integers in 1..n-1, got %r" % (j,))
            if not js:
                raise ValueError("j_list must be nonempty")
            object.__setattr__(self, "j_list", js)
        elif self.j_list is not None:
            raise ValueError("j_list only applies to kinds %s" % (_KINDS_WITH_J,))

        if self.kind == "godbersen-via-gfr":
            if self.lambda_grid is not None:
                raise ValueError(
                    "kind 'godbersen-via-gfr' derives its lambda grid from j_list; "
                    "do not supply lambda_grid")
            derived = tuple(rational(self.n + 1 - j, self.n + 1) for j in self.j_list)
            object.__setattr__(self, "lambda_grid", derived)
        elif self.kind in _KINDS_WITH_LAMBDA:
            raw = self.lambda_grid if self.lambda_grid is not None else _DEFAULT_GRID
            grid = tuple(_grid_value(v) for v in raw)
            if not grid:
                raise ValueError("lambda_grid must be nonempty")
            if self.kind == "functional":
                for v in grid:
                    if not 0 < v < 1:
                        raise ValueError("functional sweeps need lambda strictly inside (0, 1)")
            object.__setattr__(self, "lambda_grid", grid)
        elif self.lambda_grid is not None:
            raise ValueError("lambda_grid only applies to kinds %s" % (_KINDS_WITH_LAMBDA,))

        if self.kind in _KINDS_WITH_THETA:
            raw = self.theta_grid if self.theta_grid is not None else _DEFAULT_GRID
            grid = tuple(_grid_value(v) for v in raw)
            if not grid:
                raise ValueError("theta_grid must be nonempty")
            object.__setattr__(self, "theta_grid", grid)
        elif self.theta_grid is not None:
            raise ValueError("theta_grid only applies to kinds %s" % (_KINDS_WITH_THETA,))

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
        unknown = sorted(set(obj) - set(_CONFIG_FIELDS))
        if unknown:
            raise ValueError("unknown config fields: %s" % ", ".join(unknown))
        if "kind" not in obj or "n" not in obj:
            raise ValueError("config requires at least 'kind' and 'n'")
        kwargs = dict(obj)
        for key in ("lambda_grid", "theta_grid", "j_list"):
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    def to_json_dict(self):
        def grid(values):
            if values is None:
                return None
            return [scalar_to_json(v) for v in values]

        return {
            "kind": self.kind,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "lambda_grid": grid(self.lambda_grid),
            "theta_grid": grid(self.theta_grid),
            "j_list": list(self.j_list) if self.j_list is not None else None,
            "mode": self.mode,
            "output_path": self.output_path,
        }


# ---------------------------------------------------------------------------
# random bodies


def _raw_points(rng, n, m, flavor, perturbation):
    if flavor == "perturbed-simplex":
        eps = rational(1, 8) if perturbation is None else read_exact(perturbation)
        pts = []
        for i in range(n + 1):
            base = tuple(rational(1 if j == i - 1 else 0) for j in range(n))
            jitter = tuple(rationalize(rng.gauss(0.0, 1.0), COORDINATE_DENOMINATOR)
                           for _ in range(n))
            pts.append(tuple(b + eps * d for b, d in zip(base, jitter)))
        return pts
    pts = []
    for _ in range(m):
        raw = [rng.gauss(0.0, 1.0) for _ in range(n)]
        if flavor == "hull-of-sphere-points":
            norm = math.sqrt(math.fsum(c * c for c in raw))
            if norm < 1e-9:
                raw = [1.0] + [0.0] * (n - 1)
                norm = 1.0
            raw = [c / norm for c in raw]
        pts.append(tuple(rationalize(c, COORDINATE_DENOMINATOR) for c in raw))
    return pts


def random_polytope(n, m, seed, flavor="hull-of-gaussians", *, perturbation=None):
    """Deterministic seeded random body: centered, volume ~= 1.

    Coordinates are rationalized before the hull is taken, so the body is
    exactly representable; the centroid is translated to the origin exactly
    and the volume is normalized by a rationalized approximation of
    ``vol**(-1/n)`` (the normalization is cosmetic — every check in the
    toolkit is scaling-homogeneous).  Flavors:

    * ``hull-of-gaussians`` — hull of m standard Gaussian points;
    * ``hull-of-sphere-points`` — hull of m unit-sphere points;
    * ``perturbed-simplex`` — the n+1 standard-simplex vertices, each moved
      by ``perturbation`` (default 1/8) times a Gaussian jitter; zero
      perturbation reproduces the simplex itself (m only lower-bounds the
      draw and is otherwise ignored for this flavor).

    A degenerate draw (hull not full-dimensional) is retried up to 10 times
    from the same random stream before the error surfaces.
    """
    if not 1 <= n <= MAX_DIM:
        raise ValueError("n=%d outside the supported range 1..%d" % (n, MAX_DIM))
    if m < n + 1:
        raise ValueError("need m >= n+1 points, got m=%d" % m)
    if flavor not in FLAVORS:
        raise ValueError("unknown flavor %r; expected one of %s" % (flavor, list(FLAVORS)))
    rng = random.Random(seed)
    last = None
    for _ in range(10):
        pts = _raw_points(rng, n, m, flavor, perturbation)
        try:
            body = convex_hull(pts)
        except DegenerateInput as exc:
            last = exc
            continue
        body = translate(body, tuple(-c for c in centroid(body)))
        factor = rationalize(float(volume(body)) ** (-1.0 / n), COORDINATE_DENOMINATOR)
        if factor > 0:
            body = scale_polytope(body, factor)
        return body
    raise DegenerateInput(
        "no full-dimensional hull after 10 attempts (n=%d, m=%d, flavor=%s)"
        % (n, m, flavor)) from last


# ---------------------------------------------------------------------------
# translation search


@dataclasses.dataclass(frozen=True)
class TranslationSolution:
    """Result of the translation search.

    ``value`` is the objective at ``x_star``, an upper bound U on the
    minimum over translations; ``lower_bound`` is the cutting-plane bound
    L <= the minimum, up to float rounding.  ``iterations`` counts the
    probes made.
    """

    x_star: tuple
    value: float
    lower_bound: float
    iterations: int


def join_volume_and_subgradient(a, b, x):
    """f(x) = Vol conv(A v (B + x)) and a subgradient of f at x.

    ``a`` and ``b`` are arrays of points.  The value is the exact fan volume
    of the :func:`triangulate` of the cloud's rows, rounded once by one
    int/int division.  Fanned from the cloud's mean c, f is the sum of
    |det(sigma - c)| / d! over the boundary simplices sigma, and the
    derivative of a determinant in one of its rows is that row's cofactor;
    c drops out, since the fan volume does not depend on it.  The sum of
    the B points' cofactor rows over d! is the gradient of f where the
    triangulation is stable and, f being convex, a subgradient everywhere.
    """
    import numpy as np

    cloud = np.vstack([a, b + x])
    d = cloud.shape[1]
    exact_rows = [point_row(p) for p in cloud.tolist()]
    basis, simplices = triangulate(exact_rows)
    scale, weights, cones = boundary_fan(exact_rows, basis[0], simplices)
    value = fan_total(scale, weights, cones) / (math.factorial(d) * scale ** (d + 1))
    rows = np.array([verts for verts, _, _ in simplices])
    fan = cloud[rows] - cloud.mean(axis=0)
    # |det M| inv(M)^T = sign(det M) cof(M): cofactors oriented to a positive fan.
    cof = np.abs(np.linalg.det(fan))[:, None, None] * np.linalg.inv(fan).transpose(0, 2, 1)
    moving = (rows >= len(a))[..., None]
    return value, (cof * moving).sum(axis=(0, 1)) / math.factorial(d)


def _unit_plane(facet):
    """Float unit normal and offset of an exact facet.

    Dividing by the largest component first keeps every quotient within
    [-1, 1], each rounded once; the exact values may lie beyond the float
    range.
    """
    top = max(abs(c) for c in facet.outward_normal)
    unit = [float(c / top) for c in facet.outward_normal]
    norm = math.hypot(*unit)
    return tuple(c / norm for c in unit), float(facet.offset / top) / norm


def minimize_over_translation(K, lam):
    """Minimize f(x) = Vol((1-lam)(K-x) v -lam(K-x)) over x in K.

    f is convex in x (the bodies form a linear parameter system), so
    Kelley's cutting-plane method applies.  Starting at the centroid, each
    probe y adds the cut t >= f(y) + g.(z - y), g from
    :func:`join_volume_and_subgradient`, and the LP min t over z in K gives
    the next probe and a lower bound L.  The search stops when the best
    value U satisfies U - L <= 1e-9 U, or after ``MAX_SEARCH_PROBES`` probes.
    A probe replaces the best point only when strictly lower, so on a flat
    minimum the centroid is kept.  The search runs in float arithmetic: the
    exact body's vertices, centroid and facets are rounded once on entry.
    """
    import numpy as np

    from .lp import OPTIMAL, simplex_max

    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    start = np.array([float(c) for c in centroid(K)])
    if lam in (0.0, 1.0):
        vol = float(volume(K))
        return TranslationSolution(tuple(start.tolist()), vol, vol, 0)
    n = K.dim
    verts = np.array(K.vertices, dtype=float)
    # Scaling by 2^-e is exact and brings the largest coordinate into
    # [1/2, 1), the range the LP's absolute eps is meant for.
    e = math.frexp(float(np.abs(verts).max()))[1]
    verts = np.ldexp(verts, -e)
    a, b = (1.0 - lam) * verts, -lam * verts
    c = y = best = np.ldexp(start, -e)
    # The LP runs in u = z - c, split as u = up - um, and v = t0 - t, all
    # >= 0, with t0 the cuts' largest value at c: each cut reads
    # g.u + v <= t0 - (its value at c), so every right-hand side is >= 0,
    # as ``simplex_max`` requires.  It maximizes v.
    planes = sorted(_unit_plane(f) for f in K.facets)
    facets = [list(normal) + [-x for x in normal] + [0.0] for normal, _ in planes]
    slacks = [math.ldexp(offset, -e) - float(np.dot(normal, c)) for normal, offset in planes]
    cuts, heights = [], []
    upper, lower, probes = math.inf, 0.0, 0
    while probes < MAX_SEARCH_PROBES:
        value, g = join_volume_and_subgradient(a, b, y)
        probes += 1
        if value < upper:
            best, upper = y, value
        cuts.append(g.tolist() + (-g).tolist() + [1.0])
        heights.append(value + float(g @ (c - y)))
        top = max(heights)
        status, v, w = simplex_max([0.0] * (2 * n) + [1.0], facets + cuts,
                                   slacks + [top - h for h in heights], eps=FLOAT_EPS)
        if status != OPTIMAL:
            break
        lower = max(lower, top - v)
        if upper - lower <= 1e-9 * upper:
            break
        y = c + np.array(w[:n]) - np.array(w[n:2 * n])
    return TranslationSolution(tuple(np.ldexp(best, e).tolist()), math.ldexp(upper, e * n),
                               math.ldexp(min(lower, upper), e * n), probes)


# ---------------------------------------------------------------------------
# records


def _record(config, trial, report, check, hard, axes, payload):
    """One output record of ``report``; ``axes`` maps any of "j", "lambda"
    and "theta" to the record's own value.

    Every failing record carries the same ``reproduction``: the trial's
    kind, n, seed, trial and mode, then the record's non-null j, lambda and
    theta, then the trial's ``payload``.  A failing soft record is also
    marked ``violation_candidate``.
    """
    rec = dict(report.to_json_dict(), kind=config.kind, check=check, hard=bool(hard),
               n=config.n, j=axes.get("j"), seed=config.seed, trial=trial)
    for axis in ("lambda", "theta"):
        rec[axis] = None if axes.get(axis) is None else scalar_to_json(axes[axis])
    if not report.passed:
        rec["reproduction"] = {
            "kind": config.kind, "n": config.n, "seed": config.seed, "trial": trial,
            "mode": config.mode,
            **{k: rec[k] for k in ("j", "lambda", "theta") if rec[k] is not None},
            **payload}
        if not hard:
            rec["violation_candidate"] = True
    return rec


def _vertices(*bodies):
    """Reproduction payload of a polytope trial: its exact input bodies."""
    return {"vertices": [[[scalar_to_json(c) for c in v] for v in body.vertices]
                         for body in bodies]}


def _trial_seed(config, trial):
    return config.seed * SEED_STRIDE + trial


def _trial_body(config, trial, *, offset=0):
    """The exact body of one (trial, offset)."""
    flavor = FLAVORS[(trial + offset) % len(FLAVORS)]
    m = config.n + 3 + ((trial + offset) % 5)
    seed = _trial_seed(config, trial) + offset * PAIR_SEED_OFFSET
    return random_polytope(config.n, m, seed, flavor)


# ---------------------------------------------------------------------------
# per-kind trial runners


def _godbersen_trial(config, trial):
    K = _trial_body(config, trial)
    # One Cayley fan serves every check below.
    mixed = mixed_volumes(K, negate(K))
    checks = []
    for j in config.j_list:
        rep = godbersen_ratio(K, j, mixed)
        # The same ratio against the conjectured C(n, j).
        conj = comparison_report(rep.lhs, rep.meta["rhs_conjectured"],
                                 meta={k: rep.meta[k] for k in ("n", "j", "method")})
        checks += [("translation-bound", True, rep, {"j": j}),
                   ("binomial-conjecture", False, conj, {"j": j})]
    diff = difference_body_check(K, mixed)
    expansion = equality_report(diff.meta["expansion_sum"], diff.meta["difference_volume"],
                                meta={"n": config.n})
    checks += [("difference-body-bound", True, diff, {}),
               ("difference-body-expansion", True, expansion, {})]
    return _vertices(K), checks


def _search_bound(config, K, lam):
    """Translation-search value against the simplex hull bound (a soft check)."""
    sol = minimize_over_translation(K, float(lam))
    formula = simplex_hull_ratio(config.n, lam)
    body_volume = float(volume(K))
    rhs = float(formula.ratio) * body_volume
    return comparison_report(
        sol.value, rhs, tol=1e-6 * abs(rhs),
        meta={
            "n": config.n,
            "lambda": lam,
            "x_star": [float(c) for c in sol.x_star],
            "iterations": sol.iterations,
            "search": "kelley-cutting-plane",
            "certifies": "upper-bound-only",
            "lower_bound": sol.lower_bound,
            "body_volume": body_volume,
        })


def _via_gfr_trial(config, trial):
    K = _trial_body(config, trial)
    checks = []
    for j in config.j_list:
        lam = rational(config.n + 1 - j, config.n + 1)
        axes = {"j": j, "lambda": lam}
        checks += [("hull-ratio-implies-binomial-bound", True,
                    gfr_implies_godbersen_bound(config.n, j), axes),
                   ("translation-search-bound", False, _search_bound(config, K, lam), axes)]
    return _vertices(K), checks


def _gfr_trial(config, trial):
    K = _trial_body(config, trial)
    checks = []
    half = rational(1, 2)
    for lam in config.lambda_grid:
        checks.append(("translation-search-bound", False, _search_bound(config, K, lam),
                       {"lambda": lam}))
        if lam == half:
            cross = equality_report(
                simplex_hull_ratio(config.n, lam).ratio * 2 ** config.n,
                rational(math.comb(config.n, config.n // 2)),
                meta={"n": config.n,
                      "identity": "hull-ratio at 1/2 equals central binomial over 2^n"})
            checks.append(("halfway-binomial-cross-check", True, cross, {"lambda": lam}))
    return _vertices(K), checks


def _theta_trial(config, trial):
    """kl and ckl: one hard check per theta, on the join or layered body built once."""
    K, L = (_trial_body(config, trial, offset=i) for i in (0, 1))
    if config.kind == "kl":
        verify, check = verify_KL_inequality, "join-intersection-product"
        body = {"join": convex_hull_union(L, negate(K))}
    else:
        verify, check = verify_ckl_bound, "layered-body-volume-bound"
        body = {"C": build_C(K, L)}
    checks = [(check, True, verify(K, L, theta, **body), {"theta": theta})
              for theta in config.theta_grid]
    return _vertices(K, L), checks


def _strange_trial(config, trial):
    K, L = (_trial_body(config, trial, offset=i) for i in (0, 1))
    rep = verify_strange(K, L, config.theta_grid)
    inclusion = CheckReport(
        None, None, None, 0, bool(rep.meta["inclusions_hold"]),
        {"n": config.n, "inclusion_by_theta": rep.meta["inclusion_by_theta"]})
    return _vertices(K, L), [
        ("join-polar-sum-product", True, rep, {}),
        ("scaled-intersection-inclusion", True, inclusion, {}),
    ]


def _functional_pair(config, trial):
    """The trial's Gauss and Laplace densities and their parameters."""
    import numpy as np

    from . import functional

    n = config.n
    rng = random.Random(_trial_seed(config, trial))
    a = 0.6 + 1.2 * rng.random()
    b = 0.5 + rng.random()
    shift = rng.uniform(-0.4, 0.4)
    resolution = {1: 97, 2: 33, 3: 17}[n]
    half = {1: 5.0, 2: 4.0, 3: 3.5}[n]

    def gauss(axes):
        grids = np.meshgrid(*axes, indexing="ij")
        return np.exp(-a * sum(g * g for g in grids))

    def laplace(axes):
        grids = np.meshgrid(*axes, indexing="ij")
        return np.exp(-b * sum(np.abs(g - shift) for g in grids))

    f = functional.sample_function(gauss, lo=(-half,) * n, hi=(half,) * n,
                                   resolution=(resolution,) * n, log_concave=True)
    g = functional.sample_function(laplace, lo=(-half,) * n, hi=(half,) * n,
                                   resolution=(resolution,) * n, log_concave=True)
    params = {"gaussian_weight": a, "laplace_weight": b, "laplace_shift": shift,
              "resolution": resolution, "half_width": half}
    return f, g, params


def _functional_trial(config, trial):
    from . import functional

    n = config.n
    f, g, params = _functional_pair(config, trial)
    checks = []
    for lam in config.lambda_grid:
        rep = functional.verify_functional_inequality(f, g, float(lam))
        lower = CheckReport(
            rep.meta["lower_bound"], rep.meta["integral_difference"],
            rep.meta["lower_bound"] / rep.meta["integral_difference"]
            if rep.meta["integral_difference"] else None,
            3.0 * rep.meta["err_difference"], bool(rep.meta["lower_bound_pass"]),
            {"n": n, "direction": "lhs <= rhs up to quadrature error",
             "err_difference": rep.meta["err_difference"]})
        checks += [("product-inequality", True, rep, {"lambda": lam}),
                   ("product-lower-bound", True, lower, {"lambda": lam})]
    return params, checks


def _planar_trial(config, trial):
    m = 4 + (trial % 12)
    flavor = FLAVORS[trial % 2]
    body = random_polytope(2, m, _trial_seed(config, trial), flavor)
    area = volume(body)
    checks = []
    for lam in config.lambda_grid:
        steps = reduce_to_triangle(body, lam)
        ok_area = all(volume(s.after) == area for s in steps)
        ok_centroid = all(all(c == 0 for c in centroid(s.after)) for s in steps)
        ok_counts = all(len(s.after.vertices) == len(s.before.vertices) - 1
                        for s in steps)
        ok_monotone = all(s.objective_after >= s.objective_before for s in steps)
        ok_chain = all(steps[i].objective_before == steps[i - 1].objective_after
                       for i in range(1, len(steps)))
        # The centered input's join area; a triangle has no chain, but
        # random_polytope has centered the body already.
        start_obj = (steps[0].objective_before if steps
                     else volume(scaled_reflected_join(body, lam)))
        final_obj = steps[-1].objective_after if steps else start_obj
        bound = simplex_hull_ratio(2, lam).ratio * area
        base = comparison_report(final_obj, bound, tol=0, meta={
            "lambda": lam,
            "steps": len(steps),
            "start_vertices": len(body.vertices),
            "area_preserved": ok_area,
            "centroid_preserved": ok_centroid,
            "one_vertex_per_step": ok_counts,
            "objective_monotone": ok_monotone,
            "objective_chained": ok_chain,
        })
        all_ok = (base.passed and ok_area and ok_centroid and ok_counts
                  and ok_monotone and ok_chain)
        chain = dataclasses.replace(base, passed=bool(all_ok))
        checks += [("triangle-reduction-chain", True, chain, {"lambda": lam}),
                   ("hull-area-bound", True, verify_planar_gfr(body, lam, start_obj),
                    {"lambda": lam})]
    return _vertices(body), checks


_TRIAL_RUNNERS = {
    "godbersen": _godbersen_trial,
    "godbersen-via-gfr": _via_gfr_trial,
    "gfr": _gfr_trial,
    "kl": _theta_trial,
    "strange": _strange_trial,
    "ckl": _theta_trial,
    "functional": _functional_trial,
    "planar": _planar_trial,
}


def run_trial(config, trial):
    """All records for one trial, in their fixed emission order.

    The kind's runner returns the trial's reproduction payload and its
    checks, each a ``(name, hard, report, axes)`` tuple; every record is
    built here from one check.  Exact ``strange`` records at n=4 write
    ints beyond the interpreter's int/str digit limit, which
    :func:`run_experiment` lifts.
    """
    if not 0 <= trial < config.trials:
        raise ValueError("trial %d outside 0..%d" % (trial, config.trials - 1))
    payload, checks = _TRIAL_RUNNERS[config.kind](config, trial)
    return [_record(config, trial, report, check, hard, axes, payload)
            for check, hard, report, axes in checks]


# ---------------------------------------------------------------------------
# output


def _output_base(path):
    for ext in (".jsonl", ".csv", ".json"):
        if path.endswith(ext):
            return path[: -len(ext)]
    return path


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return json.dumps(value)
    return str(value)


def _ratio_as_float(value):
    if value is None:
        return None
    if isinstance(value, float):
        return value
    return float(Fraction(str(value)))


def _write_csv(fp, records):
    fp.write(",".join(CSV_COLUMNS) + "\n")
    cells = {}
    order = []
    for rec in records:
        fp.write(",".join(_csv_cell(rec[c]) for c in CSV_COLUMNS) + "\n")
        key = (rec["j"], rec["lambda"], rec["theta"])
        if key not in cells:
            cells[key] = {"ratios": [], "passes": [], "rec": rec}
            order.append(key)
        ratio = _ratio_as_float(rec["ratio"])
        if ratio is not None:
            cells[key]["ratios"].append(ratio)
        cells[key]["passes"].append(bool(rec["pass"]))
    for key in order:
        cell = cells[key]
        ratios = cell["ratios"]
        stats = (
            ("min", min(ratios) if ratios else None),
            ("max", max(ratios) if ratios else None),
            ("mean", math.fsum(ratios) / len(ratios) if ratios else None),
        )
        for label, value in stats:
            base = cell["rec"]
            row = {
                "kind": base["kind"], "n": base["n"], "j": key[0],
                "lambda": key[1], "theta": key[2], "seed": base["seed"],
                "trial": label, "lhs": None, "rhs": None,
                "ratio": value, "pass": all(cell["passes"]),
            }
            fp.write(",".join(_csv_cell(row[c]) for c in CSV_COLUMNS) + "\n")


@contextlib.contextmanager
def _long_ints():
    """Lift the interpreter's int/str digit limit (4,300 digits by default)
    for the enclosed code, and restore it after."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _isolated_trial(config, trial):
    """The trial's records, or one failing hard ``trial-error`` record when
    the trial raised a package error; the rest of the sweep goes on."""
    try:
        return run_trial(config, trial)
    except GodbersenKitError as exc:
        failed = CheckReport(None, None, None, 0, False,
                             {"error": type(exc).__name__, "message": str(exc)})
        payload = {k: v for k, v in config.to_json_dict().items() if k != "output_path"}
        return [_record(config, trial, failed, "trial-error", True, {}, {"config": payload})]


def run_experiment(config):
    """Run the sweep, write <base>.jsonl and <base>.csv, return an exit code.

    0 — all checks passed (soft violation candidates, if any, are recorded
    in the output but do not fail the run); 2 — some hard (proved) check
    failed beyond tolerance, or a trial raised a package error and was
    recorded as a failing ``trial-error``; 3 — the output files could not
    be written.  Exact rationals are written in full, however many digits
    they have.
    """
    if isinstance(config, dict):
        config = ExperimentConfig.from_json(config)
    base = _output_base(config.output_path)
    with _long_ints():
        records = [rec for t in range(config.trials) for rec in _isolated_trial(config, t)]
        try:
            with open(base + ".jsonl", "w") as fp:
                for rec in records:
                    fp.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
                    fp.write("\n")
            with open(base + ".csv", "w") as fp:
                _write_csv(fp, records)
        except OSError as exc:
            print("failed to write experiment output: %s" % exc, file=sys.stderr)
            return 3
    hard_failure = any(rec["hard"] and not rec["pass"] for rec in records)
    return 2 if hard_failure else 0
