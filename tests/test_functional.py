"""Tests for the gridded log-concave layer: the weighted sup-convolution,
its two evaluation routes, refined quadrature, the integral inequality, and
the support-function bridge."""

import math
import random

import numpy as np
import pytest

from godbersen_kit.errors import (
    IncompatibleGrids,
    NotLogConcave,
    OriginNotInterior,
)
from godbersen_kit.functional import (
    GridFunction,
    geometric_mean,
    lambda_difference,
    quadrature,
    sample_function,
    verify_functional_inequality,
    DUAL_MERGE_RTOL,
    _dual_cap,
)
from godbersen_kit import functional
from godbersen_kit.harness import ExperimentConfig, _functional_pair
from godbersen_kit.polytopes import centroid, convex_hull, cube, translate

from oracles import (
    brute_force_lambda_difference,
    delta_support_identity_check,
    gauge_density,
    indicator_simplex,
    lambda_abs,
    mesh,
    random_exact_points,
    sharp_exponential,
    sharp_pair,
    truncated_gaussian,
    unmerged_joint_dual_nodes,
)


def gaussian_density(n, half_width, resolution):
    return truncated_gaussian(n, half_width=half_width, resolution=resolution)


def laplace_density(n, half_width, resolution):
    def ev(axes):
        return np.exp(-sum(np.abs(g) for g in mesh(axes)))

    return sample_function(ev, [-half_width] * n, [half_width] * n,
                           [resolution] * n, log_concave=True)


def flag_free(f):
    """A copy of ``f`` without the log-concavity flag: lambda_difference then
    takes the pairs route."""
    return GridFunction(f.lo, f.hi, f.resolution, f.values)


# ---------------------------------------------------------------------------
# container and validation


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction([0.0] * 4, [1.0] * 4, [4] * 4, np.zeros((4,) * 4))
    with pytest.raises(ValueError):
        GridFunction([0.0], [1.0], [300], np.zeros(300))
    with pytest.raises(ValueError):
        GridFunction([1.0], [0.0], [4], np.zeros(4))
    with pytest.raises(ValueError):
        GridFunction([0.0], [1.0], [4], [-1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        GridFunction([0.0], [1.0], [4], [0.0, np.inf, 0.0, 0.0])
    f = GridFunction([0.0], [1.0], [4], [1.0, 2.0, 2.0, 1.0])
    assert f.dim == 1
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_log_concavity_gate():
    # a density with a strict interior dip fails the midpoint test
    with pytest.raises(NotLogConcave):
        GridFunction([0.0], [1.0], [5], [1.0, 0.1, 1.0, 0.1, 1.0],
                     log_concave=True)
    # geometric sequences pass exactly
    g = GridFunction([0.0], [1.0], [5], [1.0, 0.5, 0.25, 0.125, 0.0625],
                     log_concave=True)
    assert g.log_concave
    # zeros at the ends are fine (truncation)
    GridFunction([0.0], [1.0], [5], [0.0, 1.0, 2.0, 1.0, 0.0],
                 log_concave=True)


def test_axes_and_widths():
    f = GridFunction([0.0, -1.0], [1.0, 1.0], [4, 8], np.ones((4, 8)))
    assert f.widths == (0.25, 0.25)
    assert np.allclose(f.axis_centers(0), [0.125, 0.375, 0.625, 0.875])
    assert len(f.axis_centers(1, factor=2)) == 16
    assert f.axis_centers(1, factor=2)[0] == pytest.approx(-1.0 + 0.125 / 2)


def test_lambda_abs():
    assert lambda_abs(3.0, 0.25) == pytest.approx(4.0)
    assert lambda_abs(-3.0, 0.25) == pytest.approx(12.0)
    assert lambda_abs(0.0, 0.7) == 0.0
    with pytest.raises(ValueError):
        lambda_abs(1.0, 0.0)
    with pytest.raises(ValueError):
        lambda_abs(1.0, 1.0)


# ---------------------------------------------------------------------------
# the sharp exponential pair: closed form, machine-exact route


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
def test_sharp_pair_pointwise_1d(lam):
    f, g = sharp_pair(1, lam)
    d = lambda_difference(f, g, lam)
    z = d.axes[0]
    target = np.exp(-np.array([lambda_abs(v, lam) for v in z]))
    assert np.max(np.abs(d.values - target)) < 1e-9
    assert d.log_concave


def test_sharp_pair_pointwise_2d():
    lam = 0.25
    f, g = sharp_pair(2, lam)
    d = lambda_difference(f, g, lam)
    z0 = np.array([lambda_abs(v, lam) for v in d.axes[0]])
    z1 = np.array([lambda_abs(v, lam) for v in d.axes[1]])
    target = np.exp(-(z0[:, None] + z1[None, :]))
    assert np.max(np.abs(d.values - target)) < 1e-9


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
def test_sharp_pair_unit_integrals(n, lam):
    f, g = sharp_pair(n, lam)
    d = lambda_difference(f, g, lam)
    assert abs(quadrature(f).value - 1.0) < 1e-3
    assert abs(quadrature(g).value - 1.0) < 1e-3
    assert abs(quadrature(d).value - 1.0) < 1e-3


def test_sharp_pair_kink_on_cell_edge():
    # the exponent kink of the output sits exactly on a cell edge at the
    # working resolution and at its doubling
    for lam in (0.25, 0.4, 0.75):
        f, g = sharp_pair(1, lam, resolution=129)
        d = lambda_difference(f, g, lam)
        lo, hi = d.lo[0], d.hi[0]
        for factor in (1, 2):
            h = (hi - lo) / (129 * factor)
            pos = (0.0 - lo) / h
            assert abs(pos - round(pos)) < 1e-6


# ---------------------------------------------------------------------------
# route cross-validation against exhaustive oracles


def test_pairs_route_matches_brute_force_1d():
    f = gaussian_density(1, 4.0, 41)
    g = laplace_density(1, 4.0, 41)
    d = lambda_difference(flag_free(f), flag_free(g), 0.4)
    oracle = brute_force_lambda_difference(
        [np.asarray(a) for a in f.axes], f.values,
        [np.asarray(a) for a in g.axes], g.values,
        0.4, [np.asarray(a) for a in d.axes])
    assert np.max(np.abs(d.values - np.asarray(oracle))) < 1e-12


def test_pairs_route_matches_brute_force_2d():
    res = 13

    def ev(axes):
        g0, g1 = mesh(axes)
        return np.exp(-(g0 * g0 + 0.5 * g1 * g1 + 0.25 * g0 * g1))

    f = sample_function(ev, [-2.0, -2.0], [2.0, 2.0], [res, res])
    g = laplace_density(2, 2.0, res)
    # a weight whose squares are incommensurate with the shared grid step,
    # so no decomposition lands on an output cell edge and the floor/round
    # binning conventions of implementation and oracle agree everywhere
    lam = 0.3
    d = lambda_difference(flag_free(f), flag_free(g), lam)
    oracle = brute_force_lambda_difference(
        [np.asarray(a) for a in f.axes], f.values,
        [np.asarray(a) for a in g.axes], g.values,
        lam, [np.asarray(a) for a in d.axes])
    assert np.max(np.abs(d.values - np.asarray(oracle))) < 1e-12


def test_routes_agree_within_grid_error():
    # legendre evaluates the piecewise-linear exponent model; pairs bins
    # grid decompositions: they agree up to one-cell slope slack
    for res, cap in ((41, 0.12), (81, 0.06)):
        f = gaussian_density(1, 4.0, res)
        g = laplace_density(1, 4.0, res)
        d_leg = lambda_difference(f, g, 0.4)
        d_pairs = lambda_difference(flag_free(f), flag_free(g), 0.4)
        assert d_leg.box == d_pairs.box
        dev = np.max(np.abs(d_leg.values - d_pairs.values))
        assert dev < cap


def test_method_dispatch_and_gates():
    f = gaussian_density(1, 3.0, 17)
    g = laplace_density(1, 3.0, 17)
    assert lambda_difference(f, g, 0.5).log_concave  # legendre route
    assert not lambda_difference(flag_free(f), g, 0.5).log_concave  # pairs route
    with pytest.raises(ValueError):
        lambda_difference(f, g, 0.0)
    with pytest.raises(IncompatibleGrids):
        lambda_difference(f, laplace_density(1, 3.0, 19), 0.5)
    with pytest.raises(IncompatibleGrids):
        lambda_difference(f, laplace_density(2, 3.0, 17), 0.5)


# ---------------------------------------------------------------------------
# translation and scaling covariance


def test_translation_shift_of_output_box():
    lam = 0.5
    a, b = 1.0, 0.0
    f = gaussian_density(1, 3.0, 33)
    g = laplace_density(1, 3.0, 33)
    base = lambda_difference(f, g, lam)
    # f_a(x) = f(x + a): same values on the box shifted by -a
    fa = GridFunction([c - a for c in f.lo], [c - a for c in f.hi],
                      f.resolution, f.values, log_concave=True)
    gb = GridFunction([c - b for c in g.lo], [c - b for c in g.hi],
                      g.resolution, g.values, log_concave=True)
    shifted = lambda_difference(fa, gb, lam)
    # the output translates by the quadratic weights, not the linear ones:
    # shift = (1-lam)^2 a - lam^2 b  (= 0.25 here, not 0.5)
    expected = (1.0 - lam) ** 2 * a - lam ** 2 * b
    assert shifted.lo[0] == pytest.approx(base.lo[0] - expected, abs=1e-12)
    assert shifted.hi[0] == pytest.approx(base.hi[0] - expected, abs=1e-12)
    assert expected != pytest.approx((1.0 - lam) * a + lam * b)
    assert np.allclose(shifted.values, base.values, atol=1e-10)


def test_positive_scaling_homogeneity():
    lam = 0.3
    f = gaussian_density(1, 3.0, 33)
    g = laplace_density(1, 3.0, 33)
    base = lambda_difference(f, g, lam)
    a, b = 2.5, 0.7
    fa = GridFunction(f.lo, f.hi, f.resolution, a * f.values, log_concave=True)
    gb = GridFunction(g.lo, g.hi, g.resolution, b * g.values, log_concave=True)
    scaled = lambda_difference(fa, gb, lam)
    factor = a ** (1.0 - lam) * b ** lam
    assert scaled.box == base.box
    assert np.allclose(scaled.values, factor * base.values, rtol=1e-10, atol=1e-13)


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_exact_on_constant():
    f = sample_function(lambda axes: np.ones([len(a) for a in axes]),
                        [0.0], [1.0], [16])
    q = quadrature(f)
    assert q.value == pytest.approx(1.0, abs=1e-14)
    assert q.refinable


def test_quadrature_refined_exponential():
    f = sample_function(lambda axes: np.exp(-sum(mesh(axes))),
                        [0.0, 0.0], [10.0, 10.0], [129, 129])
    truth = (1.0 - math.exp(-10.0)) ** 2
    q = quadrature(f)
    assert abs(q.value - truth) < 1e-3
    assert abs(q.value - truth) <= 3.0 * q.error_estimate + 1e-9
    # the refinement halves the grid step; both stages are recorded
    assert q.refined_value != q.base_value


def test_quadrature_without_evaluator_reports_error_band():
    centers = (np.arange(65) + 0.5) * (5.0 / 65)
    f = GridFunction([0.0], [5.0], [65], np.exp(-centers ** 2 / 2.0))
    q = quadrature(f)
    assert not q.refinable
    truth = math.sqrt(math.pi / 2.0) * math.erf(5.0 / math.sqrt(2.0))
    assert abs(q.value - truth) <= 5.0 * q.error_estimate


# ---------------------------------------------------------------------------
# pointwise geometric mean


def test_geometric_mean_values_and_gates():
    f = gaussian_density(1, 3.0, 33)
    g = laplace_density(1, 3.0, 33)
    gm = geometric_mean(f, g, 0.25)
    assert np.allclose(gm.values, f.values ** 0.25 * g.values ** 0.75)
    assert gm.log_concave
    assert gm.evaluator is not None
    with pytest.raises(IncompatibleGrids):
        geometric_mean(f, laplace_density(1, 4.0, 33), 0.25)


# ---------------------------------------------------------------------------
# merged dual nodes


def _sweep_pair(n, resolution=None):
    config = ExperimentConfig(kind="functional", n=n, trials=1, seed=11)
    f, g, _ = _functional_pair(config, 0)
    if resolution is None:
        return f, g
    return tuple(sample_function(h.evaluator, h.lo, h.hi, (resolution,) * n,
                                 log_concave=True) for h in (f, g))


def _centered_gauge_pair():
    rng = random.Random(99)
    bodies = []
    for _ in range(2):
        P = convex_hull(random_exact_points(rng, 7, 2, denom=8))
        bodies.append(translate(P, tuple(-c for c in centroid(P))))
    # at resolution 16 the unmerged reference outgrows the cap of 1025
    return tuple(gauge_density(P, 12) for P in bodies)


_MERGE_CASES = {
    "sweep-n1": (lambda: _sweep_pair(1), 0.5),
    "sweep-n2": (lambda: _sweep_pair(2), 0.5),
    # the unmerged reference at the sweep's n = 3 resolution of 17 takes
    # about 15 s and 1.4 GB, so the sweep's functions are resampled at 7
    "sweep-n3": (lambda: _sweep_pair(3, resolution=7), 0.5),
    "indicator-simplex": (lambda: (indicator_simplex(2, resolution=33),) * 2, 1.0 / 3.0),
    "gauge-polygons": (_centered_gauge_pair, 0.4),
}


@pytest.mark.parametrize("case", sorted(_MERGE_CASES))
def test_merged_dual_nodes_match_unmerged_reference(monkeypatch, case):
    build, lam = _MERGE_CASES[case]
    f, g = build()
    merged_calls = []
    merge = functional._joint_dual_nodes

    def spy(slope_sets, cap):
        out = merge(slope_sets, cap)
        merged_calls.append((slope_sets, cap, out))
        return out

    monkeypatch.setattr(functional, "_joint_dual_nodes", spy)
    merged = lambda_difference(f, g, lam)
    q_merged = quadrature(merged)

    def reference_nodes(slope_sets, cap):
        out = unmerged_joint_dual_nodes(slope_sets, cap)
        assert len(out) < cap  # a subsampled reference would prove nothing
        return out

    monkeypatch.setattr(functional, "_joint_dual_nodes", reference_nodes)
    reference = lambda_difference(f, g, lam)
    q_reference = quadrature(reference)

    scale = float(np.max(np.abs(reference.values)))
    assert np.max(np.abs(merged.values - reference.values)) <= 1e-12 * scale
    for field in ("value", "base_value", "refined_value"):
        a, b = getattr(q_merged, field), getattr(q_reference, field)
        assert abs(a - b) <= 1e-12 * abs(b), (field, a, b)

    assert merged_calls
    for slope_sets, cap, kept in merged_calls:
        full = np.unique(np.concatenate([s for s in slope_sets if s.size]))
        assert len(kept) < cap  # the cap never subsamples these inputs
        assert np.all(np.isin(kept, full))
        tol = DUAL_MERGE_RTOL * max(1.0, float(np.max(np.abs(full))))
        representative = kept[np.searchsorted(kept, full, side="right") - 1]
        assert np.all(full - representative <= tol)


def test_merge_drops_only_rounding_copies():
    cap = _dual_cap(1)
    base = np.array([-2.0, -0.5, 0.0, 1e-3, 3.0])
    copies = base * (1.0 + 4e-16) + np.array([0.0, 2e-15, 1e-18, 0.0, -1e-15])
    kept = functional._joint_dual_nodes([base, copies, np.array([])], cap)
    assert len(kept) == len(base)
    assert np.max(np.abs(kept - base)) <= 1e-14
    distinct = np.array([1.0, 1.0 + 1e-9, 1.0 + 2e-9])
    assert len(functional._joint_dual_nodes([distinct], cap)) == 3
    assert np.array_equal(functional._joint_dual_nodes([np.array([])], cap), np.zeros(1))


# ---------------------------------------------------------------------------
# the integral inequality


def test_inequality_gaussian_laplace():
    f = gaussian_density(2, 5.0, 129)
    g = laplace_density(2, 5.0, 129)
    rep = verify_functional_inequality(f, g, 1.0 / 3.0)
    assert rep.passed
    m = rep.meta
    assert m["lower_bound_pass"]
    assert m["integral_difference"] >= m["lower_bound"] - 1e-6
    assert rep.lhs <= rep.rhs  # strict here, no tolerance needed
    assert not m["near_equality"]
    assert m["method"] == "legendre"


def test_inequality_requires_log_concave_flags():
    f = gaussian_density(1, 3.0, 33)
    with pytest.raises(NotLogConcave):
        verify_functional_inequality(flag_free(f), f, 0.5)


def test_inequality_random_log_concave_pairs():
    rng = random.Random(20260816)
    for trial in range(5):
        n = rng.choice([1, 1, 2])
        res = 65 if n == 2 else 129
        a = 0.4 + rng.random()
        b = 0.4 + rng.random()
        c = rng.uniform(-0.3, 0.3)

        def f_ev(axes, _a=a):
            return np.exp(-_a * sum(g * g for g in mesh(axes)))

        def g_ev(axes, _b=b, _c=c):
            grids = mesh(axes)
            return np.exp(-_b * sum(np.abs(g - _c) for g in grids))

        f = sample_function(f_ev, [-4.0] * n, [4.0] * n, [res] * n,
                            log_concave=True)
        g = sample_function(g_ev, [-4.0] * n, [4.0] * n, [res] * n,
                            log_concave=True)
        lam = rng.choice([0.25, 0.4, 0.5, 0.6, 0.75])
        rep = verify_functional_inequality(f, g, lam)
        assert rep.passed, (trial, n, lam, rep.lhs, rep.rhs)
        assert rep.meta["lower_bound_pass"], (trial, n, lam)


# ---------------------------------------------------------------------------
# support-function bridge


def test_support_identity_segment():
    seg = convex_hull([(-1,), (1,)])
    rep = delta_support_identity_check(seg, seg, 0.5)
    assert rep.passed
    m = rep.meta
    # the gauge of the join of [-1/2,1/2] with itself reflected is 2|z|;
    # the exponent route reproduces it exactly (piecewise linear)
    assert rep.lhs < 1e-9
    assert m["normalization_target"] == pytest.approx(2.0)
    assert abs(m["normalization_rel_dev"]) < 1e-3


@pytest.mark.parametrize("lam", [0.25, 0.5])
def test_support_identity_square(lam):
    sq = cube(2, low=-1, high=1)
    rep = delta_support_identity_check(sq, sq, lam)
    assert rep.passed
    assert len(rep.meta["samples"]) == 16
    assert rep.meta["normalization_pass"]
    assert rep.meta["normalization_target"] == pytest.approx(8.0)


def test_support_identity_random_centered_polygons():
    rng = random.Random(99)
    pts1 = random_exact_points(rng, 7, 2, denom=8)
    pts2 = random_exact_points(rng, 7, 2, denom=8)
    K = convex_hull(pts1)
    L = convex_hull(pts2)
    # recenter so the origin is interior
    K = translate(K, tuple(-c for c in centroid(K)))
    L = translate(L, tuple(-c for c in centroid(L)))
    rep = delta_support_identity_check(K, L, 0.4, resolution=65)
    assert rep.passed, rep.meta
    assert rep.meta["normalization_pass"]


def test_support_identity_rejects_origin_on_boundary():
    sq = cube(2)  # origin is a vertex
    with pytest.raises(OriginNotInterior):
        delta_support_identity_check(sq, sq, 0.5)


# ---------------------------------------------------------------------------
# stock densities


def test_built_in_names_and_shapes():
    f = sharp_exponential(1)
    assert f.resolution == (129,) and f.log_concave
    g = truncated_gaussian(2, resolution=33)
    assert g.resolution == (33, 33)
    h = indicator_simplex(2, resolution=65)
    # the simplex has volume scale^n / n! inside the sampling box
    assert quadrature(h).value == pytest.approx(2.0 ** 2 / 2.0, abs=2e-2)


def test_indicator_simplex_is_log_concave_grid():
    f = indicator_simplex(2, resolution=33)
    assert f.log_concave
    assert f.values.max() == 1.0


def test_sharp_exponential_integral():
    f = sharp_exponential(1)
    assert abs(quadrature(f).value - 1.0) < 1e-3
