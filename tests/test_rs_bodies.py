"""Tests for the joined cone body, its slices, the section-projection
inequality, and the product-volume bounds."""

import math
import random

import pytest

from godbersen_kit import polytopes, rs_bodies
from godbersen_kit.errors import DegenerateInput, OriginNotContained, OriginNotInterior
from godbersen_kit.harness import ExperimentConfig, run_trial
from godbersen_kit.polytopes import (
    centroid,
    convex_hull,
    convex_hull_union,
    cube,
    minkowski_sum,
    negate,
    scale_polytope,
    standard_simplex,
    translate,
    volume,
)
from godbersen_kit.rs_bodies import (
    build_C,
    corner_closed_forms,
    corner_polar_sum_body,
    corner_simplex_pair,
    g_volume_closed_form,
    verify_KL_inequality,
    verify_ckl_bound,
    verify_corner_equality,
    verify_join_volume_bound,
    verify_layered_lower_bound,
    verify_strange,
)
from godbersen_kit.scalars import rational as Q

from oracles import (
    EmptySection,
    homothety_support_identity,
    random_exact_points,
    section_projection_check,
    slice_of_C,
)


def assert_layered(K, L, C):
    """Every layer point of C is extreme, and the slices at five heights are
    (1-theta)L - theta*K."""
    zero, one = Q(0), Q(1)
    layers = [v + (zero,) for v in L.vertices]
    layers += [tuple(-c for c in w) + (one,) for w in K.vertices]
    assert list(C.vertices) == sorted(layers)
    assert slice_of_C(C, zero) == L
    assert slice_of_C(C, one) == negate(K)
    for theta in (Q(1, 4), Q(1, 2), Q(3, 4)):
        want = minkowski_sum(scale_polytope(L, 1 - theta), scale_polytope(K, -theta))
        assert slice_of_C(C, theta) == want


def random_centered(rng, n, m, denom=16):
    while True:
        try:
            P = convex_hull(random_exact_points(rng, m, n, denom=denom))
            break
        except DegenerateInput:
            continue
    return translate(P, tuple(-c for c in centroid(P)))


# ---------------------------------------------------------------------------
# build_C and slices


def test_build_c_segment():
    seg = cube(1, low=-1, high=1)
    C = build_C(seg, seg)
    assert_layered(seg, seg, C)
    assert volume(C) == 2
    # direct 2-d hull oracle
    direct = convex_hull([(-1, 0), (1, 0), (-1, 1), (1, 1)])
    assert C == direct
    for theta in (Q(0), Q(1, 3), Q(1)):
        s = slice_of_C(C, theta)
        assert volume(s) == 2


def test_build_c_slice_identity_triangle():
    T = standard_simplex(2)
    C = build_C(T, T)
    assert_layered(T, T, C)
    s = slice_of_C(C, Q(1, 3))
    expected = minkowski_sum(scale_polytope(T, Q(2, 3)), scale_polytope(T, Q(-1, 3)))
    assert s == expected


def test_build_c_volume_matches_slice_quadrature():
    rng = random.Random(3)
    K = random_centered(rng, 2, 7)
    L = random_centered(rng, 2, 7)
    C = build_C(K, L)
    total = Q(0)
    steps = 101
    for i in range(steps):
        theta = Q(2 * i + 1, 2 * steps)
        total += volume(slice_of_C(C, theta))
    estimate = total / steps
    exact = volume(C)
    assert abs(float(estimate - exact)) <= 1e-3 * float(exact)


def test_build_c_layer_vertices():
    K = cube(2, low=-1, high=1)
    L = standard_simplex(2)
    C = build_C(K, L)
    assert_layered(K, L, C)
    assert len(C.vertices) == len(K.vertices) + len(L.vertices)
    heights = {v[-1] for v in C.vertices}
    assert heights == {Q(0), Q(1)}


# ---------------------------------------------------------------------------
# g volume closed form


def test_g_closed_form_n1():
    seg = cube(1)
    assert g_volume_closed_form(seg, seg) == Q(1, 6)


def test_g_closed_form_n2_unit_area():
    K = cube(2)
    assert g_volume_closed_form(K, K) == Q(4, 120)


def test_g_closed_form_scaling():
    K = cube(2)
    L = standard_simplex(2)
    base = g_volume_closed_form(K, L)
    assert g_volume_closed_form(scale_polytope(K, 2), L) == 4 * base


# ---------------------------------------------------------------------------
# section-projection inequality


def test_section_projection_cube_center():
    for n, axes in ((2, (0,)), (3, (0,)), (3, (0, 1))):
        P = cube(n)
        center = tuple(Q(1, 2) for _ in range(n))
        rep = section_projection_check(P, axes, center)
        j = len(axes)
        assert rep.lhs == Q(math.factorial(j) * math.factorial(n - j), math.factorial(n))
        assert rep.rhs == 1
        assert rep.passed


def test_section_projection_simplex_equality():
    for n in (2, 3, 4):
        P = standard_simplex(n)
        for j in range(1, n):
            rep = section_projection_check(P, tuple(range(j)))
            assert rep.passed
            assert rep.lhs == rep.rhs, (n, j)
            assert rep.meta["equality_attained"]


def test_section_projection_random_sweep():
    rng = random.Random(7)
    for _ in range(10):
        P = random_centered(rng, 3, 9)
        for axes in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
            rep = section_projection_check(P, axes, centroid(P))
            assert rep.passed


def test_section_misses_polytope():
    P = cube(2)
    with pytest.raises(EmptySection):
        section_projection_check(P, (0,), (Q(0), Q(7)))


# ---------------------------------------------------------------------------
# product-volume bounds


def test_ckl_bound_rogers_shephard_case():
    for n in (1, 2):
        K = cube(n, low=-1, high=1)
        rep = verify_ckl_bound(K, K, Q(1, 2))
        assert rep.passed and not rep.meta["vacuous"]


def test_ckl_bound_simplex_equality_chain():
    S = standard_simplex(2)
    rep = verify_ckl_bound(S, S, Q(1, 2))
    assert rep.passed
    assert rep.lhs == rep.rhs


def test_ckl_bound_vacuous_endpoints():
    K = cube(2, low=-1, high=1)
    for theta in (Q(0), Q(1)):
        rep = verify_ckl_bound(K, K, theta)
        assert rep.passed and rep.meta["vacuous"]


def test_ckl_bound_random_grid():
    rng = random.Random(11)
    for _ in range(3):
        K = random_centered(rng, 2, 7)
        L = random_centered(rng, 2, 7)
        for i in range(1, 10):
            rep = verify_ckl_bound(K, L, Q(i, 10))
            assert rep.passed


def test_kl_inequality_simplex_equality():
    S = standard_simplex(2)
    rep = verify_KL_inequality(S, S, Q(1, 2))
    assert rep.passed
    assert rep.meta["equality_attained"]
    assert rep.lhs == rep.rhs == volume(S) ** 2


def test_kl_inequality_cube_strict():
    K = cube(2, low=-1, high=1)
    rep = verify_KL_inequality(K, K, Q(1, 2))
    assert rep.passed
    assert not rep.meta["equality_attained"]
    assert rep.lhs < rep.rhs


def test_kl_inequality_endpoints_vacuous():
    K = cube(2, low=-1, high=1)
    for theta in (Q(0), Q(1)):
        rep = verify_KL_inequality(K, K, theta)
        assert rep.passed and rep.lhs == 0


def test_kl_inequality_needs_origin():
    K = translate(cube(2), (Q(5), Q(5)))
    with pytest.raises(OriginNotContained):
        verify_KL_inequality(K, K, Q(1, 2))


def test_kl_inequality_random():
    rng = random.Random(13)
    for _ in range(5):
        K = random_centered(rng, 2, 8)
        L = random_centered(rng, 2, 8)
        for theta in (Q(1, 4), Q(1, 2), Q(3, 4)):
            rep = verify_KL_inequality(K, L, theta)
            assert rep.passed
            # A float theta is read at its exact value.
            assert verify_KL_inequality(K, L, float(theta)).to_json_dict() == rep.to_json_dict()


def test_kl_intersection_costs_two_hulls(monkeypatch):
    # The cut's vertices are enumerated once: one triangulation of the
    # polar rows and one of the vertex rows they give.
    hulls, inside = [], []
    original_triangulate = polytopes.triangulate

    def counting_triangulate(rows):
        if inside:
            hulls.append(len(rows))
        return original_triangulate(rows)

    def cut_stage(fn):
        def wrapper(*args, **kwargs):
            inside.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    monkeypatch.setattr(polytopes, "triangulate", counting_triangulate)
    monkeypatch.setattr(rs_bodies, "_scaled_intersection",
                        cut_stage(rs_bodies._scaled_intersection))
    monkeypatch.setattr(rs_bodies, "to_vrep", cut_stage(rs_bodies.to_vrep))
    rng = random.Random(14)
    K = random_centered(rng, 3, 9)
    L = random_centered(rng, 3, 9)
    rep = verify_KL_inequality(K, L, Q(1, 2))
    assert rep.passed and rep.meta["intersection_volume"] > 0
    assert len(hulls) == 2


def test_strange_trial_cuts_need_no_interior_lp(monkeypatch):
    # A centered trial body has the origin strictly inside every cut, so
    # the cut takes it as its interior point instead of solving an LP.
    lp_calls, cuts, inside = [], [], []
    original_lp = polytopes.feasible_interior
    original_cut = rs_bodies._scaled_intersection

    def counting_lp(*args, **kwargs):
        if inside:
            lp_calls.append(args)
        return original_lp(*args, **kwargs)

    def cut(*args):
        cuts.append(args)
        inside.append(True)
        try:
            return original_cut(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(polytopes, "feasible_interior", counting_lp)
    monkeypatch.setattr(rs_bodies, "_scaled_intersection", cut)
    records = run_trial(ExperimentConfig(kind="strange", n=3, trials=1, seed=14), 0)
    assert all(rec["pass"] for rec in records)
    assert len(cuts) == 3 and lp_calls == []


def test_kl_cut_with_origin_on_a_facet_falls_back_to_the_lp():
    K = standard_simplex(2)
    L = cube(2, low=-1, high=1)
    I = rs_bodies._scaled_intersection(K, L, Q(1, 2))
    assert I.full_dim and I.interior_point != (Q(0), Q(0))
    rep = verify_KL_inequality(K, L, Q(1, 2))
    # theta K is the smaller triangle and lies inside (1 - theta) L.
    assert rep.meta["intersection_volume"] == volume(K) / 4
    assert rep.passed


def test_homothety_identity_on_homothets():
    K = cube(2, low=-1, high=1)
    L = scale_polytope(K, 2)
    directions = [(Q(1), Q(0)), (Q(0), Q(1)), (Q(1), Q(1)), (Q(-1), Q(2))]
    # gauge_L = gauge_K / 2, so the factor (1-theta)/theta = 1/2 at theta=2/3
    ok, samples = homothety_support_identity(K, L, Q(2, 3), directions)
    assert ok
    bad, _ = homothety_support_identity(K, L, Q(1, 2), directions)
    assert not bad


def test_strange_cube():
    for n in (2, 3):
        K = cube(n, low=-1, high=1)
        rep = verify_strange(K, K)
        assert rep.passed
        assert rep.meta["polar_sum_polar_volume"] == volume(K) / 2**n
        assert rep.meta["inclusions_hold"]


def test_strange_random_pairs():
    rng = random.Random(17)
    for n in (2, 3):
        for _ in range(4):
            K = random_centered(rng, n, 3 * n)
            L = random_centered(rng, n, 3 * n)
            rep = verify_strange(K, L)
            assert rep.passed
            assert rep.meta["inclusions_hold"]


def test_strange_needs_interior_origin():
    with pytest.raises(OriginNotInterior):
        verify_strange(standard_simplex(2), standard_simplex(2))


# ---------------------------------------------------------------------------
# corner-simplex closed-form identities


def test_corner_equality_exact():
    for lams in ((Q(1, 2), Q(1)), (Q(1), Q(2)), (Q(1, 2), Q(1), Q(2)), (Q(2), Q(2), Q(2))):
        rep = verify_corner_equality(lams)
        assert rep.passed
        assert rep.meta["equality_attained"]


def test_corner_polar_sum_shape():
    lams = (Q(1), Q(1))
    M = corner_polar_sum_body(lams)
    # c = (2,2): conv{0, e_i/2}
    assert volume(M) == Q(1, 8)
    forms = corner_closed_forms(lams)
    assert forms["join_volume"] == 2
    assert forms["polar_sum_polar_volume"] == Q(1, 8)


def test_corner_join_closed_form():
    lams = (Q(1, 2), Q(3))
    K, L = corner_simplex_pair(lams)
    join = convex_hull_union(K, negate(L))
    assert volume(join) == corner_closed_forms(lams)["join_volume"]


# ---------------------------------------------------------------------------
# chains and corollaries


def test_layered_lower_bound_random():
    rng = random.Random(19)
    for _ in range(4):
        K = random_centered(rng, 2, 7)
        L = random_centered(rng, 2, 7)
        assert verify_layered_lower_bound(K, L).passed


def test_join_volume_bound_simplex_vertex_origin_equality():
    for n in (2, 3):
        S = standard_simplex(n)
        for lam in (Q(1, 4), Q(1, 2), Q(3, 4)):
            rep = verify_join_volume_bound(S, lam)
            assert rep.passed
            assert rep.meta["equality_attained"]
            assert rep.meta["product_inequality_pass"]


def test_join_volume_bound_strict_for_cube():
    K = cube(2, low=-1, high=1)
    rep = verify_join_volume_bound(K, Q(1, 3))
    assert rep.passed
    assert not rep.meta["equality_attained"]


def test_join_volume_bound_random_centered():
    rng = random.Random(23)
    for _ in range(5):
        K = random_centered(rng, 2, 8)
        for lam in (Q(1, 4), Q(1, 2), Q(2, 3)):
            assert verify_join_volume_bound(K, lam).passed
