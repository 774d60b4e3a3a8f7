"""Kernel tests: hulls, volumes, affine maps, Minkowski sums, intersections,
representation conversion, polars, centroids, support functions."""

import math
import random
import time
from fractions import Fraction

import pytest

from godbersen_kit.errors import (
    DegenerateInput,
    EmptyIntersection,
    OriginNotContained,
    OriginNotInterior,
    Unbounded,
)
from godbersen_kit.harness import random_polytope
from godbersen_kit.linalg import dot, vadd
from godbersen_kit.polytopes import (
    HPolytope,
    centroid,
    contains_point,
    contains_polytope,
    convex_hull,
    convex_hull_union,
    coordinate_bits,
    cross_polytope,
    cube,
    gauge,
    intersect,
    minkowski_sum,
    negate,
    polar,
    polar_body,
    polar_sum_polar,
    polytope_from_json,
    polytope_to_json,
    scale_polytope,
    standard_simplex,
    support,
    to_hrep,
    to_vrep,
    translate,
    volume,
)
from godbersen_kit.rs_bodies import _scaled_intersection
from godbersen_kit.scalars import rational as Q

from oracles import (
    affine_image,
    brute_force_extreme_points,
    brute_force_facet_planes_3d,
    lp_vertex_enumeration,
    monte_carlo_volume,
    random_exact_points,
)


def random_centered_polytope(rng, n, m, denom=32):
    pts = random_exact_points(rng, m, n, denom=denom)
    P = convex_hull(pts)
    return translate(P, tuple(-c for c in centroid(P)))


# ---------------------------------------------------------------------------
# convex_hull


def test_square_interior_point_dropped():
    P = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1), (Q(1, 2), Q(1, 2))])
    assert len(P.vertices) == 4
    assert (Q(1, 2), Q(1, 2)) not in P.vertices


def test_standard_simplex_hull():
    for n in range(1, 7):
        S = standard_simplex(n)
        assert len(S.vertices) == n + 1
        assert len(S.facets) == n + 1


def test_boundary_point_dropped():
    P = convex_hull([(0, 0), (2, 0), (0, 2), (1, 0), (1, 1)])
    assert len(P.vertices) == 3


def test_hull_matches_brute_force_3d():
    rng = random.Random(31)
    pts = random_exact_points(rng, 50, 3)
    P = convex_hull(pts)
    assert sorted(P.vertices) == brute_force_extreme_points(pts)
    planes = brute_force_facet_planes_3d(pts)
    assert sorted((f.outward_normal, f.offset) for f in P.facets) == planes


def test_hull_duplicate_points():
    P = convex_hull([(0, 0), (0, 0), (1, 0), (1, 0), (0, 1)])
    assert len(P.vertices) == 3


def test_degenerate_hull_raises():
    with pytest.raises(DegenerateInput):
        convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])
    with pytest.raises(DegenerateInput):
        convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])


def test_dimension_cap():
    with pytest.raises(ValueError):
        convex_hull([tuple(Q(i == j) for j in range(7)) for i in range(7)] + [(Q(0),) * 7])


# ---------------------------------------------------------------------------
# volume and centroid


def test_cube_volume():
    for d in range(1, 6):
        assert volume(cube(d)) == 1


def test_simplex_volume():
    for n in range(1, 7):
        assert volume(standard_simplex(n)) == Q(1, math.factorial(n))


def test_cross_polytope_volume():
    for n in (2, 3, 4):
        assert volume(cross_polytope(n)) == Q(2**n, math.factorial(n))


def test_monte_carlo_volume_random_3d():
    rng = random.Random(5)
    pts = random_exact_points(rng, 30, 3)
    P = convex_hull(pts)
    est, stderr = monte_carlo_volume(P, n_samples=1_000_000, seed=11)
    assert abs(float(volume(P)) - est) <= 3 * stderr


def test_centroid_cube():
    assert centroid(cube(2)) == (Q(1, 2), Q(1, 2))


def test_centroid_simplex_chart():
    # chart image of conv{e_1..e_{n+1}} under dropping the last coordinate:
    # conv{e_1..e_n, 0}, whose centroid is (1/(n+1), ..., 1/(n+1))
    for n in (2, 3, 4):
        S = standard_simplex(n)
        assert centroid(S) == (Q(1, n + 1),) * n


def test_centroid_matches_vertex_average_on_simplices():
    rng = random.Random(9)
    for _ in range(5):
        pts = random_exact_points(rng, 4, 3)
        try:
            P = convex_hull(pts)
        except DegenerateInput:
            continue
        avg = tuple(sum(p[c] for p in pts) / 4 for c in range(3))
        assert centroid(P) == avg


# ---------------------------------------------------------------------------
# affine images


def test_affine_reflection():
    sq = cube(2)
    R = affine_image(sq, [[-1, 0], [0, -1]])
    assert volume(R) == 1
    assert R.vertices == ((Q(-1), Q(-1)), (Q(-1), Q(0)), (Q(0), Q(-1)), (Q(0), Q(0)))


def test_affine_scaling_homogeneity():
    S = standard_simplex(3)
    for lam in (Q(1, 3), Q(1, 2), Q(2)):
        A = [[lam if i == j else Q(0) for j in range(3)] for i in range(3)]
        assert volume(affine_image(S, A)) == lam**3 * volume(S)


def test_affine_shear_preserves_volume():
    sq = cube(2)
    sheared = affine_image(sq, [[1, 1], [0, 1]])
    assert volume(sheared) == 1


def test_affine_singular_raises():
    sq = cube(2)
    with pytest.raises(DegenerateInput):
        affine_image(sq, [[1, 0], [1, 0]])


def test_affine_facets_consistent():
    rng = random.Random(2)
    pts = random_exact_points(rng, 12, 3)
    P = convex_hull(pts)
    A = [[2, 1, 0], [0, 1, 0], [1, 0, -3]]
    Pi = affine_image(P, A, (Q(1), Q(-2), Q(3)))
    for f in Pi.facets:
        vals = [dot(f.outward_normal, v) for v in Pi.vertices]
        assert all(val <= f.offset for val in vals)
        assert sum(val == f.offset for val in vals) >= Pi.dim


def test_float_affine_image_is_the_hull_of_mapped_vertices():
    # Float entries of A and b are read at their exact binary values: the
    # image equals the exact hull of the mapped vertices in every field,
    # not P's stored fields transformed.
    rng = random.Random(13)
    for n in (2, 3, 4):
        for seed in range(5):
            P = random_polytope(n, n + 4, seed)
            A = [[rng.choice((-1, 1)) * (3 * n) if i == j else rng.randint(-2, 2)
                  for j in range(n)] for i in range(n)]
            b = tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
            Af = [[float(c) for c in row] for row in A]
            H = convex_hull([vadd(tuple(dot(row, v) for row in A), tuple(map(Fraction, b)))
                             for v in P.vertices])
            Pi = affine_image(P, Af, b)
            assert Pi.vertices == H.vertices
            assert Pi.facets == H.facets
            assert volume(Pi) == volume(H)
            assert centroid(Pi) == centroid(H)


# ---------------------------------------------------------------------------
# minkowski sums


def test_minkowski_triangle_difference_body():
    T = standard_simplex(2)
    D = minkowski_sum(T, negate(T))
    assert volume(D) == 6 * volume(T)


def test_minkowski_commutes():
    rng = random.Random(13)
    P = convex_hull(random_exact_points(rng, 8, 3))
    R = convex_hull(random_exact_points(rng, 8, 3))
    assert minkowski_sum(P, R) == minkowski_sum(R, P)


# ---------------------------------------------------------------------------
# intersection


def test_intersect_self():
    H = to_hrep(cube(2))
    I = intersect(H, H)
    assert not I.empty and I.full_dim
    assert volume(to_vrep(I)) == 1


def test_intersect_boxes():
    A = to_hrep(cube(2))
    B = to_hrep(translate(cube(2), (Q(1, 2), Q(0))))
    I = intersect(A, B)
    assert volume(to_vrep(I)) == Q(1, 2)


def test_intersect_scaled_simplices():
    S = standard_simplex(2)
    A = to_hrep(scale_polytope(S, Q(1, 2)))
    B = to_hrep(translate(negate(scale_polytope(S, Q(1, 2))), (Q(1, 2), Q(1, 2))))
    # theta*S meets (1-theta)*S reflected through the segment midpoints at
    # theta=1/2; here: (1/2)S in both orientations shares the full (1/2)S
    I = intersect(A, to_hrep(scale_polytope(S, Q(1, 2))))
    V = to_vrep(I)
    assert volume(V) == Q(1, 8)
    assert V == scale_polytope(S, Q(1, 2))
    oracle = lp_vertex_enumeration(I.halfspaces, 2)
    assert list(V.vertices) == oracle


def test_intersect_empty_flag():
    A = to_hrep(cube(2))
    B = to_hrep(translate(cube(2), (Q(5), Q(5))))
    I = intersect(A, B)
    assert I.empty and not I.full_dim
    with pytest.raises(EmptyIntersection):
        to_vrep(I)


def test_intersect_flat_flag():
    A = to_hrep(cube(2))
    B = to_hrep(translate(cube(2), (Q(1), Q(0))))
    I = intersect(A, B)
    assert not I.empty and not I.full_dim


def test_intersect_vertices_drop_redundant_halfspaces():
    S = cube(2)
    H = to_hrep(S)
    loose = HPolytope(2, H.halfspaces + (((Q(1), Q(0)), Q(50)),))
    assert to_vrep(intersect(loose, H)) == S


def test_intersect_vertex_oracle_random():
    rng = random.Random(23)
    for _ in range(5):
        P = convex_hull(random_exact_points(rng, 10, 3))
        R = convex_hull(random_exact_points(rng, 10, 3))
        I = intersect(to_hrep(P), to_hrep(R))
        if I.empty or not I.full_dim:
            continue
        V = to_vrep(I)
        assert list(V.vertices) == lp_vertex_enumeration(I.halfspaces, 3)


# ---------------------------------------------------------------------------
# representation round trips


def test_cube_hrep_has_2d_halfspaces():
    for d in (2, 3, 4):
        assert len(to_hrep(cube(d)).halfspaces) == 2 * d


def test_simplex_round_trip():
    S = standard_simplex(3)
    assert to_vrep(to_hrep(S)) == S


def test_random_4polytope_round_trip():
    rng = random.Random(41)
    for _ in range(3):
        P = convex_hull(random_exact_points(rng, 14, 4))
        back = to_vrep(to_hrep(P))
        assert sorted(back.vertices) == sorted(P.vertices)


def test_to_vrep_with_a_given_off_origin_interior_point():
    # The polar trick runs around the given point, not the origin and not
    # a point the LP finds: a near-corner point of the body and the
    # vertex mean both give the body back, and a boundary point is refused.
    P = convex_hull(random_exact_points(random.Random(3), 10, 3))
    H = to_hrep(P)
    mean = tuple(sum(c) / len(P.vertices) for c in zip(*P.vertices))
    corner = tuple(Q(9, 10) * v + Q(1, 10) * m for v, m in zip(P.vertices[0], mean))
    for z in (mean, corner):
        assert any(z)
        assert contains_point(P, z, strict=True)
        assert to_vrep(HPolytope(H.dim, H.halfspaces, interior_point=z)) == P
    with pytest.raises(DegenerateInput, match="not strictly interior"):
        to_vrep(HPolytope(H.dim, H.halfspaces, interior_point=P.vertices[0]))


def test_to_vrep_unbounded():
    H = HPolytope(2, (((Q(1), Q(0)), Q(1)), ((Q(0), Q(1)), Q(1)), ((Q(-1), Q(0)), Q(1))))
    with pytest.raises(Unbounded):
        to_vrep(H)


def test_to_vrep_empty():
    H = HPolytope(1, (((Q(1),), Q(0)), ((Q(-1),), Q(-1))))
    with pytest.raises(EmptyIntersection):
        to_vrep(H)


# ---------------------------------------------------------------------------
# vertex enumeration and polars on rows, against the subset-solve oracle


def _random_hpolytope(rng, d):
    """Random half-spaces with 0 strictly inside (some redundant), boxed in
    by |x_i| <= 3 so that the body is bounded."""
    halfspaces = [(tuple(Q(int(i == j) * s) for j in range(d)), Q(3))
                  for i in range(d) for s in (1, -1)]
    for _ in range(3 * d):
        normal = tuple(Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d))
        if any(normal):
            halfspaces.append((normal, Q(rng.randint(1, 40), rng.randint(1, 12))))
    rng.shuffle(halfspaces)
    return HPolytope(d, tuple(halfspaces))


def test_vertex_enumeration_matches_the_oracle_around_any_interior_point():
    rng = random.Random(2901)
    for d in (2, 3):
        for _ in range(6):
            H = _random_hpolytope(rng, d)
            expected = lp_vertex_enumeration(H.halfspaces, d)
            mean = tuple(sum(c) / len(expected) for c in zip(*expected))
            corner = tuple(Q(99, 100) * v + Q(1, 100) * m for v, m in zip(expected[0], mean))
            # The LP's point, the origin, and two off-origin points.
            for z in (None, (Q(0),) * d, mean, corner):
                Hz = HPolytope(d, H.halfspaces, interior_point=z)
                assert list(to_vrep(Hz).vertices) == expected


def test_polars_match_the_oracle():
    rng = random.Random(2902)
    for d in (2, 3):
        for _ in range(6):
            H = _random_hpolytope(rng, d)
            # H's polar is cut out by v.y <= 1 over H's vertices v, and
            # the polar of a body by the same over its vertices.
            dual = [(v, Q(1)) for v in lp_vertex_enumeration(H.halfspaces, d)]
            assert list(polar(H).vertices) == lp_vertex_enumeration(dual, d)
            P = random_centered_polytope(rng, d, 3 * d + 2)
            dual = [(v, Q(1)) for v in P.vertices]
            assert list(polar_body(P).vertices) == lp_vertex_enumeration(dual, d)


def test_polar_sum_polar_matches_the_oracle():
    rng = random.Random(2903)
    for d, m in ((2, 8), (3, 4)):
        K, L = (random_centered_polytope(rng, d, m) for _ in range(2))
        # (K° + L°)° is cut out by (u + v).x <= 1 over the vertices u of K°
        # and v of L°, which are the facet vectors n/o.
        polars = [[tuple(c / f.offset for c in f.outward_normal) for f in P.facets] for P in (K, L)]
        sums = [(vadd(u, v), Q(1)) for u in polars[0] for v in polars[1]]
        assert list(polar_sum_polar(K, L).vertices) == lp_vertex_enumeration(sums, d)


@pytest.mark.parametrize("K", [cross_polytope(3), cube(3, low=-1, high=1),
                               random_centered_polytope(random.Random(2904), 3, 9)],
                         ids=["cross", "cube", "random"])
def test_non_simple_halfway_cut_is_the_half_body(K):
    # At theta = 1/2 the cut theta K cap (1 - theta) K lists every facet of
    # K/2 twice, so each vertex lies on at least 2d of its half-spaces.
    cut = _scaled_intersection(K, K, Q(1, 2))
    half = sorted(tuple(c / 2 for c in v) for v in K.vertices)
    assert half == lp_vertex_enumeration(cut.halfspaces, 3)
    assert to_vrep(cut) == scale_polytope(K, Q(1, 2))
    assert contains_polytope(scale_polytope(K, Q(1, 2)), cut)
    assert not contains_polytope(scale_polytope(K, Q(1, 3)), cut)


def test_vertex_enumeration_error_paths():
    square = to_hrep(cube(2, low=-1, high=1)).halfspaces
    slab = (((Q(1), Q(0)), Q(1)), ((Q(-1), Q(0)), Q(1)))
    half_plane = (((Q(1), Q(0)), Q(1)), ((Q(0), Q(1)), Q(1)), ((Q(-1), Q(0)), Q(1)))
    # Normals that do not span, and a polar hull with 0 on its boundary.
    for halfspaces in (slab, half_plane):
        with pytest.raises(Unbounded):
            to_vrep(HPolytope(2, halfspaces, interior_point=(Q(0), Q(0))))
    with pytest.raises(DegenerateInput, match="not strictly interior"):
        to_vrep(HPolytope(2, square, interior_point=(Q(1), Q(0))))
    with pytest.raises(EmptyIntersection):
        to_vrep(HPolytope(2, square, empty=True))
    with pytest.raises(EmptyIntersection):
        to_vrep(HPolytope(1, (((Q(1),), Q(0)), ((Q(-1),), Q(-1)))))
    with pytest.raises(OriginNotInterior):
        polar(HPolytope(2, square[:-1] + ((square[-1][0], Q(0)),)))
    with pytest.raises(OriginNotInterior):
        polar_sum_polar(cube(2, low=-1, high=1), standard_simplex(2))


# ---------------------------------------------------------------------------
# polar


def test_polar_cube_cross():
    for n in (2, 3, 4):
        K = cube(n, low=-1, high=1)
        Kp = polar_body(K)
        assert Kp == cross_polytope(n)
        assert volume(K) == 2**n
        assert volume(Kp) == Q(2**n, math.factorial(n))


def test_polar_representation_swap():
    K = cube(2, low=-1, high=1)
    H = polar(K)
    assert isinstance(H, HPolytope)
    assert len(H.halfspaces) == 4
    # H is the half-space form of K's polar, so dualizing it again returns K
    assert polar(H) == K
    assert to_vrep(H) == cross_polytope(2)


def test_bipolar_random_centered():
    rng = random.Random(17)
    for n in (2, 3):
        for _ in range(3):
            K = random_centered_polytope(rng, n, 3 * n + 2)
            assert polar_body(polar_body(K)) == K


def test_polar_needs_interior_origin():
    with pytest.raises(OriginNotInterior):
        polar(standard_simplex(2))
    with pytest.raises(OriginNotInterior):
        polar_body(translate(cube(2), (Q(5), Q(5))))


# ---------------------------------------------------------------------------
# support and gauge


def test_support_cube():
    K = cube(2, low=-1, high=1)
    assert support(K, (Q(1), Q(0))) == 1


def test_support_homogeneous():
    rng = random.Random(29)
    P = convex_hull(random_exact_points(rng, 10, 3))
    for _ in range(10):
        u = tuple(Q(rng.randint(-20, 20), 7) for _ in range(3))
        assert support(P, tuple(2 * c for c in u)) == 2 * support(P, u)


def test_support_of_join_is_max():
    rng = random.Random(37)
    for _ in range(5):
        K = convex_hull(random_exact_points(rng, 8, 2))
        L = convex_hull(random_exact_points(rng, 8, 2))
        J = convex_hull_union(K, negate(L))
        for _ in range(8):
            u = tuple(Q(rng.randint(-9, 9)) for _ in range(2))
            assert support(J, u) == max(support(K, u), support(L, tuple(-c for c in u)))


def test_gauge_box():
    K = cube(2, low=-1, high=1)
    assert gauge(K, (Q(1, 2), Q(0))) == Q(1, 2)
    assert gauge(K, (Q(1), Q(1))) == 1
    assert gauge(K, (Q(0), Q(0))) == 0


def test_gauge_vertex_at_origin():
    S = standard_simplex(2)
    assert gauge(S, (Q(1), Q(0))) == 1
    assert gauge(S, (Q(-1), Q(0))) is None
    with pytest.raises(OriginNotContained):
        gauge(translate(S, (Q(9), Q(9))), (Q(1), Q(1)))


# ---------------------------------------------------------------------------
# invariants


def test_translation_invariance():
    rng = random.Random(43)
    P = convex_hull(random_exact_points(rng, 10, 3))
    for _ in range(5):
        b = tuple(Q(rng.randint(-100, 100), 13) for _ in range(3))
        assert volume(convex_hull([vadd(v, b) for v in P.vertices])) == volume(P)


def test_scaling_homogeneity_invariant():
    rng = random.Random(47)
    for d in (2, 3):
        P = convex_hull(random_exact_points(rng, 8, d))
        for lam in (Q(1, 3), Q(1, 2), Q(2)):
            assert volume(scale_polytope(P, lam)) == lam**d * volume(P)


def test_monotonicity():
    rng = random.Random(53)
    for _ in range(5):
        inner_pts = random_exact_points(rng, 8, 3)
        outer_pts = inner_pts + random_exact_points(rng, 4, 3)
        P = convex_hull(inner_pts)
        R = convex_hull(outer_pts)
        assert contains_polytope(R, P)
        assert volume(P) <= volume(R)


def test_centered_reflection_containment():
    # -K inside n*K whenever the centroid sits at the origin
    rng = random.Random(59)
    for n in (2, 3, 4):
        K = random_centered_polytope(rng, n, 2 * n + 4)
        nK = scale_polytope(K, n)
        mK = negate(K)
        assert contains_polytope(nK, mK)


# A square with a second corner 1e-13 away from (1, 1), both extreme.
NEAR_DUPLICATES = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1 + 1e-13, 1 - 1e-13)]
# Points of the plane x + y + z = 1, off it only by the rounding of 1 - a - b.
ROUNDOFF_FLAT = [(a, b, 1 - a - b) for a, b in ((0.1, 0.2), (0.7, 0.1), (0.3, 0.6),
                                               (0.55, 0.35), (0.05, 0.9))]


def test_float_hull_keeps_near_duplicates_and_thin_clouds():
    # Float coordinates are read at their exact binary values.
    assert len(convex_hull(NEAR_DUPLICATES).vertices) == 5
    assert 0 < volume(convex_hull(ROUNDOFF_FLAT)) < 1e-15


def test_float_coordinates_beyond_the_float_volume_range_give_exact_volumes():
    for size in (1e300, 1e-300):
        square = [(0.0, 0.0), (size, 0.0), (0.0, size), (size, size)]
        assert volume(convex_hull(square)) == Fraction(size) ** 2


def test_float_hull_of_22_points_in_dimension_6_is_fast():
    rng = random.Random(6)
    pts = [tuple(rng.gauss(0, 1) for _ in range(6)) for _ in range(22)]
    start = time.perf_counter()
    F = convex_hull(pts)
    assert time.perf_counter() - start < 2.0
    assert F == convex_hull([tuple(Fraction(c) for c in p) for p in pts])
    assert volume(F) == volume(convex_hull([tuple(Fraction(c) for c in p) for p in pts]))


def test_exact_bit_size_reported():
    P = convex_hull([(Q(1, 3), Q(0)), (Q(0), Q(1, 7)), (Q(1), Q(1))])
    assert coordinate_bits(P) >= 3


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_exact():
    P = convex_hull([(Q(1, 3), Q(0)), (Q(0), Q(1, 7)), (Q(1), Q(1)), (Q(0), Q(0))])
    obj = polytope_to_json(P)
    assert obj["mode"] == "exact"
    assert all(isinstance(c, str) for v in obj["vertices"] for c in v)
    assert polytope_from_json(obj) == P


def test_json_round_trip_float():
    # Float polytope JSON is read at its exact binary values and written
    # back exact.
    obj = {"dim": 2, "mode": "float", "vertices": [[0.0, 0.0], [1.0, 0.1], [0.5, 1.0]]}
    P = polytope_from_json(obj)
    assert P == convex_hull([(Q(0), Q(0)), (Q(1), Fraction(0.1)), (Q(1, 2), Q(1))])
    back = polytope_to_json(P)
    assert back["mode"] == "exact"
    assert all(isinstance(c, str) for v in back["vertices"] for c in v)
    assert polytope_from_json(back) == P


def test_json_rejects_bad_mode():
    with pytest.raises(ValueError):
        polytope_from_json({"dim": 2, "mode": "decimal", "vertices": []})


# ---------------------------------------------------------------------------
# containment basics


def test_contains_point_strict_vs_loose():
    K = cube(2)
    assert contains_point(K, (Q(0), Q(0)))
    assert not contains_point(K, (Q(0), Q(0)), strict=True)
    assert contains_point(K, (Q(1, 2), Q(1, 2)), strict=True)
    assert not contains_point(K, (Q(2), Q(0)))
