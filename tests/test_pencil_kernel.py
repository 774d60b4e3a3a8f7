"""Differential test: ``polytopes.triangulate``, which runs on each point's
own denominator and takes every facet plane after the first simplex from
the pencil through its horizon ridge, against the common-scale cofactor
kernel in ``oracles.common_scale_triangulate``.

The two must agree as rationals on the points, the interior point (the
mean of the first simplex) and each simplex's vertices and facet plane,
simplex order included, on random and non-simplicial clouds, on the hull
clouds of the exact sweeps (polar chains whose denominators do not nest),
and on the float clouds of the translation search.  Both kernels insert
the lexicographically smallest point first and the others far first.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from godbersen_kit import harness, mixed, polytopes
from godbersen_kit.errors import DegenerateInput
from godbersen_kit.linalg import dot, vadd
from godbersen_kit.polytopes import (
    contains_point,
    contains_polytope,
    convex_hull,
    cross_polytope,
    cube,
    point_row,
    triangulate,
    translate,
)
from oracles import common_scale_triangulate

TRIANGULATE = polytopes.triangulate


def _points(rows):
    return [tuple(Fraction(x, w) for x in X) for X, w in rows]


def _pencil_form(points):
    """(points, interior, simplices) of ``triangulate`` as rationals, each
    simplex with its primitive normal n and offset o, n.x = o."""
    rows = [point_row(p) for p in points]
    basis, simplices = triangulate(rows)
    pts = _points(rows)
    assert pts[basis[0]] == min(pts)
    interior = tuple(sum(col) / len(basis) for col in zip(*(pts[i] for i in basis)))
    return pts, interior, [(verts, tuple(c // math.gcd(*N) for c in N), Fraction(O, math.gcd(*N)))
                           for verts, N, O in simplices]


def _common_scale_form(points):
    """The same of ``oracles.common_scale_triangulate``, whose ints are the
    points scaled by S."""
    ints, scale, interior, simplices = common_scale_triangulate(points)
    return ([tuple(Fraction(c, scale) for c in y) for y in ints],
            tuple(Fraction(c, scale) for c in interior),
            [(verts, normal, Fraction(offset, scale)) for verts, normal, offset in simplices])


def _assert_same(points):
    try:
        expected = _common_scale_form(points)
    except DegenerateInput:
        with pytest.raises(DegenerateInput):
            triangulate([point_row(p) for p in points])
        return
    assert _pencil_form(points) == expected


def _cloud(rng, d, m, denominators):
    return [tuple(Fraction(rng.randint(-3 * q, 3 * q), q)
                  for q in (rng.choice(denominators) for _ in range(d)))
            for _ in range(m)]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_random_clouds_match_common_scale_kernel(d):
    rng = random.Random(8000 + d)
    for _ in range(30 if d < 5 else 10):
        cloud = _cloud(rng, d, rng.randint(d + 1, d + 12),
                       rng.choice([[1], [5, 64], [1000003, 7, 2**40], [3**70, 2**100 + 1]]))
        # Repeats and a midpoint: duplicates and boundary points.
        _assert_same(cloud + cloud[:2] + [tuple((a + b) / 2 for a, b in zip(*cloud[:2]))])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_non_simplicial_bodies_match_common_scale_kernel(d):
    for body in (cube(d), cross_polytope(d)):
        _assert_same(list(body.vertices))
        _assert_same([tuple(Fraction(2 * c - 1, 3) + Fraction(1, 7) for c in v)
                      for v in body.vertices])
        _assert_same([tuple(float(c) / 3 + 0.1 for c in v) for v in body.vertices])
    if d <= 4:
        K = convex_hull(_cloud(random.Random(8100 + d), d, d + 3, [4, 9]))
        _assert_same([tuple(a - b for a, b in zip(v, w))
                      for v in K.vertices for w in K.vertices])


def test_flat_clouds_raise_in_both():
    _assert_same([(Fraction(i), Fraction(2 * i), Fraction(0)) for i in range(5)])
    _assert_same([(Fraction(1, 3), Fraction(0))] * 4)


def _sweep_clouds(monkeypatch, kind, n, mode, modules=(polytopes, mixed, harness), **fields):
    """Every row list that trial 0 of a sweep triangulates through
    ``modules``."""
    clouds = []

    def recording(rows):
        clouds.append(list(rows))
        return TRIANGULATE(rows)

    for module in modules:
        monkeypatch.setattr(module, "triangulate", recording)
    config = harness.ExperimentConfig.from_json(
        dict({"kind": kind, "n": n, "trials": 1, "mode": mode, "seed": 8200}, **fields))
    harness.run_trial(config, 0)
    monkeypatch.undo()
    return clouds


def _nests(rows):
    weights = {w for _, w in rows}
    return math.lcm(*weights) == max(weights)


@pytest.mark.parametrize("kind", ["kl", "strange"])
def test_polar_chain_clouds_match_common_scale_kernel(monkeypatch, kind):
    clouds = _sweep_clouds(monkeypatch, kind, 3, "exact")
    # The polar chains mix denominators that no one of them divides.
    assert any(not _nests(c) for c in clouds)
    for cloud in clouds:
        _assert_same(_points(cloud))


@pytest.mark.parametrize("kind", ["kl", "ckl", "strange", "godbersen"])
def test_exact_trials_hand_the_kernel_int_rows(monkeypatch, kind):
    clouds = _sweep_clouds(monkeypatch, kind, 3, "exact")
    assert clouds
    for rows in clouds:
        for X, w in rows:
            assert type(w) is int and w > 0 and all(type(x) is int for x in X)
            assert math.gcd(*X, w) == 1


def test_far_first_order_is_not_lexicographic_on_a_polar_sum_cloud(monkeypatch):
    config = harness.ExperimentConfig.from_json({"kind": "strange", "n": 3, "trials": 1,
                                                 "seed": 8200})
    K, L = (harness._trial_body(config, 0, offset=i) for i in (0, 1))
    K_star, L_star = ([tuple(c / f.offset for c in f.outward_normal) for f in P.facets]
                      for P in (K, L))
    cloud = [vadd(u, v) for u in K_star for v in L_star]
    inserted = []
    core = polytopes._hull_core
    monkeypatch.setattr(polytopes, "_hull_core", lambda hpts: inserted.extend(hpts) or core(hpts))
    triangulate([point_row(p) for p in cloud])
    order = _points(inserted)
    assert sorted(order) == sorted(set(cloud))
    assert order[0] == min(order) and order != sorted(order)
    _assert_same(cloud)


@pytest.mark.parametrize("kind, hulls", [("kl", 9), ("ckl", 9), ("strange", 8)])
def test_theta_sweeps_build_each_body_once(monkeypatch, kind, hulls):
    # The two random bodies; once per trial the join (kl), the layered body
    # (ckl) or the K°+L° hull, (K°+L°)° and the join (strange); then per
    # theta the cut's polar hull and, for kl and ckl, its canonical hull.
    assert len(_sweep_clouds(monkeypatch, kind, 3, "exact")) == hulls


def test_cayley_and_search_clouds_match_common_scale_kernel(monkeypatch):
    clouds = _sweep_clouds(monkeypatch, "godbersen", 3, "exact")
    # The search's float probes, read at their binary values.
    searched = _sweep_clouds(monkeypatch, "gfr", 2, "float", (harness,), lambda_grid=["1/2"])
    assert len(searched) >= 4
    for cloud in clouds + searched:
        _assert_same(_points(cloud))


def test_only_the_first_simplex_solves_for_its_planes(monkeypatch):
    solves = []
    original = polytopes.hyperplane_through

    def counting(points):
        solves.append(len(points))
        return original(points)

    monkeypatch.setattr(polytopes, "hyperplane_through", counting)
    for d in (2, 3, 4):
        solves.clear()
        convex_hull(_cloud(random.Random(8300 + d), d, 12 + 3 * d, [3, 8, 25]))
        assert solves == [d] * (d + 1)


# ---------------------------------------------------------------------------
# integer containment against the Fraction facet loop


def _fraction_contains(P, Q):
    return all(contains_point(P, v) for v in Q.vertices)


def test_integer_containment_matches_fraction_loop_on_and_off_facets():
    rng = random.Random(8400)
    for d in (2, 3, 4):
        P = convex_hull(_cloud(rng, d, d + 6, [3, 7, 2**20]))
        facet = P.facets[0]
        on = [v for v in P.vertices if dot(facet.outward_normal, v) == facet.offset]
        # Vertices exactly on a facet (slack 0) are inside.
        Q = convex_hull(on + [tuple(c / 2 for c in P._centroid)] + [
            tuple((a + b) / 2 for a, b in zip(P._centroid, v)) for v in on])
        assert contains_polytope(P, Q) and _fraction_contains(P, Q)
        assert contains_polytope(P, P)
        norm2 = sum(c * c for c in facet.outward_normal)
        for k in (1, 10, 60, 200):
            # Pushed out of the facet by 1/2^k along its normal: outside.
            step = Fraction(1, 2**k) / norm2
            out = translate(Q, tuple(c * step for c in facet.outward_normal))
            assert not contains_polytope(P, out)
            assert not _fraction_contains(P, out)
            back = translate(Q, tuple(-c * step for c in facet.outward_normal))
            assert contains_polytope(P, back) == _fraction_contains(P, back)


def test_integer_containment_on_random_pairs():
    rng = random.Random(8500)
    seen = set()
    for d, _ in itertools.product((2, 3), range(20)):
        P = convex_hull(_cloud(rng, d, d + 5, [5, 12, 3**20]))
        Q = convex_hull(_cloud(rng, d, d + 3, [2, 9, 7**9]))
        Q = translate(Q, tuple(-c for c in Q._centroid))
        Q = translate(polytopes.scale_polytope(Q, Fraction(1, rng.randint(1, 40))),
                      P._centroid)
        inside = contains_polytope(P, Q)
        assert inside == _fraction_contains(P, Q)
        seen.add(inside)
    assert seen == {True, False}
