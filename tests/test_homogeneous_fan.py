"""The volume fan on each point's own denominator, and the centroid that is
computed only when it is read.

The clouds are those of the exact polar chains: points c/r whose
denominators r differ pairwise, as ``to_vrep`` and ``polar`` make them.
Every field of their hulls must equal ``oracles.reference_convex_hull`` as
a rational, also when the centroid is first read after an affine map.  The
Rogers-Shephard-type checks read no centroid of the hulls they build.
``fan_total``'s product tree must equal the plain sum of its cones'
fractions, also when every m shares a large factor.
"""

import math
import random
from fractions import Fraction

import pytest

from godbersen_kit import polytopes
from godbersen_kit.harness import random_polytope
from godbersen_kit.polytopes import (
    centroid,
    convex_hull,
    fan_total,
    negate,
    polar_body,
    scale_polytope,
    translate,
)
from godbersen_kit.rs_bodies import verify_KL_inequality, verify_strange
from oracles import reference_convex_hull


def _fields(P):
    return (P.dim, P.mode, P.vertices, P.facets, P._volume, P._centroid)


def _polar_chain_cloud(rng, d, m):
    """m points c/r, each r a distinct odd number of 40 to 120 bits."""
    rs = set()
    while len(rs) < m:
        rs.add(rng.getrandbits(rng.randint(40, 120)) | 1)
    return [tuple(Fraction(rng.randint(-3 * r, 3 * r), r) for _ in range(d)) for r in rs]


def _clouds(d):
    rng = random.Random(9000 + d)
    clouds = [_polar_chain_cloud(rng, d, rng.randint(d + 2, d + 8)) for _ in range(6)]
    # A polar body's vertices are facet normals over their offsets.
    clouds.append(list(polar_body(random_polytope(d, d + 5, 9100 + d)).vertices))
    return clouds


@pytest.mark.parametrize("d", [2, 3, 4])
def test_polar_chain_clouds_match_reference(d):
    for cloud in _clouds(d):
        assert len({p[0].denominator for p in cloud}) > 1
        assert _fields(convex_hull(cloud)) == _fields(reference_convex_hull(cloud))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_unread_centroid_follows_affine_maps(d):
    rng = random.Random(9200 + d)
    for cloud in _clouds(d):
        expected = reference_convex_hull(cloud)._centroid
        t = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(d))
        s = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        assert centroid(translate(convex_hull(cloud), t)) == tuple(
            c + u for c, u in zip(expected, t))
        assert centroid(scale_polytope(convex_hull(cloud), -s)) == tuple(-s * c for c in expected)
        assert centroid(negate(convex_hull(cloud))) == tuple(-c for c in expected)
        chained = translate(negate(scale_polytope(convex_hull(cloud), s)), t)
        assert centroid(chained) == tuple(-s * c + u for c, u in zip(expected, t))


def test_rogers_shephard_checks_read_no_centroid(monkeypatch):
    K, L = random_polytope(3, 8, 9300), random_polytope(3, 8, 9301)

    def refuse(*args):
        raise AssertionError("a hull's centroid was read")

    monkeypatch.setattr(polytopes, "_fan_centroid", refuse)
    assert verify_KL_inequality(K, L, Fraction(1, 2)).passed
    assert verify_strange(K, L).passed
    with pytest.raises(AssertionError):
        centroid(convex_hull(K.vertices))


def _plain_sum(m, cones):
    return sum((Fraction(D, math.prod(m[v] for v in verts)) for verts, D in cones), Fraction(0))


def _random_cones(rng, m, d, count):
    return [(tuple(sorted(rng.sample(sorted(m), d))), rng.getrandbits(rng.randint(1, 200)))
            for _ in range(count)]


def test_fan_total_of_no_cones_is_zero():
    total = fan_total({0: 3, 1: 5}, [])
    assert total == 0 and isinstance(total, Fraction)


def test_fan_total_of_one_cone():
    assert fan_total({0: 6, 1: 10, 2: 15, 3: 7}, [((0, 1, 2), 11)]) == Fraction(11, 6 * 10 * 15)


def test_fan_total_with_shared_and_disjoint_vertex_sets():
    m = {v: 2 * v + 3 for v in range(8)}
    shared = [((0, 1, 2), 5), ((0, 1, 3), 7), ((0, 2, 3), 9), ((1, 2, 3), 4)]
    disjoint = [((0, 1, 2), 5), ((3, 4, 5), 8), ((6, 7, 0), 1)]
    for cones in (shared, disjoint, shared + disjoint, shared + shared):
        assert fan_total(m, cones) == _plain_sum(m, cones)


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_fan_total_with_a_large_common_factor(d):
    # Every m shares one big factor (the gcd step) and small, overlapping rest.
    rng = random.Random(9400 + d)
    big = rng.getrandbits(150) | 1
    m = {v: big * rng.randint(1, 12) for v in range(d + 6)}
    assert math.gcd(*m.values()) % big == 0
    for count in (1, 2, 3, 17, 64):
        cones = _random_cones(rng, m, d, count)
        assert fan_total(m, cones) == _plain_sum(m, cones)


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_fan_total_with_pairwise_coprime_m(d):
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    rng = random.Random(9500 + d)
    m = {v: p ** rng.randint(1, 30) for v, p in enumerate(primes[:d + 5])}
    for count in (1, 2, 5, 33):
        cones = _random_cones(rng, m, d, count)
        assert fan_total(m, cones) == _plain_sum(m, cones)
