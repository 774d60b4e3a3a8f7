"""Differential test: the integer exact hull kernel against the Fraction
reference in ``oracles.reference_convex_hull``.

Every field of the returned VPolytope must be equal as a rational, and no
float may appear anywhere in it.
"""

import itertools
import random
from fractions import Fraction

import pytest

from godbersen_kit.errors import DegenerateInput
from godbersen_kit.linalg import det, hyperplane_through
from godbersen_kit.polytopes import convex_hull, cross_polytope, cube
from godbersen_kit.scalars import rational
from oracles import fraction_det, reference_convex_hull

RATIONAL = type(rational(1))


def _fields(P):
    return (P.dim, P.mode, P.vertices, P.facets, P._volume, P._centroid)


def _scalars(P):
    yield from (c for v in P.vertices for c in v)
    for f in P.facets:
        yield from f.outward_normal
        yield f.offset
    yield P._volume
    yield from P._centroid


def _assert_matches_reference(points):
    try:
        expected = reference_convex_hull(points)
    except DegenerateInput:
        with pytest.raises(DegenerateInput):
            convex_hull(points)
        return
    got = convex_hull(points)
    assert _fields(got) == _fields(expected)
    # Every scalar is a rational of the backend's type: no float, no bare int.
    assert all(type(x) is RATIONAL for x in _scalars(got))


def test_integer_det_matches_fraction_det():
    rng = random.Random(6900)
    for n in range(7):
        for _ in range(60):
            # Small entries make zero pivots and singular matrices common.
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            got = det(m)
            assert type(got) is int
            assert got == fraction_det([[Fraction(x) for x in row] for row in m])


def test_det_and_hyperplane_through_refuse_fractions():
    with pytest.raises(TypeError):
        det([[1, 2], [Fraction(1, 3), 4]])
    with pytest.raises(TypeError):
        hyperplane_through([(0, 0, 0), (1, 0, 0), (0, Fraction(1, 2), 1)])
    with pytest.raises(TypeError):
        hyperplane_through([(Fraction(1, 3),)])


def _cloud(rng, d, m, denominator):
    span = 3 * denominator
    return [tuple(Fraction(rng.randint(-span, span), denominator) for _ in range(d))
            for _ in range(m)]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_random_clouds_match_reference(d):
    rng = random.Random(7000 + d)
    for _ in range(12 if d < 5 else 4):
        denominator = rng.choice([1, 5, 64, 1000003])
        _assert_matches_reference(_cloud(rng, d, rng.randint(d + 1, d + 9), denominator))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_large_denominators_match_reference(d):
    rng = random.Random(7100 + d)
    for _ in range(4):
        # Two coprime denominators of at least 100 bits in one cloud.
        dens = [2**100 + rng.randrange(1, 2**20) * 2 + 1, 3**70]
        pts = [tuple(Fraction(rng.randint(-3 * q, 3 * q), q)
                     for q in (rng.choice(dens) for _ in range(d)))
               for _ in range(d + 6)]
        assert max(x.denominator for p in pts for x in p).bit_length() >= 100
        _assert_matches_reference(pts)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_cubes_and_cross_polytopes_non_simplicial_facets(d):
    for body in (cube(d), cross_polytope(d)):
        _assert_matches_reference(list(body.vertices))
    shifted = [tuple(Fraction(2 * c - 1, 3) + Fraction(1, 7) for c in v)
               for v in cube(d).vertices]
    _assert_matches_reference(shifted)
    if d <= 4:  # the reference hull of the d = 5 cloud takes seconds
        # Most facets of a difference body K + (-K) are made of several simplices.
        K = convex_hull(_cloud(random.Random(7300 + d), d, d + 3, 4))
        _assert_matches_reference([tuple(a - b for a, b in zip(v, w))
                                   for v in K.vertices for w in K.vertices])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_duplicates_and_boundary_points_match_reference(d):
    rng = random.Random(7200 + d)
    corners = list(cube(d).vertices)
    # Edge midpoints and facet centres lie on the boundary, the centre inside.
    edge_mids = [tuple((a + b) / 2 for a, b in zip(p, q))
                 for p, q in itertools.combinations(corners, 2)
                 if sum(x != y for x, y in zip(p, q)) == 1]
    facet_centres = [tuple(Fraction(1, 2) if i != k else Fraction(s) for i in range(d))
                     for k in range(d) for s in (0, 1)]
    centre = [tuple(Fraction(1, 2) for _ in range(d))]
    pts = corners + edge_mids + facet_centres + centre + corners[:3]
    rng.shuffle(pts)
    _assert_matches_reference(pts)
    cloud = _cloud(rng, d, d + 6, 16)
    _assert_matches_reference(cloud + cloud[:4] + [
        tuple((a + b) / 2 for a, b in zip(cloud[0], cloud[1]))])


def test_flat_input_raises_in_both():
    flat = [(Fraction(i), Fraction(2 * i), Fraction(0)) for i in range(5)]
    _assert_matches_reference(flat)
