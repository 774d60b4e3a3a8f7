"""The translation search's hull-reusing objective against fresh exact hulls.

:class:`TranslatedJoinVolume` keeps recent boundary triangulations and
reuses one when it still bounds the body at a new translation.  Each value
it returns is compared with the exact volume of
``scaled_reflected_join(translate(K, -x), lam)`` on the same body, at probe
sequences that force rebuilds, reuse the newest hull, and go back to older
kept hulls, on random bodies and on near-degenerate ones.
"""

import random
from fractions import Fraction

import pytest

from godbersen_kit.harness import (
    TranslatedJoinVolume,
    minimize_over_translation,
    random_polytope,
)
from godbersen_kit.polytopes import (
    convex_hull,
    cube,
    scale_polytope,
    scaled_reflected_join,
    standard_simplex,
    translate,
    volume,
)
from godbersen_kit.scalars import EXACT, FLOAT


def _float_body(K):
    return convex_hull([tuple(float(c) for c in v) for v in K.vertices], FLOAT)


def _exact_value(K, lam, x):
    shifted = translate(K, tuple(-Fraction(c) for c in x))
    return float(volume(scaled_reflected_join(shifted, Fraction(lam))))


def _interior_probe(K, rng):
    """A random strict convex combination of the body's vertices."""
    weights = [rng.random() + 0.05 for _ in K.vertices]
    total = sum(weights)
    return tuple(sum(w * float(v[c]) for w, v in zip(weights, K.vertices)) / total
                 for c in range(K.dim))


def _walk(start, rng, steps, size):
    x = list(start)
    out = []
    for _ in range(steps):
        k = rng.randrange(len(x))
        x[k] += rng.uniform(-size, size)
        out.append(tuple(x))
    return out


def _assert_matches(K, lam, probes, objective=None):
    objective = objective or TranslatedJoinVolume(_float_body(K), lam)
    for x in probes:
        expected = _exact_value(K, lam, x)
        assert objective(x) == pytest.approx(expected, rel=1e-12, abs=0), x
    return objective


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_probes_match_exact_hulls(n):
    rng = random.Random(100 + n)
    for trial in range(2):
        K = random_polytope(n, n + 4, 1000 * n + trial, mode=EXACT)
        for lam in (0.25, 0.5, 2 / 3):
            jumps = [_interior_probe(K, rng) for _ in range(4)]
            # A walk of small steps reuses the newest hull; each jump
            # starts from a fresh one.
            walk = _walk(jumps[0], rng, 12, 1e-3)
            objective = _assert_matches(K, lam, jumps + walk)
            assert objective.hull_builds < len(jumps) + len(walk)


@pytest.mark.parametrize("n", [2, 3])
def test_out_of_order_revisits_reuse_older_hulls(n):
    rng = random.Random(7 + n)
    K = random_polytope(n, n + 5, 40 + n, mode=EXACT)
    lam = 0.25
    body = _float_body(K)
    objective = TranslatedJoinVolume(body, lam)
    far = [tuple(float(c) for c in v) for v in body.vertices[:3]]
    probes = [tuple(0.8 * c for c in v) for v in far]
    _assert_matches(K, lam, probes, objective)
    built = objective.hull_builds
    assert built >= 2
    # Revisit in reverse order: every probe finds its own hull among the
    # kept ones, whatever its position in the list.
    _assert_matches(K, lam, probes[::-1] + probes, objective)
    assert objective.hull_builds == built
    # More distinct hulls than the list keeps: the oldest ones are dropped
    # and a return to them is still correct.
    more = [_interior_probe(K, rng) for _ in range(6)]
    _assert_matches(K, lam, more + probes, objective)


def test_endpoint_lambdas_are_the_body_volume():
    K = _float_body(random_polytope(3, 7, 3, mode=EXACT))
    for lam in (0.0, 1.0):
        objective = TranslatedJoinVolume(K, lam)
        assert objective((0.1, -0.2, 0.05)) == float(volume(K))
        assert objective.hull_builds == 0


def _near_coplanar(n):
    """A cube with every facet center pushed out by 1e-9."""
    C = cube(n, EXACT, low=-1, high=1)
    bump = Fraction(1, 10**9)
    pts = list(C.vertices)
    for k in range(n):
        for s in (-1, 1):
            pts.append(tuple(s * (1 + bump) if c == k else Fraction(0) for c in range(n)))
    return convex_hull(pts, EXACT)


def _tiny_facet(n):
    """A simplex whose corner at e_1 is cut off 1e-6 from the vertex."""
    S = standard_simplex(n, EXACT)
    cut = Fraction(1, 10**6)
    corner = tuple(Fraction(int(c == 0)) for c in range(n))
    pts = [v for v in S.vertices if v != corner]
    for v in S.vertices:
        if v != corner:
            pts.append(tuple(a + cut * (b - a) for a, b in zip(corner, v)))
    return convex_hull(pts, EXACT)


def _scaled(n, factor):
    return scale_polytope(random_polytope(n, n + 4, 77 + n, mode=EXACT), factor)


FAMILIES = {
    "near-coplanar": _near_coplanar,
    "tiny-facet": _tiny_facet,
    "scale-1e-6": lambda n: _scaled(n, Fraction(1, 10**6)),
    "scale-1e+6": lambda n: _scaled(n, Fraction(10**6)),
}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_near_degenerate_families_match_exact_hulls(family, n):
    K = FAMILIES[family](n)
    rng = random.Random(n)
    size = float(max(abs(c) for v in K.vertices for c in v))
    for lam in (0.25, 0.5):
        start = _interior_probe(K, rng)
        probes = [start] + _walk(start, rng, 8, 1e-3 * size) + [_interior_probe(K, rng)]
        _assert_matches(K, lam, probes)


def test_search_rebuilds_on_few_probes():
    K = random_polytope(2, 9, 11, mode=FLOAT)
    sol = minimize_over_translation(K, 0.25)
    assert 0 < sol.hull_builds <= 0.15 * sol.iterations
