"""The translation search's value and subgradient against exact hulls.

:func:`join_volume_and_subgradient` returns f(x) = Vol conv(A v (B + x))
with A = (1-lam)K, B = -lam*K, and a subgradient g of f at x.  Its value
is compared with the exact volume of
``scaled_reflected_join(translate(K, -x), lam)``, a translate of the same
body, and every g is checked against the subgradient inequality
f(z) >= f(y) + g.(z - y) with f(z) exact, on random bodies and on
near-degenerate ones.  On the near-degenerate bodies the full cutting-plane
search must also close its gap.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from godbersen_kit import polytopes
from godbersen_kit.harness import (
    join_volume_and_subgradient,
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


def _assert_value_and_subgradient(K, lam, probes):
    """Each value equals the exact f within 1e-12 relative, and each
    probe's g satisfies the subgradient inequality at every other probe."""
    verts = np.array([[float(c) for c in v] for v in K.vertices])
    a, b = (1.0 - lam) * verts, -lam * verts
    exact = [_exact_value(K, lam, x) for x in probes]
    for y, f_y in zip(probes, exact):
        value, g = join_volume_and_subgradient(a, b, np.array(y))
        assert value == pytest.approx(f_y, rel=1e-12, abs=0), y
        for z, f_z in zip(probes, exact):
            cut = value + float(g @ (np.array(z) - np.array(y)))
            assert f_z >= cut - 1e-9 * value, (y, z)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_probes_match_exact_hulls(n):
    rng = random.Random(100 + n)
    for trial in range(2):
        K = random_polytope(n, n + 4, 1000 * n + trial)
        verts = np.array([[float(c) for c in v] for v in K.vertices])
        for lam in (0.25, 0.5, 2 / 3):
            jumps = [_interior_probe(K, rng) for _ in range(4)]
            # Small steps test the cuts where they are tightest.
            probes = jumps + _walk(jumps[0], rng, 12, 1e-3)
            _assert_value_and_subgradient(K, lam, probes)
            a, b = (1.0 - lam) * verts, -lam * verts
            for y in probes:
                # The value is the exact hull volume of the float cloud, rounded once.
                cloud = np.vstack([a, b + np.array(y)]).tolist()
                exact = convex_hull([tuple(Fraction(c) for c in p) for p in cloud])
                value, _ = join_volume_and_subgradient(a, b, np.array(y))
                assert value == float(volume(exact)), y


def test_search_probes_build_no_full_hull(monkeypatch):
    K = random_polytope(3, 7, 5)

    def refuse(*args):
        raise AssertionError("a search probe finished a hull")

    monkeypatch.setattr(polytopes, "_hull_finish", refuse)
    for lam in (0.25, 0.5):
        sol = minimize_over_translation(K, lam)
        assert sol.iterations >= 1
        assert 0 < sol.lower_bound <= sol.value


def test_endpoint_lambdas_are_the_body_volume():
    K = random_polytope(3, 7, 3)
    for lam in (0.0, 1.0):
        sol = minimize_over_translation(K, lam)
        assert sol.value == sol.lower_bound == float(volume(K))
        assert sol.iterations == 0


def _near_coplanar(n):
    """A cube with every facet center pushed out by 1e-9."""
    C = cube(n, low=-1, high=1)
    bump = Fraction(1, 10**9)
    pts = list(C.vertices)
    for k in range(n):
        for s in (-1, 1):
            pts.append(tuple(s * (1 + bump) if c == k else Fraction(0) for c in range(n)))
    return convex_hull(pts)


def _tiny_facet(n):
    """A simplex whose corner at e_1 is cut off 1e-6 from the vertex."""
    S = standard_simplex(n)
    cut = Fraction(1, 10**6)
    corner = tuple(Fraction(int(c == 0)) for c in range(n))
    pts = [v for v in S.vertices if v != corner]
    for v in S.vertices:
        if v != corner:
            pts.append(tuple(a + cut * (b - a) for a, b in zip(corner, v)))
    return convex_hull(pts)


def _scaled(n, factor):
    return scale_polytope(random_polytope(n, n + 4, 77 + n), factor)


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
        _assert_value_and_subgradient(K, lam, probes)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_near_degenerate_families_search_closes_the_gap(family, n):
    K = FAMILIES[family](n)
    for lam in (0.25, 0.5):
        sol = minimize_over_translation(K, lam)
        assert 0 < sol.lower_bound <= sol.value
        assert sol.value - sol.lower_bound <= 1e-9 * sol.value
