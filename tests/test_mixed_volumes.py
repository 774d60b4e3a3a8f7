"""Mixed volume tests: both computation routes, the ratio checks, and the
classical inequalities they feed."""

import math
import random

import pytest

from godbersen_kit.harness import FLAVORS, random_polytope as harness_polytope
from godbersen_kit.mixed import (
    difference_body_check,
    godbersen_ratio,
    mixed_volume_general,
    mixed_volume_pair,
    mixed_volumes,
    volume_polynomial,
)
from godbersen_kit.polytopes import (
    centered_simplex,
    centroid,
    contains_polytope,
    convex_hull,
    cross_polytope,
    cube,
    minkowski_sum,
    negate,
    scale_polytope,
    scaled_reflected_join,
    standard_simplex,
    translate,
    volume,
)
from godbersen_kit.scalars import rational as Q

from oracles import random_exact_points


from godbersen_kit.errors import DegenerateInput


def random_polytope(rng, n, m, denom=16):
    while True:
        try:
            return convex_hull(random_exact_points(rng, m, n, denom=denom))
        except DegenerateInput:
            continue


def centered(P):
    return translate(P, tuple(-c for c in centroid(P)))


# ---------------------------------------------------------------------------
# mixed_volume_pair


def test_pair_j_equals_n_is_volume():
    rng = random.Random(3)
    K = random_polytope(rng, 3, 10)
    T = random_polytope(rng, 3, 10)
    assert mixed_volume_pair(K, T, 3).value == volume(K)
    assert mixed_volume_pair(K, T, 0).value == volume(T)


def test_pair_equal_bodies_diagonal():
    rng = random.Random(7)
    K = random_polytope(rng, 3, 8)
    for j in range(4):
        assert mixed_volume_pair(K, K, j).value == volume(K)


def test_pair_triangle_against_reflection():
    T = standard_simplex(2)
    mv = mixed_volume_pair(T, negate(T), 1)
    assert mv.value / volume(T) == 2


def test_pair_nonnegative():
    rng = random.Random(11)
    for _ in range(5):
        K = random_polytope(rng, 2, 7)
        T = random_polytope(rng, 2, 7)
        for j in range(3):
            assert mixed_volume_pair(K, T, j).value >= 0


# ---------------------------------------------------------------------------
# mixed_volumes (Cayley route)


def _acceptance_corpus(n):
    """The 50 centered bodies per dimension of the acceptance suite."""
    return [harness_polytope(n, n + 2 + (i % 4), 77_000 + 1000 * n + i, FLAVORS[i % 3])
            for i in range(50)]


def _pairs_with_reflection_and_neighbour(bodies):
    for i, K in enumerate(bodies):
        yield K, negate(K)
        yield K, bodies[(i + 1) % len(bodies)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cayley_matches_interpolation_on_acceptance_corpus(n):
    for K, T in _pairs_with_reflection_and_neighbour(_acceptance_corpus(n)):
        assert mixed_volumes(K, T) == volume_polynomial(K, T)


def test_cayley_matches_interpolation_n5():
    bodies = [harness_polytope(5, 7, 78_000 + i, FLAVORS[i]) for i in range(3)]
    for K, T in _pairs_with_reflection_and_neighbour(bodies):
        assert mixed_volumes(K, T) == volume_polynomial(K, T)


def test_cayley_closed_forms():
    for n in (2, 3, 4):
        # V(C[j], S[n-j]) = 1/(n-j)! for the unit cube C and standard simplex S.
        assert mixed_volumes(cube(n), standard_simplex(n)) == [
            Q(1, math.factorial(n - j)) for j in range(n + 1)]
        S = centered_simplex(n)
        assert mixed_volumes(S, negate(S)) == [math.comb(n, j) * volume(S) for j in range(n + 1)]
        C = cross_polytope(n)
        assert mixed_volumes(C, cube(n)) == volume_polynomial(C, cube(n))


def test_cayley_expansion_is_minkowski_sum_volume():
    rng = random.Random(59)
    for n, m in ((2, 9), (3, 9), (4, 7)):
        K = random_polytope(rng, n, m, denom=8)
        for T in (negate(K), random_polytope(rng, n, m, denom=8)):
            values = mixed_volumes(K, T)
            expansion = sum(math.comb(n, j) * values[j] for j in range(n + 1))
            assert expansion == volume(minkowski_sum(K, T))


def test_cayley_rejects_mixed_operands():
    with pytest.raises(ValueError):
        mixed_volumes(cube(2), cube(3))


# ---------------------------------------------------------------------------
# mixed_volume_general


def test_general_all_equal():
    rng = random.Random(13)
    B = random_polytope(rng, 3, 8)
    mv = mixed_volume_general([B, B, B])
    assert mv.value == volume(B)
    assert mv.method == "polarization"


def test_general_matches_pair_on_random_triples():
    rng = random.Random(17)
    trials = [(2, 8)] * 8 + [(3, 8)] * 8 + [(4, 6)] * 4
    for n, dims_m in trials:
        K = random_polytope(rng, n, dims_m, denom=8)
        T = random_polytope(rng, n, dims_m, denom=8)
        j = rng.randint(0, n)
        pair = mixed_volume_pair(K, T, j)
        general = mixed_volume_general([K] * j + [T] * (n - j))
        assert pair.value == general.value


def test_general_permutation_invariance():
    rng = random.Random(19)
    bodies = [random_polytope(rng, 3, 6) for _ in range(3)]
    v1 = mixed_volume_general(bodies).value
    shuffled = bodies[::-1]
    assert mixed_volume_general(shuffled).value == v1


def test_general_caps_body_count():
    B = standard_simplex(5)
    with pytest.raises(ValueError):
        mixed_volume_general([B] * 5)


# ---------------------------------------------------------------------------
# godbersen_ratio


def test_godbersen_ratio_simplex_attains_binomial():
    for n in (2, 3, 4):
        S = centered_simplex(n)
        for j in range(1, n):
            rep = godbersen_ratio(S, j)
            assert rep.passed
            assert rep.lhs == math.comb(n, j)
            assert rep.meta["rhs_conjectured"] == math.comb(n, j)


def test_godbersen_ratio_cube():
    for n in (2, 3):
        rep = godbersen_ratio(cube(n), 1)
        assert rep.lhs == 1
        assert rep.passed


def test_godbersen_ratio_random_sweep():
    rng = random.Random(23)
    worst = Q(0)
    for _ in range(10):
        K = centered(random_polytope(rng, 3, 10))
        for j in (1, 2):
            rep = godbersen_ratio(K, j)
            assert rep.passed
            over = rep.lhs / rep.meta["rhs_conjectured"]
            if over > worst:
                worst = over
    # conjectured bound not exceeded on this corpus either
    assert worst <= 1


def test_godbersen_ratio_range_check():
    with pytest.raises(ValueError):
        godbersen_ratio(cube(2), 2)


# ---------------------------------------------------------------------------
# difference_body_check


def test_difference_body_triangle_equality():
    rep = difference_body_check(standard_simplex(2))
    assert rep.lhs == 6 == math.comb(4, 2)
    assert rep.passed and rep.meta["equality_attained"]
    assert rep.meta["expansion_identity"]


def test_difference_body_cube():
    for n in (2, 3):
        rep = difference_body_check(cube(n))
        assert rep.lhs == 2**n
        assert rep.passed and not rep.meta["equality_attained"]


def test_difference_body_expansion_identity_random():
    rng = random.Random(29)
    for n, m in ((2, 9), (3, 9), (4, 6)):
        K = random_polytope(rng, n, m, denom=8)
        rep = difference_body_check(K)
        assert rep.meta["expansion_identity"]
        assert rep.meta["expansion_sum"] == rep.meta["difference_volume"]
        assert rep.passed


# ---------------------------------------------------------------------------
# invariants


def test_multilinearity_n2():
    rng = random.Random(31)
    K = random_polytope(rng, 2, 8)
    T1 = random_polytope(rng, 2, 8)
    T2 = random_polytope(rng, 2, 8)
    lhs = mixed_volume_pair(K, minkowski_sum(T1, T2), 1).value
    rhs = mixed_volume_pair(K, T1, 1).value + mixed_volume_pair(K, T2, 1).value
    assert lhs == rhs


def test_homogeneity():
    rng = random.Random(37)
    K = random_polytope(rng, 3, 8)
    T = random_polytope(rng, 3, 8)
    base = [mixed_volume_pair(K, T, j).value for j in range(4)]
    for lam in (Q(1, 2), Q(3)):
        for j in range(4):
            scaled = mixed_volume_pair(scale_polytope(K, lam), T, j).value
            assert scaled == lam**j * base[j]


def test_translation_invariance():
    rng = random.Random(41)
    K = random_polytope(rng, 3, 8)
    T = random_polytope(rng, 3, 8)
    shift = (Q(5), Q(-3, 2), Q(7, 3))
    for j in range(4):
        assert (
            mixed_volume_pair(translate(K, shift), T, j).value
            == mixed_volume_pair(K, T, j).value
        )


def test_monotonicity_nested():
    rng = random.Random(43)
    for _ in range(3):
        inner_pts = random_exact_points(rng, 8, 3, denom=16)
        outer_pts = inner_pts + random_exact_points(rng, 4, 3, denom=16)
        K = convex_hull(inner_pts)
        K2 = convex_hull(outer_pts)
        T = random_polytope(rng, 3, 8)
        assert contains_polytope(K2, K)
        for j in range(1, 4):
            assert mixed_volume_pair(K, T, j).value <= mixed_volume_pair(K2, T, j).value


def test_proof_chain_inequality():
    # V(K[j], -K[n-j]) <= Vol((1-lam)K v -lam K) / ((1-lam)^j lam^(n-j))
    # at lam = (n-j)/n
    rng = random.Random(47)
    for n in (2, 3):
        K = random_polytope(rng, n, 8)
        for j in range(1, n):
            lam = Q(n - j, n)
            lhs = mixed_volume_pair(K, negate(K), j).value
            join = scaled_reflected_join(K, lam)
            rhs = volume(join) / ((1 - lam) ** j * lam ** (n - j))
            assert lhs <= rhs


def test_min_power_bound_centered():
    rng = random.Random(53)
    for n in (2, 3):
        K = centered(random_polytope(rng, n, 3 * n))
        for j in range(1, n):
            lhs = mixed_volume_pair(K, negate(K), j).value
            assert lhs <= n ** min(j, n - j) * volume(K)
