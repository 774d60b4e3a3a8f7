"""Acceptance suite: one test per headline guarantee of the toolkit.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per guarantee.  Each test states its claim, tolerance, and time budget in
its docstring and asserts them directly; random sweeps are fully seeded.
"""

import itertools
import json
import math
import time

import numpy as np

from godbersen_kit.functional import (
    lambda_difference,
    quadrature,
    sample_function,
    verify_functional_inequality,
)
from godbersen_kit.harness import ExperimentConfig, FLAVORS, random_polytope, run_experiment
from godbersen_kit.mixed import (
    difference_body_check,
    godbersen_ratio,
    mixed_volume_general,
    mixed_volume_pair,
    volume_polynomial,
)
from godbersen_kit.planar import reduce_to_triangle
from godbersen_kit.polytopes import (
    centered_simplex,
    centroid,
    cube,
    negate,
    scaled_reflected_join,
    standard_simplex,
    volume,
)
from godbersen_kit.rs_bodies import verify_KL_inequality, verify_ckl_bound
from godbersen_kit.scalars import rational
from godbersen_kit.simplexes import simplex_hull_ratio

from oracles import (
    delta_support_identity_check,
    g_volume_closed_form,
    sharp_pair,
    verify_corner_equality,
    verify_join_volume_bound,
    verify_layered_lower_bound,
)

_CORPUS = {}


def _corpus(n):
    """50 seeded random centered exact bodies per dimension, shared between
    the translation-bound sweep and the difference-body sweep."""
    if n not in _CORPUS:
        bodies = []
        for i in range(50):
            flavor = FLAVORS[i % 3]
            m = n + 2 + (i % 4)
            bodies.append(random_polytope(n, m, 77_000 + 1000 * n + i, flavor))
        _CORPUS[n] = bodies
    return _CORPUS[n]


def test_01_simplex_hull_ratio_closed_form_exact():
    """The closed-form hull volume ratio matches the exact join volume for
    the centered simplex in dimensions 2..4 on 21 evenly spaced lambdas plus
    every tie point (n+1-j)/(n+1), with exact equality, in under 60s."""
    start = time.monotonic()
    for n in (2, 3, 4):
        S = centered_simplex(n)
        vol_s = volume(S)
        lams = {rational(k, 20) for k in range(21)}
        lams |= {rational(n + 1 - j, n + 1) for j in range(1, n)}
        for lam in sorted(lams):
            formula = simplex_hull_ratio(n, lam)
            direct = volume(scaled_reflected_join(S, lam))
            assert direct == formula.ratio * vol_s, (n, str(lam))
    assert time.monotonic() - start < 60.0


def test_02_simplex_mixed_volume_binomial_identity_both_methods():
    """V(S[j], -S[n-j]) equals C(n,j) * Vol(S) exactly for n <= 4 and every
    j, with the Cayley, interpolation and polarization routes agreeing
    exactly."""
    for n in (2, 3, 4):
        S = standard_simplex(n)
        vol_s = volume(S)
        interpolated = volume_polynomial(S, negate(S))
        for j in range(1, n):
            expected = rational(math.comb(n, j)) * vol_s
            pair = mixed_volume_pair(S, negate(S), j)
            general = mixed_volume_general([S] * j + [negate(S)] * (n - j))
            assert pair.value == expected, (n, j)
            assert interpolated[j] == expected, (n, j)
            assert general.value == expected, (n, j)
            assert (pair.method, general.method) == ("cayley", "polarization")


def test_03_random_bodies_satisfy_translation_bound():
    """On 50 random centered polytopes per dimension in {2,3,4} and every
    j, the normalized mixed volume V(K[j],-K[n-j])/Vol(K) stays within the
    proved bound n^n/(j^j (n-j)^(n-j)) with zero violations, all in exact
    arithmetic, in under 10 minutes."""
    start = time.monotonic()
    violations = 0
    checked = 0
    for n in (2, 3, 4):
        for body in _corpus(n):
            for j in range(1, n):
                rep = godbersen_ratio(body, j)
                checked += 1
                if not rep.passed:
                    violations += 1
    assert checked == 50 * (1 + 2 + 3)
    assert violations == 0
    assert time.monotonic() - start < 600.0


def test_04_difference_body_expansion_exact_and_triangle_equality():
    """On the same corpus, Vol(K-K) equals the binomial expansion into
    mixed volumes exactly, and a triangle attains Vol(K-K) = 6 Area(K)
    exactly."""
    for n in (2, 3, 4):
        for body in _corpus(n):
            rep = difference_body_check(body)
            assert rep.meta["expansion_identity"], n
            assert rep.passed, n
    tri = centered_simplex(2)
    rep = difference_body_check(tri)
    assert rep.lhs == 6  # Vol(T - T) / Area(T)
    assert rep.meta["equality_attained"]
    assert rep.meta["difference_volume"] == 6 * volume(tri)


def test_05_vertex_at_origin_join_volume_and_self_pair_equality():
    """A simplex with a vertex at the origin satisfies
    Vol((1-lam)K v -lam K) = Vol(K) exactly for lam in {1/4, 1/2, 3/4}
    (n in {2,3,4}), and the self-pair (K, K) at theta = 1/2 attains exact
    equality in the join-intersection product inequality."""
    for n in (2, 3, 4):
        S = standard_simplex(n)
        for lam in (rational(1, 4), rational(1, 2), rational(3, 4)):
            rep = verify_join_volume_bound(S, lam)
            assert rep.passed
            assert rep.lhs == rep.rhs, (n, str(lam))
            assert rep.meta["equality_attained"]
        pair = verify_KL_inequality(S, S, rational(1, 2))
        assert pair.passed
        assert pair.lhs == pair.rhs, n
        assert pair.meta["equality_attained"]


def test_06_corner_pair_closed_forms_exact():
    """For the corner simplex pair with per-axis scales in {1/2, 1, 2}
    (n in {2,3}): Vol(K v -L), Vol((K*+L*)*), and their product match the
    closed forms (1/n!) prod(1+a_i), (1/n!) prod a_i/(1+a_i), and
    (1/n!^2) prod a_i = Vol(K) Vol(L), all exactly."""
    scales = (rational(1, 2), rational(1), rational(2))
    for n in (2, 3):
        for lams in itertools.product(scales, repeat=n):
            rep = verify_corner_equality(lams)
            assert rep.passed, [str(x) for x in lams]
            assert rep.meta["equality_attained"]


def test_07_product_body_closed_form_and_layered_chains():
    """The product-body volume closed form Vol(K)Vol(L) n!n!/(2n+1)!
    matches slice quadrature within 1e-3 (n=2), and the layered-body volume
    bound plus the join-versus-layered-body chain hold on 50 random centered
    pairs in dimensions 2 and 3."""
    K = random_polytope(2, 8, 501)
    L = random_polytope(2, 7, 502)
    closed = float(g_volume_closed_form(K, L))
    # Simpson quadrature over slice heights: the slice at height t is a
    # product of the two scaled bodies, with volume Vol(tK) * Vol((1-t)L).
    nodes = 128
    vol_k, vol_l = float(volume(K)), float(volume(L))

    def slice_volume(t):
        return vol_k * t**2 * vol_l * (1.0 - t) ** 2

    h = 1.0 / nodes
    acc = slice_volume(0.0) + slice_volume(1.0)
    acc += 4.0 * math.fsum(slice_volume((2 * i + 1) * h) for i in range(nodes // 2))
    acc += 2.0 * math.fsum(slice_volume((2 * i) * h) for i in range(1, nodes // 2))
    quadrature_value = acc * h / 3.0
    assert abs(quadrature_value - closed) <= 1e-3 * closed

    half = rational(1, 2)
    for n, count in ((2, 25), (3, 25)):
        for i in range(count):
            A = random_polytope(n, n + 3 + (i % 3), 61_000 + 100 * n + 2 * i)
            B = random_polytope(n, n + 2 + (i % 4), 61_001 + 100 * n + 2 * i)
            assert verify_ckl_bound(A, B, half).passed, (n, i)
            assert verify_layered_lower_bound(A, B).passed, (n, i)


def test_08_functional_sharp_pair_sandwich_and_support_identity():
    """Functional layer: (a) the sharp exponential pair has both the
    weighted sup-convolution and the second density integrating to 1 within
    1e-3 at resolution 129 for lambda in {0.25, 0.5, 0.75} and n in {1,2};
    (b) the product inequality and its power-mean lower bound sandwich ten
    seeded log-concave pairs, with nonzero quadrature error bars recorded;
    (c) the sup-convolution exponent matches the join gauge at 16 sampled
    directions within grid tolerance, and the gauge-density normalization
    matches n! Vol(K) to 1e-3."""
    for n in (1, 2):
        for lam in (0.25, 0.5, 0.75):
            f, g = sharp_pair(n, lam, resolution=129)
            diff = lambda_difference(f, g, lam)
            assert abs(quadrature(diff).value - 1.0) <= 1e-3, (n, lam)
            assert abs(quadrature(g).value - 1.0) <= 1e-3, (n, lam)

    import random as _random
    rng = _random.Random(88_2026)
    for i in range(10):
        n = 1 + (i % 2)
        a = 0.6 + rng.random()
        b = 0.5 + rng.random()
        shift = rng.uniform(-0.4, 0.4)
        res = 97 if n == 1 else 33
        half_width = 5.0 if n == 1 else 4.0

        def gauss(axes, _a=a):
            grids = np.meshgrid(*axes, indexing="ij")
            return np.exp(-_a * sum(g * g for g in grids))

        def laplace(axes, _b=b, _s=shift):
            grids = np.meshgrid(*axes, indexing="ij")
            return np.exp(-_b * sum(np.abs(g - _s) for g in grids))

        f = sample_function(gauss, (-half_width,) * n, (half_width,) * n,
                            (res,) * n, log_concave=True)
        g = sample_function(laplace, (-half_width,) * n, (half_width,) * n,
                            (res,) * n, log_concave=True)
        lam = 0.25 + 0.05 * i
        rep = verify_functional_inequality(f, g, lam)
        assert rep.passed, i
        assert rep.meta["lower_bound_pass"], i
        assert rep.tol > 0 and rep.meta["err_difference"] > 0

    K = cube(2, low=-1, high=1)
    L = random_polytope(2, 9, 9_091)
    for lam in (0.25, 0.5):
        rep = delta_support_identity_check(K, L, lam)
        assert rep.passed, lam
        assert len(rep.meta["samples"]) == 16
        assert rep.meta["normalization_pass"]


def test_09_planar_reduction_invariants_and_final_bound():
    """On 100 seeded random centered polygons with up to 15 vertices and
    every lambda in {0.1, ..., 0.9}: each reduction step preserves area and
    centroid exactly, removes exactly one vertex, and never decreases the
    join-area objective; the final triangle objective is at most the
    closed-form simplex bound; all exact, in under 5 minutes."""
    start = time.monotonic()
    lambdas = [rational(k, 10) for k in range(1, 10)]
    ratios = {lam: simplex_hull_ratio(2, lam).ratio for lam in lambdas}
    for i in range(100):
        m = 4 + (i % 12)
        flavor = "hull-of-sphere-points" if i % 2 == 0 else "hull-of-gaussians"
        body = random_polytope(2, m, 33_000 + i, flavor)
        area = volume(body)
        for lam in lambdas:
            steps = reduce_to_triangle(body, lam)
            assert len(steps) == len(body.vertices) - 3
            for step in steps:
                assert volume(step.after) == area
                assert all(c == 0 for c in centroid(step.after))
                assert len(step.after.vertices) == len(step.before.vertices) - 1
                assert step.objective_after >= step.objective_before
            final_objective = steps[-1].objective_after if steps else \
                volume(scaled_reflected_join(body, lam))
            assert final_objective <= ratios[lam] * area, (i, str(lam))
    assert time.monotonic() - start < 300.0


def test_10_experiment_reports_byte_identical(tmp_path, monkeypatch):
    """Repeated runs of the same experiment config produce byte-identical
    JSON-lines and CSV reports; a leftover GODBERSEN_KIT_THREADS setting
    changes nothing."""
    configs = [
        dict(kind="kl", n=2, trials=3, seed=14, output_path=str(tmp_path / "a")),
        dict(kind="gfr", n=2, trials=3, seed=14, mode="float",
             output_path=str(tmp_path / "b")),
    ]
    for cfg in configs:
        assert run_experiment(ExperimentConfig(**cfg)) == 0
        base = cfg["output_path"]
        first = open(base + ".jsonl", "rb").read(), open(base + ".csv", "rb").read()
        assert run_experiment(ExperimentConfig(**cfg)) == 0
        second = open(base + ".jsonl", "rb").read(), open(base + ".csv", "rb").read()
        assert first == second
        monkeypatch.setenv("GODBERSEN_KIT_THREADS", "2")
        assert run_experiment(ExperimentConfig(**cfg)) == 0
        third = open(base + ".jsonl", "rb").read(), open(base + ".csv", "rb").read()
        monkeypatch.delenv("GODBERSEN_KIT_THREADS")
        assert first == third
        for line in first[0].decode().splitlines():
            record = json.loads(line)
            assert record["pass"] is True
