"""Closed-form simplex checks: the hull-ratio formula, the explicit joined
body, and the algebraic bridge to the binomial bound."""

import math

import pytest

from godbersen_kit.linalg import dot
from godbersen_kit.polytopes import (
    centered_simplex,
    scaled_reflected_join,
    standard_simplex,
    volume,
)
from godbersen_kit.scalars import rational as Q
from godbersen_kit.simplexes import gfr_implies_godbersen_bound, simplex_hull_ratio

from oracles import (
    build_Kt,
    chart_simplex,
    kt_ambient_vertices,
    kt_facet_direction,
    kt_volume_ratio_formula,
)


def lambda_grid(count=21):
    return [Q(i, count - 1) for i in range(count)]


# ---------------------------------------------------------------------------
# simplex_hull_ratio


def test_ratio_n2_half():
    f = simplex_hull_ratio(2, Q(1, 2))
    assert f.k == (1,)
    assert f.ratio == Q(1, 2)


def test_ratio_n3_half_tie():
    f = simplex_hull_ratio(3, Q(1, 2))
    assert f.k == (1, 2)
    assert f.ratio == Q(3, 8)


def test_ratio_lambda_zero():
    for n in (1, 2, 3, 4):
        f = simplex_hull_ratio(n, Q(0))
        assert f.ratio == 1
        assert f.k == (n,)


def test_ratio_inclusion_case():
    # lam below 1/(n+1): the reflected copy is inside, ratio (1-lam)^n
    for n in (2, 3, 4):
        lam = Q(1, n + 2)
        f = simplex_hull_ratio(n, lam)
        assert f.k == (n,)
        assert f.ratio == (1 - lam) ** n


def test_ratio_symmetry():
    for n in (2, 3, 4):
        for lam in lambda_grid(11):
            assert simplex_hull_ratio(n, lam).ratio == simplex_hull_ratio(n, 1 - lam).ratio


def test_ratio_tie_points_give_two_k():
    for n in (2, 3, 4):
        for j in range(1, n + 1):
            lam = Q(n + 1 - j, n + 1)
            f = simplex_hull_ratio(n, lam)
            assert len(f.k) == 2, (n, j, f)


def test_ratio_matches_geometry_on_centered_simplex():
    # the acceptance sweep does n <= 4 and 21 values; keep a fast version here
    for n in (2, 3):
        S = centered_simplex(n)
        vol_s = volume(S)
        for lam in lambda_grid(11):
            body = scaled_reflected_join(S, lam)
            assert volume(body) == simplex_hull_ratio(n, lam).ratio * vol_s, (n, lam)


def test_vertex_at_origin_identity():
    # sum_k C(n,k)(1-lam)^k lam^(n-k) = 1, algebraically and geometrically
    for n in (2, 3):
        S = standard_simplex(n)
        for lam in (Q(1, 4), Q(1, 2), Q(2, 3)):
            algebraic = sum(
                math.comb(n, k) * (1 - lam) ** k * lam ** (n - k) for k in range(n + 1)
            )
            assert algebraic == 1
            assert volume(scaled_reflected_join(S, lam)) == volume(S)


def test_ratio_reads_a_float_lambda_exactly():
    for n in range(1, 7):
        got = simplex_hull_ratio(n, 0.25)
        assert got.to_json_dict() == simplex_hull_ratio(n, Q(1, 4)).to_json_dict()


def test_ratio_rejects_out_of_range():
    with pytest.raises(ValueError):
        simplex_hull_ratio(2, Q(3, 2))


# ---------------------------------------------------------------------------
# build_Kt


def test_kt_range_enforced():
    with pytest.raises(ValueError):
        build_Kt(2, Q(1, 10))
    with pytest.raises(ValueError):
        build_Kt(2, Q(3, 2))


def test_kt_vertex_count():
    # generic t: all 2(n+1) points are extreme
    K = build_Kt(2, Q(2, 3))
    assert len(K.vertices) == 6


def test_kt_facet_direction_certificate():
    # u_k touches the simplex vertices at -t from below and never less
    for n in (2, 3, 4):
        for t in (Q(1, n), Q(1, 2) if n >= 2 else Q(1), Q(1)):
            if not Q(1, n) <= t <= 1:
                continue
            w = Q(n + 1) / (1 + t)
            ks = {k for k in (int(w), int(w) + 1, int(w) - 1) if w - 1 <= k <= w and 0 <= k <= n}
            es, vs = kt_ambient_vertices(n, t)
            for k in ks:
                u = kt_facet_direction(n, k, t)
                evals = [dot(e, u) for e in es]
                vvals = [dot(v, u) for v in vs]
                assert min(evals) == -t
                assert all(val >= -t for val in evals + vvals)


def test_kt_volume_ratio_formula():
    # 11 t values across [1/n, 1], exact match against the hull volume
    for n in (2, 3, 4):
        lo, hi = Q(1, n), Q(1)
        for i in range(11):
            t = lo + (hi - lo) * Q(i, 10)
            K = build_Kt(n, t)
            _, formula = kt_volume_ratio_formula(n, t)
            assert volume(K) == formula * volume(chart_simplex(n)), (n, t)


def test_kt_generic_facets_have_n_vertices():
    for n, t in ((2, Q(3, 4)), (3, Q(5, 8))):
        # generic: neither (n+1)/(1+t) nor (n+1)/(1+t) - 1 is an integer
        K = build_Kt(n, t)
        es, _ = kt_ambient_vertices(n, t)
        chart_simplex_verts = {e[:n] for e in es}
        w = Q(n + 1) / (1 + t)
        k = int(w)
        for f in K.facets:
            on = [v for v in K.vertices if dot(f.outward_normal, v) == f.offset]
            assert len(on) == n
            from_simplex = sum(1 for v in on if v in chart_simplex_verts)
            assert from_simplex == k, (n, t, f)
        assert len(K.facets) == (n + 1) * math.comb(n, k)


def test_kt_matches_lambda_form():
    # t = lam/(1-lam) identifies the joined body with the centered-simplex
    # formula: Vol(K_t)/Vol(S) = ratio(lam) / (1-lam)^n
    for n in (2, 3):
        for lam_num, lam_den in ((1, 3), (2, 5), (1, 2)):
            lam = Q(lam_num, lam_den)
            t = lam / (1 - lam)
            if not Q(1, n) <= t <= 1:
                continue
            K = build_Kt(n, t)
            lhs = volume(K) / volume(chart_simplex(n))
            rhs = simplex_hull_ratio(n, lam).ratio / (1 - lam) ** n
            assert lhs == rhs, (n, lam)


# ---------------------------------------------------------------------------
# gfr_implies_godbersen_bound


def test_bridge_n3_j1():
    rep = gfr_implies_godbersen_bound(3, 1)
    assert rep.passed
    assert rep.rhs == 3
    assert rep.lhs == 3


def test_bridge_n2_j1():
    rep = gfr_implies_godbersen_bound(2, 1)
    assert rep.passed
    assert rep.lhs == 2


def test_bridge_sweep_to_n8():
    for n in range(2, 9):
        for j in range(1, n):
            rep = gfr_implies_godbersen_bound(n, j)
            assert rep.passed
            assert rep.lhs == math.comb(n, j)
            assert rep.tol == 0
