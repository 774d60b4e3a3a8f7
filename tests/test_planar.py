"""Tests for the planar vertex-removal reduction: slide intervals, exact
area/centroid preservation, objective monotonicity, reduction chains, and
the planar bound check."""

import json
import random

import pytest

from godbersen_kit import planar
from godbersen_kit.errors import DegenerateInput, NotCentered, TooFewVertices
from godbersen_kit.planar import (
    ccw_vertices,
    reduce_to_triangle,
    remove_vertex_step,
    slide_interval,
    slide_vertex,
    verify_planar_gfr,
)
from godbersen_kit.polytopes import (
    centroid,
    convex_hull,
    scaled_reflected_join,
    translate,
    volume,
)
from godbersen_kit.scalars import rational
from godbersen_kit.simplexes import simplex_hull_ratio

from oracles import random_exact_points


def centered_square(side=rational(1)):
    h = side / 2
    return convex_hull([(-h, -h), (h, -h), (h, h), (-h, h)])


def random_centered_polygon(rng, m, denom=16):
    while True:
        try:
            P = convex_hull(random_exact_points(rng, m, 2, denom=denom))
        except DegenerateInput:
            continue
        if len(P.vertices) >= 4:
            return translate(P, tuple(-c for c in centroid(P)))


def shoelace_twice(cycle):
    total = 0
    for i in range(len(cycle)):
        a, b = cycle[i], cycle[(i + 1) % len(cycle)]
        total += a[0] * b[1] - a[1] * b[0]
    return total


# ---------------------------------------------------------------------------
# vertex cycle


def test_ccw_cycle_orientation_and_start():
    rng = random.Random(3)
    for _ in range(10):
        P = random_centered_polygon(rng, 9)
        cyc = ccw_vertices(P)
        assert sorted(cyc) == sorted(P.vertices)
        assert shoelace_twice(cyc) > 0
        assert cyc[0] == min(cyc)


# ---------------------------------------------------------------------------
# single steps


def test_square_steps_every_vertex():
    sq = centered_square()
    lam = rational(1, 2)
    for i in range(4):
        step = remove_vertex_step(sq, lam, i)
        assert step.t_endpoints == (-1, 1)
        assert step.chosen_t == -1 and step.endpoint == "alpha"  # tie -> alpha
        assert len(step.after.vertices) == 3
        assert volume(step.after) == 1
        assert all(c == 0 for c in centroid(step.after))
        assert step.objective_before == rational(1, 4)
        assert step.objective_after == rational(1, 2)


def test_zero_slide_reproduces_input():
    sq = centered_square()
    for i in range(4):
        P = slide_vertex(sq, i, 0)
        assert P.vertices == sq.vertices


def test_slide_preserves_area_and_centroid_inside_interval():
    rng = random.Random(11)
    for _ in range(8):
        P = random_centered_polygon(rng, 8)
        i = rng.randrange(len(P.vertices))
        alpha, beta = slide_interval(P, i)
        assert alpha < 0 < beta
        for q in (rational(1, 7), rational(1, 2), rational(6, 7)):
            t = alpha + (beta - alpha) * q
            Q = slide_vertex(P, i, t)
            assert volume(Q) == volume(P)
            assert all(c == 0 for c in centroid(Q))


def _absorbed_hull(P, i, t, drop):
    """Oracle: the cycle of P with vertex i slid by t and vertex ``drop``
    deleted, hulled and recentered independently of planar's own code."""
    cyc = ccw_vertices(P)
    n = len(cyc)
    x1, x2, x3 = cyc[i - 1], cyc[i], cyc[(i + 1) % n]
    u = (x3[0] - x1[0], x3[1] - x1[1])
    slid = list(cyc)
    slid[i] = (x2[0] + t * u[0], x2[1] + t * u[1])
    Q = convex_hull([v for j, v in enumerate(slid) if j != drop % n])
    return translate(Q, tuple(-c for c in centroid(Q)))


def test_endpoint_deletion_matches_hull_oracle():
    # at alpha the slid vertex lands on the line through x1's other edge and
    # absorbs x1; at beta it absorbs x3; the slid vertex itself stays
    rng = random.Random(29)
    for _ in range(12):
        P = random_centered_polygon(rng, 9)
        i = rng.randrange(len(P.vertices))
        alpha, beta = slide_interval(P, i)
        for t, drop in ((alpha, i - 1), (beta, i + 1)):
            expected = _absorbed_hull(P, i, t, drop)
            assert len(expected.vertices) == len(P.vertices) - 1
            assert slide_vertex(P, i, t).vertices == expected.vertices
        step = remove_vertex_step(P, rational(2, 5), i)
        drop = i - 1 if step.endpoint == "alpha" else i + 1
        assert step.after.vertices == _absorbed_hull(P, i, step.chosen_t, drop).vertices


def test_objective_is_convex_in_slide_parameter():
    # all vertices move along one direction, so the join area is convex in
    # t: every sampled midpoint lies below the chord, exactly in rationals
    rng = random.Random(41)
    lam = rational(3, 10)
    for _ in range(4):
        P = random_centered_polygon(rng, 7)
        i = rng.randrange(len(P.vertices))
        alpha, beta = slide_interval(P, i)
        ts = [alpha + (beta - alpha) * rational(k, 4) for k in range(5)]
        objs = {t: volume(scaled_reflected_join(slide_vertex(P, i, t), lam))
                for t in ts}
        for a in range(5):
            for b in range(a + 1, 5):
                mid = (ts[a] + ts[b]) / 2
                om = volume(scaled_reflected_join(slide_vertex(P, i, mid), lam))
                assert 2 * om <= objs[ts[a]] + objs[ts[b]]


def test_step_errors():
    sq = centered_square()
    shifted = translate(sq, (rational(1, 3), 0))
    with pytest.raises(NotCentered):
        remove_vertex_step(shifted, rational(1, 2), 0)
    tri = convex_hull([(-1, -1), (2, -1), (-1, 2)])
    tri = translate(tri, tuple(-c for c in centroid(tri)))
    with pytest.raises(TooFewVertices):
        remove_vertex_step(tri, rational(1, 2), 0)
    seg = convex_hull([(-1,), (1,)])
    with pytest.raises(DegenerateInput):
        remove_vertex_step(seg, rational(1, 2), 0)


# ---------------------------------------------------------------------------
# full reduction chains


def test_reduce_square_single_step():
    steps = reduce_to_triangle(centered_square(), rational(1, 2))
    assert len(steps) == 1
    assert len(steps[-1].after.vertices) == 3


def test_reduce_triangle_is_empty():
    tri = convex_hull([(-1, -1), (2, -1), (-1, 2)])
    tri = translate(tri, tuple(-c for c in centroid(tri)))
    assert reduce_to_triangle(tri, rational(1, 2)) == []


def test_reduce_chain_invariants():
    rng = random.Random(57)
    lam = rational(3, 10)
    for _ in range(3):
        P = random_centered_polygon(rng, 10)
        steps = reduce_to_triangle(P, lam)
        assert len(steps) == len(P.vertices) - 3
        area = volume(P)
        prev_obj = None
        Q = P
        for step in steps:
            assert step.before.vertices == Q.vertices
            assert len(step.after.vertices) == len(Q.vertices) - 1
            assert volume(step.after) == area
            assert all(c == 0 for c in centroid(step.after))
            assert step.objective_after >= step.objective_before
            if prev_obj is not None:
                assert step.objective_before == prev_obj
            prev_obj = step.objective_after
            Q = step.after
        # the final triangle value is the planar maximum at this area
        bound = simplex_hull_ratio(2, lam).ratio * area
        assert prev_obj <= bound


def test_reduce_uncentered_input_is_recentered():
    sq = translate(centered_square(), (rational(5, 7), rational(-2, 7)))
    steps = reduce_to_triangle(sq, rational(1, 2))
    assert len(steps) == 1
    assert all(c == 0 for c in centroid(steps[0].before))


def test_reduce_sorts_the_cycle_once_per_round(monkeypatch):
    calls = []
    original = planar.ccw_vertices

    def counting(P):
        calls.append(len(P.vertices))
        return original(P)

    monkeypatch.setattr(planar, "ccw_vertices", counting)
    P = random_centered_polygon(random.Random(58), 10)
    steps = reduce_to_triangle(P, rational(1, 3))
    assert len(steps) == len(P.vertices) - 3
    assert calls == [len(s.before.vertices) for s in steps]


def test_reduce_builds_each_join_once(monkeypatch):
    # one join for the centered input, then one per endpoint candidate: a
    # step's join area after is the next step's area before
    calls = []
    original = planar.scaled_reflected_join

    def counting(P, lam):
        calls.append(P)
        return original(P, lam)

    monkeypatch.setattr(planar, "scaled_reflected_join", counting)
    P = random_centered_polygon(random.Random(59), 10)
    steps = reduce_to_triangle(P, rational(1, 3))
    assert len(steps) >= 2
    assert len(calls) == 1 + 2 * len(steps)


def test_planar_trial_builds_each_join_once(monkeypatch):
    # the hull-area-bound check reads the chain's first join area instead of
    # building the centered input's join again
    from godbersen_kit import harness

    calls = []
    original = planar.scaled_reflected_join

    def counting(P, lam):
        calls.append(P)
        return original(P, lam)

    monkeypatch.setattr(planar, "scaled_reflected_join", counting)
    monkeypatch.setattr(harness, "scaled_reflected_join", counting)
    config = harness.ExperimentConfig.from_json(
        {"kind": "planar", "n": 2, "trials": 2, "mode": "exact", "seed": 401})
    for trial in range(2):
        calls.clear()
        records = harness.run_trial(config, trial)
        steps = sum(r["meta"]["steps"] for r in records
                    if r["check"] == "triangle-reduction-chain")
        assert steps > 0
        assert len(calls) == len(config.lambda_grid) + 2 * steps


def test_verify_planar_gfr_takes_a_known_join_area():
    P = random_centered_polygon(random.Random(61), 7)
    lam = rational(1, 3)
    rep = verify_planar_gfr(P, lam)
    assert verify_planar_gfr(P, lam, volume(scaled_reflected_join(P, lam))) == rep


def test_step_trace_is_json_serializable():
    steps = reduce_to_triangle(centered_square(), rational(1, 2))
    text = json.dumps([s.to_json_dict() for s in steps], sort_keys=True)
    data = json.loads(text)
    assert data[0]["endpoint"] == "alpha"
    assert "flagged" not in data[0]


# ---------------------------------------------------------------------------
# the planar bound


def test_gfr_triangle_equality():
    tri = convex_hull([(0, 0), (1, 0), (0, 1)])
    tri = translate(tri, tuple(-c for c in centroid(tri)))
    for lam in (rational(1, 4), rational(1, 2), rational(7, 10)):
        rep = verify_planar_gfr(tri, lam)
        assert rep.passed
        assert rep.lhs == rep.rhs


def test_gfr_square_half():
    rep = verify_planar_gfr(centered_square(), rational(1, 2))
    assert rep.passed
    assert rep.lhs == rational(1, 4)
    assert rep.rhs == rational(1, 2)
    assert rep.lhs < rep.rhs


def test_gfr_accepts_uncentered_input():
    sq = translate(centered_square(), (rational(3), rational(4)))
    rep = verify_planar_gfr(sq, rational(1, 2))
    assert rep.passed
    assert rep.lhs == rational(1, 4)
    assert rep.meta["centroid_shift"] == [rational(3), rational(4)]


def test_gfr_random_sweep():
    rng = random.Random(73)
    lams = [rational(k, 10) for k in range(1, 10)]
    for _ in range(12):
        P = random_centered_polygon(rng, rng.choice([5, 7, 9]))
        for lam in lams:
            rep = verify_planar_gfr(P, lam)
            assert rep.passed, (P.vertices, lam)


def test_gfr_endpoint_lambdas():
    sq = centered_square()
    rep0 = verify_planar_gfr(sq, rational(0))
    rep1 = verify_planar_gfr(sq, rational(1))
    assert rep0.passed and rep1.passed
    assert rep0.lhs == rep0.rhs == 1  # join is K itself, bound is the area
    assert rep1.lhs == rep1.rhs == 1
