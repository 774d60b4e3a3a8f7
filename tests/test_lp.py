"""The LP behind ``intersect``/``to_vrep``: ``feasible_interior`` starts
from a feasible point and stays exact on exact input.

In each fixed system the origin violates a row, so the LP starts at
t0 < 0: an unbounded exact intersection, whose interior point must be
exact, and two solid systems, which must be found solid.
"""

import random
from fractions import Fraction

import pytest

from godbersen_kit.errors import Unbounded
from godbersen_kit.lp import OPTIMAL, feasible_interior, simplex_max
from godbersen_kit.polytopes import HPolytope, intersect, to_vrep


def _system(normals, offsets):
    return HPolytope(len(normals[0]), tuple(
        (tuple(Fraction(c) for c in n), Fraction(o)) for n, o in zip(normals, offsets)))


def _attains(H, margin, x):
    """Each row's slack at x is at least margin times the row's L1 norm."""
    return all(o - sum(a * c for a, c in zip(n, x)) >= margin * sum(abs(a) for a in n)
               for n, o in H.halfspaces)


def _assert_exact(margin, x):
    assert not isinstance(margin, float)
    assert not any(isinstance(c, float) for c in x)


def test_unbounded_exact_intersection_has_an_exact_interior_point():
    H = _system([("-3/2", "-1/2", "5/3"), ("5/3", "2/3", "1/2")], ["-2", "1/2"])
    I = intersect(H)
    assert I.full_dim and not I.empty
    assert not any(isinstance(c, float) for c in I.interior_point)
    assert _attains(H, 0, I.interior_point)
    with pytest.raises(Unbounded):
        to_vrep(I)


def test_solid_system_needing_a_negative_start_solves():
    H = _system([("4/3", "5/4"), ("-5/2", "3"), ("0", "3/4"), ("-1/2", "3/4"), ("3/4", "4")],
                ["-3", "1/3", "4", "-1", "2"])
    margin, x = feasible_interior(*zip(*H.halfspaces), H.dim)
    _assert_exact(margin, x)
    assert margin > 0 and _attains(H, margin, x)
    # (-11/13, -139/39) is strictly inside, so the system is solid.
    assert _attains(H, Fraction(1, 10**6), (Fraction(-11, 13), Fraction(-139, 39)))
    I = intersect(H)
    assert I.full_dim and not I.empty


def test_solid_eight_row_system_is_not_empty():
    H = _system([("2", "1/2"), ("3/2", "1/4"), ("-5/3", "3"), ("2", "-1/4"), ("4", "2"),
                 ("4", "-1"), ("-1/2", "2/3"), ("5/2", "5/2")],
                ["3", "2/3", "-2/3", "-3/2", "4", "-2/3", "-1", "-1/2"])
    # (-107/39, -69/13) has slack at least its row's L1 norm on every row.
    assert _attains(H, 1, (Fraction(-107, 39), Fraction(-69, 13)))
    I = intersect(H)
    assert not I.empty and I.full_dim


def test_random_exact_systems_give_exact_margins_attained_on_every_row():
    rng = random.Random(1)
    solved = 0
    for _ in range(2000):
        d, m = rng.randint(1, 4), rng.randint(1, 8)
        H = _system([[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
                     for _ in range(m)],
                    [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m)])
        margin, x = feasible_interior(*zip(*H.halfspaces), d)
        if margin is None:
            continue
        solved += 1
        _assert_exact(margin, x)
        assert 0 <= margin <= 1 and _attains(H, margin, x)
    assert solved > 1000


def test_simplex_max_needs_nonnegative_right_hand_sides():
    one = Fraction(1)
    with pytest.raises(ValueError):
        simplex_max([one], [[one], [-one]], [one, -one])
    assert simplex_max([one], [[one], [-one]], [one, 0 * one])[:2] == (OPTIMAL, one)
