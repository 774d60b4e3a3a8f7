"""Arithmetic modes and scalar coercion.

Two modes exist everywhere in the package:

* ``"exact"``  -- arbitrary-precision rationals, ``fractions.Fraction``,
  kept reduced with positive denominator, so canonical form is free.
* ``"float"``  -- IEEE float64 with tolerance-based predicates.

The hull kernel serves both: it reads each point's exact value (a float
is a dyadic rational) as Python ints over the point's own denominator,
and converts only the values it returns.

Floats never silently enter exact arithmetic: :func:`exact_scalar` rejects
them, and deliberate conversion goes through :func:`rationalize`.
"""

from __future__ import annotations

import math
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"

#: Relative epsilon for float-mode sign predicates.
FLOAT_EPS = 1e-12


def rational(numerator, denominator=1):
    """Exact rational numerator/denominator from integers or rationals;
    a 'p/q' string goes through :func:`exact_scalar`."""
    return Fraction(numerator, denominator)


def exact_scalar(x):
    """Coerce ``x`` to an exact rational; floats are refused, and a zero
    denominator ("1/0") raises ValueError."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, float):
        raise TypeError(
            "refusing to coerce float %r into exact arithmetic; use rationalize()" % x
        )
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (x,)) from None


def float_scalar(x):
    """Coerce ``x`` to a finite float."""
    v = float(x)
    if not math.isfinite(v):
        raise ValueError("non-finite float scalar: %r" % x)
    return v


def as_scalar(x, mode):
    if mode == EXACT:
        return exact_scalar(x)
    if mode == FLOAT:
        return float_scalar(x)
    raise ValueError("unknown mode %r" % mode)


def rationalize(x, denominator=1 << 20):
    """Nearest rational with the given denominator (deliberate float -> exact)."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("cannot rationalize %r" % x)
        return Fraction(round(x * denominator), denominator)
    return exact_scalar(x)


def scalar_to_json(x):
    if isinstance(x, float):
        return x
    return str(Fraction(x))


def scalar_from_json(v, mode):
    if mode == FLOAT:
        return float_scalar(v)
    if isinstance(v, float):
        raise TypeError("exact-mode JSON must use fraction strings, got float %r" % v)
    return exact_scalar(v)


def bit_size(x) -> int:
    """Bits in the numerator/denominator; coordinate-growth metric for tests."""
    if isinstance(x, float):
        return 53
    q = Fraction(x)
    return max(q.numerator.bit_length(), q.denominator.bit_length())
