"""Scalar coercion and the two sweep modes.

Polytopes are exact everywhere: arbitrary-precision rationals,
``fractions.Fraction``, kept reduced with positive denominator, so
canonical form is free.  A sweep's ``mode`` (``"exact"`` or ``"float"``)
only says how the translation search, the ``functional`` layer and the
closed-form simplex ratio read lambda: as a rational or as an IEEE
float64.  The search and ``functional`` compute in floats either way.

Floats never silently enter exact arithmetic: :func:`exact_scalar`
rejects them.  A float coordinate is read at its exact binary value by
:func:`read_exact`, and deliberate rounding to a rational goes through
:func:`rationalize`.
"""

from __future__ import annotations

import math
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"

#: Pivot epsilon of the float translation search's LP.
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


def read_exact(x):
    """``x`` as an exact rational; a finite float is read at its exact
    binary value, anything else as by :func:`exact_scalar`."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("non-finite coordinate %r" % x)
        return Fraction(x)
    return exact_scalar(x)


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


def bit_size(x) -> int:
    """Bits in the numerator/denominator; coordinate-growth metric for tests."""
    q = Fraction(x)
    return max(q.numerator.bit_length(), q.denominator.bit_length())
