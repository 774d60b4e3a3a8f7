"""Scalar coercion and the two sweep modes.

Polytopes are exact everywhere: arbitrary-precision rationals,
``fractions.Fraction``, kept reduced with positive denominator, so
canonical form is free.  Every exact entry point reads a scalar (a
coordinate, lambda, theta) through :func:`read_exact`: a finite float at
its exact binary value, a "p/q" or decimal string exactly.  A sweep's
``mode`` (``"exact"`` or ``"float"``) changes no value; the translation
search and the ``functional`` layer compute in floats in either mode.
Deliberate rounding of a float to a rational goes through
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
    """Exact rational numerator/denominator from integers or rationals."""
    return Fraction(numerator, denominator)


def read_exact(x):
    """``x`` as an exact rational: a finite float at its exact binary value,
    a "p/q" or decimal string exactly.  Bools, non-finite floats and zero
    denominators ("1/0") are refused.  A Fraction is returned itself."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError("non-finite scalar %r" % x)
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (x,)) from None


def rationalize(x, denominator=1 << 20):
    """Nearest rational to the float ``x`` with the given denominator."""
    if not math.isfinite(x):
        raise ValueError("cannot rationalize %r" % x)
    return Fraction(round(x * denominator), denominator)


def scalar_to_json(x):
    return str(Fraction(x))


def bit_size(x) -> int:
    """Bits in the numerator/denominator; coordinate-growth metric for tests."""
    q = Fraction(x)
    return max(q.numerator.bit_length(), q.denominator.bit_length())
