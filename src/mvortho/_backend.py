"""Rational arithmetic backend.

Every scalar in this package is an exact rational, a stdlib
``fractions.Fraction``.  ``BACKEND`` names it; ``perfbench/run.py``
records it in its environment line.  The hot kernels scale rationals to
Python ints over one common denominator (:func:`integer_scaled`) and
form one rational per result.  Value tables carry that integer form
(:meth:`mvortho.core.LatticeFunction.integer_form`).  Every polynomial
value, in a table or at one point, is built from the integers of its
factor slots, each an integer sum over its coefficient row's
denominator, so no rational is formed per factor value; the kernels and
the exporters that read the tables rescale nothing, and a table forms
its rationals only when its values are read.  Weights are integer slot
products too: the family's rows in each x_i and in |x|, each scaled to
integers once.  The operator stencils are written from the family's
rate constants scaled once to integers, and the degree test takes Newton
differences of integer images: no rational is formed per stencil entry.
"""

from __future__ import annotations

import math
from fractions import Fraction

BACKEND = "fractions"


def R(num=0, den=None):
    """Build an exact rational from ints, 'p/q' strings, or rationals."""
    if den is not None:
        return Fraction(num, den)
    if isinstance(num, str):
        return Fraction(num.strip())
    if isinstance(num, (int, Fraction)):
        return Fraction(num)
    # any numbers.Rational-like value; floats have no numerator and are refused
    return Fraction(num.numerator, num.denominator)


ZERO = R(0)
ONE = R(1)


def is_integral(q) -> bool:
    """True when the rational is an integer."""
    return R(q).denominator == 1


def integer_scaled(values) -> tuple[list, int]:
    """Integer numerators of ``values`` over their lcm denominator, and that
    denominator; None entries stay None."""
    den = math.lcm(*(v.denominator for v in values if v is not None))
    return [None if v is None else v.numerator * (den // v.denominator)
            for v in values], den


def as_integer(q) -> int:
    """Exact conversion to int; raises ValueError on a proper fraction."""
    q = R(q)
    if q.denominator != 1:
        raise ValueError(f"{q} is not an integer")
    return int(q.numerator)
