"""Rational arithmetic backend.

Every scalar in this package is an exact rational, a stdlib
``fractions.Fraction``; ``BACKEND`` names it, and ``perfbench/run.py``
records it in its environment line.  The hot kernels scale rationals to
Python ints over one common denominator (:func:`integer_scaled`) and form
one rational per result.  A value table stores only that integer form
(:class:`mvortho.core.LatticeFunction`) and forms its rationals when its
values are read.  Polynomial values are built from the integers of their
factor slots (whose rows are built in ints, keyed by int pairs), weights
from the family's weight rows and stencils from its rate constants, each
scaled to integers once: no rational is formed per row term, factor
value, weight factor or stencil entry, and the kernels and exporters that
read the tables rescale nothing.  A rational is formed only for a value
that a report or an export prints: a check that only compares a value
with 0, or hashes it, reads its integer form or its int pair, and
:func:`R` returns a ``Fraction`` as it is.  A zero result, such as the
defect of an identity that holds or a zero Gram entry, is the shared
``ZERO``.  What outlives a call is in :mod:`mvortho.core`.
"""

from __future__ import annotations

import math
from fractions import Fraction

BACKEND = "fractions"


def R(num=0, den=None):
    """Build an exact rational from ints, 'p/q' strings, or rationals.

    A ``Fraction`` is returned as it is, and num/den with num = 0 and
    den != 0 is the shared ``ZERO``."""
    if den is not None:
        return Fraction(num, den) if num or not den else ZERO
    if isinstance(num, Fraction):
        return num
    if isinstance(num, str):
        return Fraction(num.strip())
    if isinstance(num, int):
        return Fraction(num)
    try:  # any numbers.Rational-like value
        return Fraction(num.numerator, num.denominator)
    except AttributeError:
        raise TypeError(f"{num!r} is not exact: give an int, a Fraction or 'p/q'") from None


ZERO = Fraction(0)
ONE = R(1)


def is_integral(q) -> bool:
    """True when the rational is an integer."""
    return R(q).denominator == 1


def integer_scaled(values) -> tuple[list, int]:
    """Integer numerators of ``values`` over their lcm denominator, and that
    denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def as_integer(q) -> int:
    """Exact conversion to int; raises ValueError on a proper fraction."""
    q = R(q)
    if q.denominator != 1:
        raise ValueError(f"{q} is not an integer")
    return int(q.numerator)
