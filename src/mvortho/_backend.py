"""Rational arithmetic backend.

Every scalar in this package is an exact rational.  Two interchangeable
backends provide it:

* ``gmpy2.mpq`` -- GMP-backed compiled rationals (fast path), and
* ``fractions.Fraction`` -- pure-Python fallback from the stdlib.

The backend is chosen once, at import time.  Set ``MVORTHO_BACKEND`` to
``gmpy2`` or ``fractions`` to force a choice; by default gmpy2 is used
when importable.  ``perfbench/run.py`` records the backend it ran on in
its environment line; no benchmark compares the two.

Both types follow the ``numbers.Rational`` protocol (``.numerator``,
``.denominator``, exact ``+ - * /``, comparisons, ``abs``), which is all
the rest of the package relies on.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

_requested = os.environ.get("MVORTHO_BACKEND", "").strip().lower()

if _requested not in ("", "gmpy2", "fractions", "python"):
    raise ImportError(
        f"MVORTHO_BACKEND={_requested!r} not recognised "
        "(use 'gmpy2' or 'fractions')"
    )

_use_gmpy = _requested in ("", "gmpy2")
_mpq = None
if _use_gmpy:
    try:
        from gmpy2 import mpq as _mpq
    except ImportError:
        if _requested == "gmpy2":
            raise
        _mpq = None

if _mpq is not None:
    BACKEND = "gmpy2"

    def R(num=0, den=None):
        """Build an exact rational from ints, 'p/q' strings, or rationals."""
        if den is not None:
            return _mpq(num, den)
        if isinstance(num, str):
            return _mpq(num.strip())
        return _mpq(num)

else:
    BACKEND = "fractions"

    def R(num=0, den=None):
        """Build an exact rational from ints, 'p/q' strings, or rationals."""
        if den is not None:
            return Fraction(num, den)
        if isinstance(num, str):
            return Fraction(num.strip())
        if isinstance(num, (int, Fraction)):
            return Fraction(num)
        # any numbers.Rational-like value (e.g. a gmpy2.mpq)
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
