"""Combinatorial primitives, lattice enumeration, and parameter bundles.

All quantities are exact: coordinates and degrees are Python ints,
scalars are backend rationals (see :mod:`mvortho._backend`).  Everything
here is a pure function of its inputs; values are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Sequence

from ._backend import R, ZERO, as_integer
from .serialize import rational_str


def rising_factorial(a, k: int):
    """Rising factorial a(a+1)...(a+k-1); empty product for k = 0."""
    if k < 0:
        raise ValueError("rising_factorial needs k >= 0")
    out = R(1)
    a = R(a)
    for j in range(k):
        out *= a + j
    return out


def term_row(bound: int, ratio) -> list:
    """[t_0, ..., t_bound] with t_0 = 1 and t_k = t_{k-1} * ratio(k)."""
    return list(accumulate(range(1, bound + 1), lambda t, k: t * ratio(k), initial=R(1)))


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` non-negative ints summing to `total`, lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_lattice(n: int, N: int) -> tuple[tuple[int, ...], ...]:
    """All x in N_0^n with |x| <= N, graded-lexicographic order.

    Points are sorted by total |x| first, then lexicographically; the
    result has binomial(N + n, n) entries.  This fixed order is the
    canonical indexing used by every table and matrix in the package.
    """
    if n < 1 or N < 0:
        raise ValueError("enumerate_lattice needs n >= 1 and N >= 0")
    pts: list[tuple[int, ...]] = []
    for s in range(N + 1):
        pts.extend(compositions(s, n))
    return tuple(pts)


def enumerate_degrees(n: int, max_total: int) -> tuple[tuple[int, ...], ...]:
    """Degree multi-indices with |m| <= max_total, same graded-lex order."""
    return enumerate_lattice(n, max_total)


def tail_sum(x: Sequence[int], i: int) -> int:
    """x_{>i} = x_{i+1} + ... + x_n for 1 <= i <= n-1 (1-based i)."""
    n = len(x)
    if not 1 <= i <= n - 1:
        raise ValueError(f"tail index i = {i} outside [1, {n - 1}]")
    return sum(x[i:])


def tail_param(a: Sequence, i: int):
    """a_{>i} = a_{i+1} + ... + a_n for 1 <= i <= n-1 (1-based i)."""
    n = len(a)
    if not 1 <= i <= n - 1:
        raise ValueError(f"tail index i = {i} outside [1, {n - 1}]")
    return sum((R(v) for v in a[i:]), ZERO)


@dataclass(frozen=True)
class Lattice:
    """Enumerated finite lattice {x in N_0^n : |x| <= bound}.

    For the bounded families the bound is N and the lattice is the exact
    domain.  For Meixner the true domain is all of N_0^n and a lattice
    with ``truncated=True`` is a finite working box.
    """

    n: int
    bound: int
    truncated: bool = False
    points: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = enumerate_lattice(self.n, self.bound)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "index", {p: i for i, p in enumerate(pts)})

    @property
    def size(self) -> int:
        return len(self.points)

    @cached_property
    def steps(self) -> tuple:
        """(up, down): up[j][i] and down[j][i] index x + e_j and x - e_j for
        the i-th point x, None off the lattice; the stencils read them."""
        return tuple([[self.index.get(x[:j] + (x[j] + d,) + x[j + 1:]) for x in self.points]
                      for j in range(self.n)] for d in (1, -1))


@dataclass(frozen=True)
class LatticeFunction:
    """Total map from an enumerated lattice to rationals, stored as its
    integer form: the values in the lattice's canonical order are
    nums[i] / den.

    The pair is reduced by gcd(den, *nums) on construction, so den is the
    lcm of the reduced denominators of the values and the form is
    canonical: two tables are equal exactly when their lattices and
    values are.  The integer kernels read the pair (:meth:`integer_form`);
    the rationals are formed on the first read of :attr:`values`.
    """

    lattice: Lattice
    nums: tuple = field(repr=False)
    den: int

    def __post_init__(self):
        g = math.gcd(self.den, *self.nums)
        object.__setattr__(self, "nums", tuple(v // g for v in self.nums))
        object.__setattr__(self, "den", self.den // g)

    @cached_property
    def values(self) -> tuple:
        """The values in the lattice's canonical order."""
        return tuple(R(v, self.den) for v in self.nums)

    def integer_form(self) -> tuple:
        """(numerators, denominator): the values as Python ints over their lcm
        denominator, as :func:`mvortho._backend.integer_scaled` gives them."""
        return self.nums, self.den

    def __call__(self, x):
        return self.values[self.lattice.index[tuple(x)]]


def positive_rational(value, what: str):
    q = R(value)
    if q <= 0:
        raise ValueError(f"{what} must be positive, got {q}")
    return q


@dataclass(frozen=True)
class FamilyParams:
    """What the three families share: positive rationals a_1..a_n, n >= 2.

    The subclasses in :mod:`mvortho.families` add their own parameters and
    carry their family's formulas as methods.  ``N`` is the lattice bound,
    None on the unbounded Meixner lattice.  Each declares its rates as the
    seven rationals ``rate_form = (u0, u1, v1, d0, d1, e1, e)`` of
    B_j = (u0 + u1 |x|)(v1 x_j + a_j), D_j = x_j (d0 + d1 |x|) and
    c_jk = x_j (e1 x_k + e a_k), which the integer stencils
    (:func:`mvortho.operators.operator_matrix`) and the integer rates of
    the rate identities (:func:`mvortho.operators.integer_rates`) read.
    """

    a: tuple

    # Only the Hahn family has its single-variable shift identities and the
    # Rodrigues construction of its pair polynomials checked.
    hahn_checks = False

    def __post_init__(self):
        a = tuple(positive_rational(v, "a_i") for v in self.a)
        object.__setattr__(self, "a", a)
        if len(a) < 2:
            raise ValueError("need n >= 2 variables")

    def _check_bound(self) -> None:
        if not (isinstance(self.N, int) and self.N > self.n):
            raise ValueError(f"need integer N > n, got N={self.N}, n={self.n}")

    @staticmethod
    def require(params) -> None:
        """Raise TypeError unless ``params`` is a family bundle."""
        if not isinstance(params, FamilyParams):
            raise TypeError(f"unknown parameter bundle {type(params)!r}")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def a_total(self):
        return sum(self.a, ZERO)

    def a_tail(self, i: int):
        return tail_param(self.a, i)

    @property
    def bound_label(self) -> str:
        return f"N={self.N}"

    @property
    def label(self) -> str:
        """Instance label of the reports, e.g. ``krawtchouk n=3 N=4 a=(1/2,1/3,2)``."""
        a = ",".join(rational_str(v) for v in self.a)
        return f"{self.family} n={self.n} {self.bound_label} a=({a})"

    def check_m_max(self, m_max: int) -> None:
        """Raise unless the degree bound m_max is at most N on a bounded lattice."""
        if self.N is not None and m_max > self.N:
            raise ValueError(f"need m_max <= N, got m_max = {m_max} and N = {self.N}")

    def degree_index(self, m: Sequence[int]) -> tuple[int, ...]:
        """m as a tuple of n non-negative ints, with |m| <= N on a bounded lattice."""
        m = tuple(int(d) for d in m)
        if len(m) != self.n:
            raise ValueError(f"degree index needs {self.n} entries, got {len(m)}")
        if any(d < 0 for d in m):
            raise ValueError("degrees must be non-negative")
        if self.N is not None and sum(m) > self.N:
            raise ValueError(f"|m| = {sum(m)} exceeds N = {self.N}")
        return m

    def check_point(self, x: Sequence[int]) -> tuple[int, ...]:
        """x as a tuple of n ints; a non-integral coordinate raises ValueError."""
        if len(x) != self.n:
            raise ValueError(f"point needs {self.n} coordinates, got {len(x)}")
        return tuple(map(as_integer, x))

    def lattice_point(self, x: Sequence[int]) -> tuple[int, ...]:
        """x as a point of the family's lattice: n non-negative ints, |x| <= N if bounded."""
        x = self.check_point(x)
        if any(c < 0 for c in x):
            raise ValueError(f"coordinates must be non-negative, got {x}")
        if self.N is not None and sum(x) > self.N:
            raise ValueError(f"|x| = {sum(x)} exceeds N = {self.N}")
        return x

    def hahn_limit(self, t):
        """(a, b, N) of the Hahn bundle whose t -> infinity limit this is."""
        raise ValueError("limit checks apply to krawtchouk and meixner")


def family_lattice(params, xmax: int | None = None) -> Lattice:
    """The canonical lattice for a parameter bundle.

    Bounded families get their exact simplex |x| <= N.  Meixner needs a
    caller-supplied truncation bound ``xmax``.
    """
    if params.N is not None:
        return Lattice(params.n, params.N)
    if xmax is None:
        raise ValueError("Meixner lattice needs an explicit xmax")
    return Lattice(params.n, xmax, truncated=True)
