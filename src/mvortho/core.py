"""Combinatorial primitives, lattices, and parameter bundles.

All quantities are exact: coordinates and degrees are Python ints,
scalars are backend rationals (see :mod:`mvortho._backend`).  Everything
here is a pure function of its inputs; values are immutable after
construction and safe to share across threads.

The ten value classes of the package (lattices, tables, parameter
bundles, operator specs and stencils, reports) derive from :class:`Value`:
equal exactly when their classes and their constructor fields
(``_fields``) are, hashed to match, and immutable after ``__init__``;
views computed on first read (``functools.cached_property``) are kept
in the instance ``__dict__``.  Each writes its own ``__init__`` because
start-up is measured: generating these methods with the standard
library's class decorator, whose import loads ``inspect``, took about
half of the command line's set-up time.

Kept per process, in bounded caches, each a pure function of its key:
one :class:`Lattice` per shape (:func:`shared_lattice`), the coefficient
rows of :mod:`mvortho.polynomials`, the Newton plans of :mod:`mvortho.linalg`,
the JSON text of each lattice's points (:func:`mvortho.serialize.points_json`),
the stencils of :mod:`mvortho.operators`, keyed by the scaled rate form
they are written from, and the command-line parser and parsed bundles.
Weights, slot factors and tables hold family data: each context or call
builds its own, through family methods and row builders looked up at each
build, so patched weights or rows reach every fresh context; only the
command line's ``eval`` keeps one factor dict, for its latest bundle.
The command line also freezes the start-up heap on its first call
(``gc.freeze()``, see :mod:`mvortho.cli`): what the process built before
that call stays out of the collector's scans; nothing in this package
below the command line touches the collector.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from operator import floordiv
from types import MappingProxyType

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


class Value:
    """Base of the value classes: equality by class and ``_fields``, a
    matching hash, the repr ``Name(field=value, ...)``, and no assignment
    after ``__init__``."""

    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other is self:  # the shared lattices, compared on every kernel call
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Lattice(Value):
    """Enumerated finite lattice {x in N_0^n : |x| <= bound}, its points
    sorted by |x|, then lexicographically: the canonical indexing of every
    table and matrix.  For the bounded families the bound is N and the
    lattice is the exact domain; for Meixner (domain N_0^n) a lattice with
    ``truncated=True`` is a finite working box.  Equality is by shape; the
    points, the read-only ``index`` and the views are immutable and shared.
    """

    _fields = ("n", "bound", "truncated")

    def __init__(self, n: int, bound: int, truncated: bool = False):
        if n < 1 or bound < 0:
            raise ValueError("a lattice needs n >= 1 and bound >= 0")
        pts = [()]
        for _ in range(n):
            pts = [x + (c,) for x in pts for c in range(bound + 1 - sum(x))]
        pts = tuple(sorted(pts, key=sum))  # a stable sort keeps the lex order within |x|
        vars(self).update(n=n, bound=bound, truncated=truncated, points=pts,
                          index=MappingProxyType({p: i for i, p in enumerate(pts)}))

    @property
    def size(self) -> int:
        return len(self.points)

    @cached_property
    def steps(self) -> tuple:
        """(up, down): up[j][i] and down[j][i] index x + e_j and x - e_j for
        the i-th point x, None off the lattice; the stencils read them."""
        return tuple(tuple(tuple(self.index.get(x[:j] + (x[j] + d,) + x[j + 1:])
                                 for x in self.points) for j in range(self.n))
                     for d in (1, -1))

    @cached_property
    def sizes(self) -> tuple:
        """|x| of each point."""
        return tuple(map(sum, self.points))

    @cached_property
    def pair_coords(self) -> tuple:
        """[j - 1][i]: (x_j, x_{>j}) of the i-th point x, read by pair slot j = 1..n-1."""
        return tuple(tuple((x[j - 1], sum(x[j:])) for x in self.points) for j in range(1, self.n))

    @cached_property
    def slot_args(self) -> tuple:
        """[j]: :func:`distinct_positions` of |x| (j = 0) or of (x_j, x_{>j})
        (j = 1..n-1) over the points, where the slots of the eigenpolynomial
        tables are read."""
        return tuple(map(distinct_positions, (self.sizes, *self.pair_coords)))


def distinct_positions(args) -> tuple:
    """(the distinct values of ``args`` as a dict to their order of first
    appearance, the position of each value of ``args`` among them)."""
    at: dict = {}
    return at, [at.setdefault(arg, len(at)) for arg in args]


@lru_cache(maxsize=64)
def shared_lattice(n: int, bound: int, truncated: bool) -> Lattice:
    """The process's one lattice of this shape; positional arguments keep one key per shape."""
    return Lattice(n, bound, truncated)


def enumerate_lattice(n: int, N: int) -> tuple[tuple[int, ...], ...]:
    """All x in N_0^n with |x| <= N in graded-lex order: the shared lattice's points."""
    return shared_lattice(n, N, False).points


def enumerate_degrees(n: int, max_total: int) -> tuple[tuple[int, ...], ...]:
    """Degree multi-indices with |m| <= max_total, same graded-lex order."""
    return enumerate_lattice(n, max_total)


class LatticeFunction(Value):
    """Total map from an enumerated lattice to rationals, stored as its
    integer form: the values in the lattice's canonical order are
    nums[i] / den.

    The pair is reduced by gcd(den, *nums) on construction, so den is the
    lcm of the reduced denominators of the values and the form is
    canonical: two tables are equal exactly when their lattices and
    values are.  The integer kernels read the pair (:meth:`integer_form`);
    the rationals are formed on the first read of :attr:`values`.
    """

    _fields = ("lattice", "nums", "den")

    def __init__(self, lattice: Lattice, nums, den: int):
        g = math.gcd(den, *nums)
        vars(self).update(lattice=lattice, nums=tuple(map(floordiv, nums, repeat(g))),
                          den=den // g)

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


class FamilyParams(Value):
    """What the three families share: positive rationals a_1..a_n, n >= 2.

    The subclasses in :mod:`mvortho.families` add their own parameters and
    carry their family's formulas as methods.  ``N`` is the lattice bound,
    None on the unbounded Meixner lattice.  Each declares its rates as the
    seven rationals ``rate_form = (u0, u1, v1, d0, d1, e1, e)`` of
    B_j = (u0 + u1 |x|)(v1 x_j + a_j), D_j = x_j (d0 + d1 |x|) and
    c_jk = x_j (e1 x_k + e a_k), which only :mod:`mvortho.operators` reads,
    for its integer stencils, the integer rates of the rate identities and
    the eigenvalues (:func:`mvortho.operators.eigenvalue`): a family
    declares no eigenvalue.
    """

    _fields = ("a",)

    # Only the Hahn family has its single-variable shift identities and the
    # Rodrigues construction of its pair polynomials checked.
    hahn_checks = False

    def __init__(self, a):
        a = tuple(positive_rational(v, "a_i") for v in a)
        vars(self).update(a=a)
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

    @cached_property
    def a_total(self):
        """|a|, summed once; equality and the hash read ``_fields`` only."""
        return sum(self.a, ZERO)

    def a_tail(self, i: int):
        """a_{>i} = a_{i+1} + ... + a_n for 1 <= i <= n-1 (1-based i)."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"tail index i = {i} outside [1, {self.n - 1}]")
        return sum(self.a[i:], ZERO)

    @property
    def bound_label(self) -> str:
        return f"N={self.N}"

    @cached_property
    def label(self) -> str:
        """Instance label of the reports, e.g. ``krawtchouk n=3 N=4 a=(1/2,1/3,2)``,
        formatted once per bundle as ``a_total`` is summed once."""
        a = ",".join(rational_str(v) for v in self.a)
        return f"{self.family} n={self.n} {self.bound_label} a=({a})"

    def check_m_max(self, m_max: int) -> None:
        """Raise unless the degree bound m_max is at most N on a bounded lattice."""
        if self.N is not None and m_max > self.N:
            raise ValueError(f"need m_max <= N, got m_max = {m_max} and N = {self.N}")

    def degree_index(self, m: Sequence[int]) -> tuple[int, ...]:
        """m as a tuple of n non-negative ints, with |m| <= N on a bounded
        lattice; a non-integral entry raises ValueError."""
        for d in m:
            if d != int(d):
                raise ValueError(f"degree {d} is not an integer")
        m = tuple(map(int, m))
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
        return shared_lattice(params.n, params.N, False)
    if xmax is None:
        raise ValueError("Meixner lattice needs an explicit xmax")
    return shared_lattice(params.n, xmax, True)
