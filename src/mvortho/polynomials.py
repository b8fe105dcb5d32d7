"""Exact evaluation of the polynomial families from cached coefficient rows.

Single-variable Hahn / Krawtchouk / Meixner polynomials are terminating
hypergeometric sums.  The multivariate eigenpolynomials are products of
two-variable "pair" polynomials in (x_i, x_{>i}) -- where x_{>i} is the
tail sum x_{i+1} + ... + x_n -- chained with degree-dependent argument
shifts, times a single-variable polynomial in |x|.

Each polynomial is a sum over k of an argument-free coefficient c_k
times rising factorials of its arguments.  The coefficients of one
(degree, parameters) form a *row*, built once in O(m) from the term
ratios (Koekoek, Lesky & Swarttouw 2010, sections 9.5, 9.10, 9.11) and
kept as Python ints over one lcm denominator in a bounded LRU cache.
The term-by-term closed forms stay in ``tests/test_polynomials.py`` as
the oracle; every value equals theirs exactly.

Every value is read at integer points, as an integer sum over the row's
denominator.  Two kernels compute such sums, with no rational per
point: :func:`_series_grid` for a single-variable series at a list of
integers x, and :func:`_pair_sums` for a pair polynomial at a list of
integer points (u, v), any signs.  A *grid* is one polynomial at every
integer point an identity check reads (:func:`hahn_grid`,
:func:`hahn_pair_grid`, :func:`km_pair_grid`).  The pair grids cover the
points u, v >= -1 with u + v <= box + 1, the box of an identity and the
shifts it reads; the entries of -1 are stored last, so ``grid[u][v]``
reads u = -1 or v = -1 at index -1.  :func:`pair_backward_table` runs
its chain of backward shifts in ints.

The eigenpolynomial tables are built from *slots*: pair factor j of P_m
with its degree shift, read at (x_j, x_{>j} - shift), and the radial
factor, read at |x| - (|m| - m_0).  The families compute a slot at a
list of arguments through the same kernels (:func:`hahn_pair_sums`,
:func:`km_pair_sums` and the single-variable grids), and
:func:`eigenpoly_tables` multiplies the slots' integers point by point
into the integer form that a table stores (see there).  Rows are looked
up through this module at every call, so a patched row reaches the
grids and the tables alike.

The pointwise evaluators (:func:`hahn`, :func:`krawtchouk`,
:func:`meixner`, :func:`hahn_pair`, :func:`km_pair`, :func:`eigenpoly`)
are one-point calls of the same kernels and of the same slot product,
and form one rational per value.  They take integer points only: a
non-integral point raises ValueError.

Degree multi-indices are tuples m = (m_0, m_1, ..., m_{n-1}); m_0 is the
degree of the radial (|x|-dependent) factor and m_i the degree of the
i-th pair factor.  Empty shift sums are zero, so the top pair factor
(i = n-1) carries no shift.

All evaluation is exact rational arithmetic; no rounding ever occurs.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import chain
from typing import Sequence

from ._backend import R, ONE, as_integer, integer_scaled
from .core import FamilyParams, Lattice, LatticeFunction

# Rows kept per cached builder; a row is one (degree, parameters).
ROW_CACHE_SIZE = 4096


def _rising_nums(x, m: int) -> tuple[list, int]:
    """Numerators of (-x)_i, i = 0..m, over their common denominator q^m (x = p/q)."""
    p, q = x.numerator, x.denominator
    out = [1]
    for j in range(m):
        out.append(out[-1] * (j * q - p))
    return [c * q ** (m - i) for i, c in enumerate(out)], q**m


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _series_row(m: int, upper: tuple, lower: tuple, z) -> tuple:
    """Row of Sum_k (-m)_k prod (upper)_k (-x)_k / (prod (lower)_k k!) z^k.

    Returns (numerators of c_k, their denominator, pole).  The row stops
    at the first vanishing upper factor: the series terminates there for
    every x.  It also stops at the first vanishing lower factor, at index
    ``pole``: the terms past it exist only for the x whose own factor
    (-x)_k terminates the series first.
    """
    if m < 0:
        raise ValueError("degree m must be >= 0")
    row, pole = [ONE], None
    for j in range(m):
        num = math.prod((u + j for u in upper), start=R(j - m))
        if num == 0:
            break
        den = math.prod((l + j for l in lower), start=R(j + 1))
        if den == 0:
            pole = j
            break
        row.append(row[-1] * num * z / den)
    nums, den = integer_scaled(row)
    return tuple(nums), den, pole


def _pole_error(pole: int) -> ZeroDivisionError:
    return ZeroDivisionError(f"lower-parameter Pochhammer vanished at k = {pole + 1} "
                             "before the series terminated")


def _hahn_row(m: int, a, b, N) -> tuple:
    a, b, N = R(a), R(b), R(N)
    return _series_row(m, (m + a + b - 1,), (a, -N), ONE)


def _one(sums: tuple):
    """The value of a one-point grid or pair sum (numerators, den)."""
    (num,), den = sums
    return R(num, den)


def hahn(m: int, x, a, b, N):
    """Single-variable Hahn polynomial of degree m at the integer x.

    Terminating sum Sum_k (-m)_k (m+a+b-1)_k (-x)_k / ((a)_k (-N)_k k!).
    N may be any rational here: the shifted radial factors of the
    multivariate polynomials call this with non-integer or negative
    degree slots, and termination is enforced by the (-m)_k factor.
    """
    return _one(hahn_grid(m, a, b, N, [as_integer(x)]))


def _series_grid(row: tuple, xs) -> tuple[list, int]:
    """Numerators of the series of ``row`` at the integers x of ``xs``, in
    that order, over the row's denominator.

    Raises ZeroDivisionError when some x of ``xs`` is a point where the
    series meets its pole (see :func:`_series_row`) before it terminates.
    """
    nums, den, pole = row
    top = len(nums) - 1
    if pole is not None and any(not 0 <= x <= top for x in xs):
        raise _pole_error(pole)
    # (-x)_k vanishes for k > x >= 0, so the full row is exact at every x
    return [sum(map(operator.mul, nums, _rising_nums(x, top)[0])) for x in xs], den


def hahn_grid(m: int, a, b, N, xs) -> tuple[list, int]:
    """Numerators of ``hahn(m, x, a, b, N)`` at the integers x of ``xs``, in
    that order, over one denominator (see :func:`_series_grid`)."""
    return _series_grid(_hahn_row(m, a, b, N), xs)


def _krawtchouk_row(m: int, p, N) -> tuple:
    p = R(p)
    if p == 0:
        raise ValueError("p must be nonzero")
    return _series_row(m, (), (-R(N),), 1 / p)


def krawtchouk(m: int, x, p, N):
    """Single-variable Krawtchouk polynomial: 2F1(-m, -x; -N | 1/p), x an integer."""
    return _one(krawtchouk_grid(m, p, N, [as_integer(x)]))


def krawtchouk_grid(m: int, p, N, xs) -> tuple[list, int]:
    """Numerators of ``krawtchouk(m, x, p, N)`` at the integers x of ``xs``,
    over one denominator."""
    return _series_grid(_krawtchouk_row(m, p, N), xs)


def _meixner_row(m: int, c, beta) -> tuple:
    c = R(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    return _series_row(m, (), (R(beta),), 1 - 1 / c)


def meixner(m: int, x, c, beta):
    """Single-variable Meixner polynomial: 2F1(-m, -x; beta | 1 - 1/c), x an integer."""
    return _one(meixner_grid(m, c, beta, [as_integer(x)]))


def meixner_grid(m: int, c, beta, xs) -> tuple[list, int]:
    """Numerators of ``meixner(m, x, c, beta)`` at the integers x of ``xs``,
    over one denominator."""
    return _series_grid(_meixner_row(m, c, beta), xs)


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _hahn_pair_row(m: int, alpha, gamma) -> tuple:
    """Numerators of c_k = (-1)^k C(m,k) (gamma+k)_{m-k} (alpha+m-k)_k,
    k = 0..m, and their denominator."""
    if m < 0:
        raise ValueError("degree m must be >= 0")
    tails = [ONE]  # (gamma+k)_{m-k}, from k = m down to 0
    for k in range(m - 1, -1, -1):
        tails.append(tails[-1] * (gamma + k))
    row, heads = [], ONE  # heads = (alpha+m-k)_k
    for k in range(m + 1):
        if k:
            heads *= alpha + m - k
        c = math.comb(m, k) * tails[m - k] * heads
        row.append(-c if k % 2 else c)
    nums, den = integer_scaled(row)
    return tuple(nums), den


def hahn_pair(m: int, u, v, alpha, gamma):
    """Two-variable Hahn-side pair polynomial of degree m at the integers (u, v).

    Sum_{k=0..m} (-1)^k C(m,k) (gamma+k)_{m-k} (alpha+m-k)_k (-u)_{m-k} (-v)_k.

    Eigenfunction of the exchange operator restricted to the sector
    spanned by (u, v) = (x_i, x_{>i}); degree one gives alpha*v - gamma*u.
    """
    return _one(hahn_pair_sums(m, alpha, gamma, [(as_integer(u), as_integer(v))]))


def hahn_pair_grid(m: int, alpha, gamma, box: int) -> tuple[list, int]:
    """``hahn_pair(m, u, v, alpha, gamma)`` on the points u, v >= -1 with
    u + v <= box + 1: (grid, den) with the value grid[u][v] / den."""
    row, den = _hahn_pair_row(m, R(alpha), R(gamma))
    return _pair_grid(row, m, box, True), den


def hahn_pair_sums(m: int, alpha, gamma, points) -> tuple[list, int]:
    """Numerators of ``hahn_pair(m, u, v, alpha, gamma)`` at the integer
    points (u, v) of ``points``, in that order, over one denominator."""
    row, den = _hahn_pair_row(m, R(alpha), R(gamma))
    return _pair_sums(row, m, points, True), den


def _pair_sums(row: tuple, m: int, points, hahn_side: bool) -> list:
    """Sum_k row[k] (-u)_{m-k} (-v)_k (hahn_side) or Sum_k row[k] (-u)_k (-v)_{m-k}
    at each integer point (u, v) of ``points``, in that order.

    Any integers are allowed: the eigenpolynomial tables read v down to
    minus the degree shift of their pair factor.
    """
    rising = {t: _rising_nums(t, m)[0] for t in set(chain.from_iterable(points))}
    flipped = {t: r[::-1] for t, r in rising.items()}
    us, vs = (flipped, rising) if hahn_side else (rising, flipped)
    weighted = {u: list(map(operator.mul, row, us[u])) for u in {u for u, _ in points}}
    return [sum(map(operator.mul, weighted[u], vs[v])) for u, v in points]


def _pair_grid(row: tuple, m: int, box: int, hahn_side: bool) -> list:
    """Rows u = 0..box+1, -1 of the pair sums (see :func:`_pair_sums`), each
    over v = 0..box+1-u, -1."""
    lines = [[(u, v) for v in [*range(box + 2 - u), -1]] for u in [*range(box + 2), -1]]
    sums = iter(_pair_sums(row, m, [p for line in lines for p in line], hahn_side))
    return [[next(sums) for _ in line] for line in lines]


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _km_pair_row(m: int, ratio) -> tuple:
    """Numerators of c_k = (-1)^k C(m,k) ratio^k, k = 0..m, and their denominator."""
    if m < 0:
        raise ValueError("degree m must be >= 0")
    nums, den = integer_scaled([math.comb(m, k) * (-ratio) ** k for k in range(m + 1)])
    return tuple(nums), den


def _km_row(m: int, alpha, gamma) -> tuple:
    alpha = R(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    return _km_pair_row(m, R(gamma) / alpha)


def km_pair(m: int, u, v, alpha, gamma):
    """Pair polynomial shared by the Krawtchouk and Meixner systems, at the
    integers (u, v).

    Sum_{k=0..m} (-1)^k C(m,k) (gamma/alpha)^k (-u)_k (-v)_{m-k}.
    """
    return _one(km_pair_sums(m, alpha, gamma, [(as_integer(u), as_integer(v))]))


def km_pair_grid(m: int, alpha, gamma, box: int) -> tuple[list, int]:
    """``km_pair(m, u, v, alpha, gamma)`` on the points u, v >= -1 with
    u + v <= box + 1: (grid, den) with the value grid[u][v] / den."""
    row, den = _km_row(m, alpha, gamma)
    return _pair_grid(row, m, box, False), den


def km_pair_sums(m: int, alpha, gamma, points) -> tuple[list, int]:
    """Numerators of ``km_pair(m, u, v, alpha, gamma)`` at the integer points
    (u, v) of ``points``, in that order, over one denominator."""
    row, den = _km_row(m, alpha, gamma)
    return _pair_sums(row, m, points, False), den


def eigenpoly(m: Sequence[int], x: Sequence[int], params):
    """The eigenpolynomial P_m(x) at one integer point: the product of its
    slots at x, as :func:`eigenpoly_tables` forms it at every point.  A
    product of the pair factors i..n-1 alone is P_m with m_0..m_{i-1} set
    to 0."""
    FamilyParams.require(params)
    m = params.degree_index(m)
    (nums, den), = _slot_products([m], params, [params.check_point(x)], {})
    return R(nums[0], den)


def eigenpoly_tables(degrees, params, lattice: Lattice, factors: dict | None = None
                     ) -> list[LatticeFunction]:
    """Value tables of P_m over an enumerated lattice, one per m in ``degrees``.

    P_m(x) is built factor by factor.  A *slot* is one factor of P_m as a
    function of the point: pair slot (j, m_j, shift), with shift =
    sum_{k>j} m_k, read at (x_j, x_{>j}), and the radial slot (m_0,
    |m| - m_0) read at |x|.  The family computes a slot at a list of
    integer arguments (``pair_slot``, ``radial_slot``): one integer sum per
    argument against the slot's cached coefficient row, over that row's
    denominator, with no rational per value.  ``factors`` maps each slot to
    (denominator, {argument: numerator}); a caller that passes the same
    dict to several calls, on any lattices of the same bundle, evaluates
    each (slot, argument) once in all.  The term-by-term oracle in
    ``tests/test_polynomials.py`` is the reference; every value equals it
    exactly.

    A table is the product of its slots' integers point by point, over
    the product of their denominators, which the table reduces by the gcd
    of all of them (:class:`LatticeFunction`).  That is its integer form
    (:meth:`LatticeFunction.integer_form`): the values over their lcm
    denominator, which the integer kernels read.  The table forms its
    rationals only when its ``values`` are read.
    """
    FamilyParams.require(params)
    if lattice.n != params.n:
        raise ValueError(f"lattice has {lattice.n} coordinates, params have {params.n}")
    degrees = [params.degree_index(m) for m in degrees]
    products = _slot_products(degrees, params, lattice.points, {} if factors is None else factors)
    return [LatticeFunction(lattice, nums, den) for nums, den in products]


def _slot_products(degrees, params, points, factors: dict) -> list[tuple]:
    """(numerators, den) of P_m at the integer ``points`` for each m of
    ``degrees``: the slot product of :func:`eigenpoly_tables`."""
    # (x_j, x_{>j}) of every point, for the pair slots j = 1..n-1
    coords = [[(x[j - 1], sum(x[j:])) for x in points] for j in range(1, params.n)]
    sizes = [sum(x) for x in points]
    slots: dict = {}

    def slot(method, key: tuple, args: list) -> tuple:
        """Numerators of the slot ``key`` at every point, over its denominator."""
        if key not in slots:
            den, known = factors.get(key, (None, {}))
            missing = [arg for arg in dict.fromkeys(args) if arg not in known]
            if missing:
                nums, den = method(*key, missing)
                known.update(zip(missing, nums))
                factors[key] = den, known
            slots[key] = [known[arg] for arg in args], den
        return slots[key]

    products = []
    for m in degrees:
        nums, den = slot(params.radial_slot, (m[0], sum(m[1:])), sizes)
        for j, args in enumerate(coords, start=1):
            fnums, fden = slot(params.pair_slot, (j, m[j], sum(m[j + 1 :])), args)
            nums = list(map(operator.mul, nums, fnums))
            den *= fden
        products.append((nums, den))
    return products


def eigenpoly_table(m: Sequence[int], params, lattice: Lattice) -> LatticeFunction:
    """Value table of P_m over an enumerated lattice."""
    return eigenpoly_tables([m], params, lattice)[0]


def eigenvalue(params, kind: str, index: int | None, m: Sequence[int]):
    """Exact eigenvalue of an operator on the eigenpolynomial P_m.

    kind 'total' uses the full degree |m|.  kind 'exchange' with sector
    index i uses only the partial degree S_i = m_i + ... + m_{n-1}: the
    radial factor and the pair factors below sector i are invisible to
    an exchange confined to sites >= i.  kind 'single' is total minus
    the full exchange part (the operators commute and share P_m).
    """
    m = params.degree_index(m)

    def exchange_eig(i: int):
        return params.block_eigenvalue(sum(m[i:]), params.a[i - 1] + params.a_tail(i))

    total_eig = params.block_eigenvalue(sum(m), params.total_block)
    if kind == "total":
        return total_eig
    if kind == "single":
        return total_eig - exchange_eig(1)
    if kind == "exchange":
        if index is None or not 1 <= index <= params.n - 1:
            raise ValueError(f"exchange index must be in [1, {params.n - 1}]")
        return exchange_eig(index)
    raise ValueError(f"unknown operator kind {kind!r}")


def pair_backward_table(m: int, alpha, gamma, box: int) -> LatticeFunction:
    """Degree-m pair polynomial table built by iterated backward shifts.

    Starts from the constant 1 at parameters (alpha+m, gamma+m) and
    applies m times the map

        P |-> v (u + a') P(u, v-1; a'+1, g'+1) - u (v + g') P(u-1, v; a'+1, g'+1)

    with the parameters stepping down to (alpha, gamma).  The result
    must equal :func:`hahn_pair` exactly, with the same normalization.
    Boundary reads never occur: the coefficient of each shifted value
    vanishes at u = 0 resp. v = 0.

    The chain runs in ints: a' = pa/qa and g' = pg/qg keep the
    denominators of alpha and gamma, so each step multiplies the common
    denominator by qa qg, and the table is reduced once at the end.
    """
    alpha, gamma = R(alpha), R(gamma)
    qa, qg = alpha.denominator, gamma.denominator
    P = [[1] * (box + 1 - u) for u in range(box + 1)]  # P[u][v], u + v <= box
    den = 1
    for level in range(1, m + 1):
        pa = (alpha + m - level).numerator
        pg = (gamma + m - level).numerator
        P = [[(v * (u * qa + pa) * qg * P[u][v - 1] if v else 0)
              - (u * (v * qg + pg) * qa * P[u - 1][v] if u else 0)
              for v in range(box + 1 - u)] for u in range(box + 1)]
        den *= qa * qg
    lattice = Lattice(2, box)
    return LatticeFunction(lattice, [P[u][v] for u, v in lattice.points], den)
