"""Exact evaluation of the polynomial families from cached coefficient rows.

Single-variable Hahn / Krawtchouk / Meixner polynomials are terminating
hypergeometric sums.  The multivariate eigenpolynomials are products of
two-variable "pair" polynomials in (x_i, x_{>i}) -- where x_{>i} is the
tail sum x_{i+1} + ... + x_n -- chained with degree-dependent argument
shifts, times a single-variable polynomial in |x|.

Each polynomial is a sum over k of an argument-free coefficient c_k
times rising factorials of its arguments.  The coefficients of one
(degree, parameters) form a *row*, built once in O(m) in Python ints
from the term ratios (Koekoek, Lesky & Swarttouw 2010, sections 9.5,
9.10, 9.11) and kept as ints over one denominator in a bounded LRU
cache keyed by reduced (numerator, denominator) int pairs, not Fractions.
The term-by-term closed forms stay in ``tests/test_polynomials.py`` as
the oracle; every value equals theirs exactly.

Every value is read at integer points, as an integer sum over the row's
denominator.  Two kernels compute such sums, with no rational per
point: :func:`_series_grid` for a single-variable series at a list of
integers x, and :func:`_pair_sums` for a pair polynomial at a list of
integer points (u, v), any signs.  An identity check reads a pair
polynomial as a table on a shared simplex of :mod:`mvortho.core` and its
neighbours through :attr:`Lattice.steps`, as the stencils do;
:func:`pair_backward_table` runs its chain of backward shifts in ints on
the same layout.

The eigenpolynomial tables are built from *slots*: pair factor j of P_m
with its degree shift, read at (x_j, x_{>j} - shift), and the radial
factor, read at |x| - (|m| - m_0).  The families compute a slot at a
list of arguments through the same kernels (:func:`hahn_pair_sums`,
:func:`km_pair_sums` and the single-variable grids).  The tables are
nested: :func:`eigenpoly_tables` builds each P_m as its first slot of
nonzero degree times the table of P_m with that degree set to 0 (see
there).  Rows are looked up through this module at every call, so
a patched row reaches the checks and the tables alike.

The pointwise evaluators (:func:`hahn`, :func:`krawtchouk`,
:func:`meixner`, :func:`hahn_pair`, :func:`km_pair`) are one-point calls
of the same kernels, and form one rational per value; :func:`eigenpoly`
is the product of all n slots at one point, degree-0 slots included,
the oracle of the nested tables.  They take integer points only: a
non-integral point raises ValueError.

Degree multi-indices are tuples m = (m_0, m_1, ..., m_{n-1}); m_0 is the
degree of the radial (|x|-dependent) factor and m_i the degree of the
i-th pair factor.  Empty shift sums are zero, so the top pair factor
(i = n-1) carries no shift.

All evaluation is exact rational arithmetic; no rounding ever occurs.  The
module reads nothing above :mod:`mvortho.core`: an eigenvalue on P_m is a
fact of the operators (:func:`mvortho.operators.eigenvalue`).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from functools import lru_cache
from itertools import chain

from ._backend import R, ONE, as_integer
from .core import FamilyParams, Lattice, LatticeFunction, shared_lattice

# Rows kept per cached builder; a row is one (degree, parameters).
ROW_CACHE_SIZE = 4096


def _rising_nums(x: int, m: int) -> list:
    """(-x)_i, i = 0..m, for the integer x."""
    out = [1]
    for j in range(m):
        out.append(out[-1] * (j - x))
    return out


# The reduced int pair (numerator, denominator) of an int or a Fraction.
_ints = operator.attrgetter("numerator", "denominator")


def _key(p: int, q: int) -> tuple:
    """The reduced int pair of p/q, with a positive denominator."""
    g = math.gcd(p, q)
    return (p // g, q // g) if q > 0 else (-p // g, -q // g)


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _series_row(m: int, upper: tuple, lower: tuple, z: tuple) -> tuple:
    """Row of Sum_k (-m)_k prod (upper)_k (-x)_k / (prod (lower)_k k!) z^k,
    each parameter and z a reduced int pair (p, q) of the rational p/q.

    Returns (numerators of c_k, their denominator, pole).  The row stops
    at the first vanishing upper factor: the series terminates there for
    every x.  It also stops at the first vanishing lower factor, at index
    ``pole``: the terms past it exist only for the x whose own factor
    (-x)_k terminates the series first.  Each term is reduced by one gcd.
    """
    if m < 0:
        raise ValueError("degree m must be >= 0")
    zp = z[0] * math.prod(q for _, q in lower)
    zq = z[1] * math.prod(q for _, q in upper)
    terms, pole = [(1, 1)], None
    for j in range(m):
        num = math.prod((p + j * q for p, q in upper), start=j - m)
        if num == 0:
            break
        den = math.prod((p + j * q for p, q in lower), start=j + 1)
        if den == 0:
            pole = j
            break
        num, den = terms[-1][0] * num * zp, terms[-1][1] * den * zq
        g = math.gcd(num, den)
        terms.append((num // g, den // g))
    den = math.lcm(*(d for _, d in terms))  # a term's sign may sit in d: den // d keeps it
    return tuple(n * (den // d) for n, d in terms), den, pole


def _pole_error(pole: int) -> ZeroDivisionError:
    return ZeroDivisionError(f"lower-parameter Pochhammer vanished at k = {pole + 1} "
                             "before the series terminated")


def _hahn_row(m: int, a, b, N) -> tuple:
    (pa, qa), (pb, qb), (pN, qN) = _ints(a), _ints(b), _ints(N)
    upper = _key((m - 1) * qa * qb + pa * qb + pb * qa, qa * qb)
    return _series_row(m, (upper,), ((pa, qa), (-pN, qN)), (1, 1))


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
    return _one(hahn_grid(m, R(a), R(b), R(N), [as_integer(x)]))


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
    return [sum(map(operator.mul, nums, _rising_nums(x, top))) for x in xs], den


def hahn_grid(m: int, a, b, N, xs) -> tuple[list, int]:
    """Numerators of ``hahn(m, x, a, b, N)`` at the integers x of ``xs``, in
    that order, over one denominator (see :func:`_series_grid`)."""
    return _series_grid(_hahn_row(m, a, b, N), xs)


def _krawtchouk_row(m: int, p, N) -> tuple:
    if p == 0:
        raise ValueError("p must be nonzero")
    return _series_row(m, (), ((-N.numerator, N.denominator),), _key(p.denominator, p.numerator))


def krawtchouk(m: int, x, p, N):
    """Single-variable Krawtchouk polynomial: 2F1(-m, -x; -N | 1/p), x an integer."""
    return _one(krawtchouk_grid(m, R(p), R(N), [as_integer(x)]))


def krawtchouk_grid(m: int, p, N, xs) -> tuple[list, int]:
    """Numerators of ``krawtchouk(m, x, p, N)`` at the integers x of ``xs``,
    over one denominator."""
    return _series_grid(_krawtchouk_row(m, p, N), xs)


def _meixner_row(m: int, c, beta) -> tuple:
    if c == 0:
        raise ValueError("c must be nonzero")
    return _series_row(m, (), (_ints(beta),), _key(c.numerator - c.denominator, c.numerator))


def meixner(m: int, x, c, beta):
    """Single-variable Meixner polynomial: 2F1(-m, -x; beta | 1 - 1/c), x an integer."""
    return _one(meixner_grid(m, R(c), R(beta), [as_integer(x)]))


def meixner_grid(m: int, c, beta, xs) -> tuple[list, int]:
    """Numerators of ``meixner(m, x, c, beta)`` at the integers x of ``xs``,
    over one denominator."""
    return _series_grid(_meixner_row(m, c, beta), xs)


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _hahn_pair_row(m: int, alpha: tuple, gamma: tuple) -> tuple:
    """Numerators of c_k = (-1)^k C(m,k) (gamma+k)_{m-k} (alpha+m-k)_k,
    k = 0..m, and their denominator, for alpha = pa/qa and gamma = pg/qg
    as reduced int pairs: the integers c_k (qa qg)^m, reduced by one gcd."""
    if m < 0:
        raise ValueError("degree m must be >= 0")
    (pa, qa), (pg, qg) = alpha, gamma
    tails = [1]  # qa^(m-k) (pg + k qg) ... (pg + (m-1) qg), from k = m down to 0
    for k in range(m - 1, -1, -1):
        tails.append(tails[-1] * (pg + k * qg) * qa)
    row, heads = [], 1  # heads = qg^k (pa + (m-1) qa) ... (pa + (m-k) qa)
    for k in range(m + 1):
        if k:
            heads *= (pa + (m - k) * qa) * qg
        c = math.comb(m, k) * tails[m - k] * heads
        row.append(-c if k % 2 else c)
    den = (qa * qg) ** m
    g = math.gcd(den, *row)
    return tuple(c // g for c in row), den // g


def hahn_pair(m: int, u, v, alpha, gamma):
    """Two-variable Hahn-side pair polynomial of degree m at the integers (u, v).

    Sum_{k=0..m} (-1)^k C(m,k) (gamma+k)_{m-k} (alpha+m-k)_k (-u)_{m-k} (-v)_k.

    Eigenfunction of the exchange operator restricted to the sector
    spanned by (u, v) = (x_i, x_{>i}); degree one gives alpha*v - gamma*u.
    """
    return _one(hahn_pair_sums(m, R(alpha), R(gamma), [(as_integer(u), as_integer(v))]))


def hahn_pair_sums(m: int, alpha, gamma, points) -> tuple[list, int]:
    """Numerators of ``hahn_pair(m, u, v, alpha, gamma)`` at the integer
    points (u, v) of ``points``, in that order, over one denominator."""
    row, den = _hahn_pair_row(m, _ints(alpha), _ints(gamma))
    return _pair_sums(row, m, points, True), den


def _pair_sums(row: tuple, m: int, points, hahn_side: bool) -> list:
    """Sum_k row[k] (-u)_{m-k} (-v)_k (hahn_side) or Sum_k row[k] (-u)_k (-v)_{m-k}
    at each integer point (u, v) of ``points``, in that order.

    Any integers are allowed: the eigenpolynomial tables read v down to
    minus the degree shift of their pair factor.
    """
    rising = {t: _rising_nums(t, m) for t in set(chain.from_iterable(points))}
    flipped = {t: r[::-1] for t, r in rising.items()}
    us, vs = (flipped, rising) if hahn_side else (rising, flipped)
    weighted = {u: list(map(operator.mul, row, us[u])) for u in {u for u, _ in points}}
    return [sum(map(operator.mul, weighted[u], vs[v])) for u, v in points]


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _km_pair_row(m: int, ratio: tuple) -> tuple:
    """Numerators of c_k = (-1)^k C(m,k) ratio^k, k = 0..m, and their
    denominator, for ratio = p/q as a reduced int pair: C(m,k) (-p)^k q^(m-k)
    over q^m, reduced as c_0 = 1 and p, q are coprime."""
    if m < 0:
        raise ValueError("degree m must be >= 0")
    p, q = ratio
    return tuple(math.comb(m, k) * (-p) ** k * q ** (m - k) for k in range(m + 1)), q**m


def _km_row(m: int, alpha, gamma) -> tuple:
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    return _km_pair_row(m, _key(gamma.numerator * alpha.denominator,
                                gamma.denominator * alpha.numerator))


def km_pair(m: int, u, v, alpha, gamma):
    """Pair polynomial shared by the Krawtchouk and Meixner systems, at the
    integers (u, v).

    Sum_{k=0..m} (-1)^k C(m,k) (gamma/alpha)^k (-u)_k (-v)_{m-k}.
    """
    return _one(km_pair_sums(m, R(alpha), R(gamma), [(as_integer(u), as_integer(v))]))


def km_pair_sums(m: int, alpha, gamma, points) -> tuple[list, int]:
    """Numerators of ``km_pair(m, u, v, alpha, gamma)`` at the integer points
    (u, v) of ``points``, in that order, over one denominator."""
    row, den = _km_row(m, alpha, gamma)
    return _pair_sums(row, m, points, False), den


def eigenpoly(m: Sequence[int], x: Sequence[int], params):
    """The eigenpolynomial P_m(x) at one integer point: the product of all n
    of its slots at x (see :func:`eigenpoly_tables`), the degree-0 ones
    included, and the slow oracle of the nested tables."""
    FamilyParams.require(params)
    m = params.degree_index(m)
    x = params.check_point(x)
    slots = [params.radial_slot(m[0], sum(m[1:]), [sum(x)])] + [
        params.pair_slot(j, m[j], sum(m[j + 1:]), [(x[j - 1], sum(x[j:]))])
        for j in range(1, params.n)]
    return math.prod(map(_one, slots), start=ONE)


def eigenpoly_tables(degrees, params, lattice: Lattice, factors: dict | None = None
                     ) -> list[LatticeFunction]:
    """Value tables of P_m over an enumerated lattice, one per m in ``degrees``.

    P_m(x) is a product of *slots*, one factor of P_m each as a function of
    the point: pair slot (j, m_j, shift), with shift = sum_{k>j} m_k, read
    at (x_j, x_{>j}), and the radial slot (m_0, |m| - m_0) read at |x|.  The
    family computes a slot at a list of integer arguments (``pair_slot``,
    ``radial_slot``): one integer sum per argument against the slot's
    cached coefficient row, over that row's denominator, with no rational
    per value.  ``factors`` maps each slot to (denominator, {argument:
    numerator}); a caller that passes the same dict to several calls, on
    any lattices of the same bundle, evaluates each (slot, argument) once
    in all.  The term-by-term oracle in ``tests/test_polynomials.py`` is
    the reference; every value equals it exactly.

    The tables are nested, as the minor operators act on fewer and fewer
    variables.  Let p be the first index with m_p != 0 and hat be m with
    m_p set to 0, so hat has m_0 = 0 and |hat| < |m|.  The slots of m and
    hat after p are the same, and a slot of degree 0 is exactly 1, so P_m
    is slot p of m times P_hat, point by point; P_(0, ..., 0, m_{n-1}) is
    slot n-1 times P_0 = 1.  So each table is one product of integers,
    over the product of the two denominators, which the table reduces by
    the gcd of all of them (:class:`LatticeFunction`).  That is its integer
    form (:meth:`LatticeFunction.integer_form`): the values over their lcm
    denominator, which the integer kernels read.  The table forms its
    rationals only when its ``values`` are read.  Every table with m_0 = 0
    a call builds keeps its integer form in ``factors[lattice]``, keyed by
    m, so a later call with the same dict reads its hats there; a hat
    neither held nor requested is built the same way.
    """
    FamilyParams.require(params)
    if lattice.n != params.n:
        raise ValueError(f"lattice has {lattice.n} coordinates, params have {params.n}")
    degrees = [params.degree_index(m) for m in degrees]
    factors = {} if factors is None else factors
    held = factors.setdefault(lattice, {})
    return [LatticeFunction(lattice, *held[m]) if m in held
            else _nested_table(m, params, lattice, factors) for m in degrees]


def _nested_table(m: tuple, params, lattice: Lattice, factors: dict) -> LatticeFunction:
    """P_m as slot p of m times P_hat, held or built first (see
    :func:`eigenpoly_tables`); kept in ``factors[lattice]`` if m_0 = 0."""
    held = factors[lattice]
    if not any(m):
        table = LatticeFunction(lattice, [1] * lattice.size, 1)
    else:
        p = next(k for k, mk in enumerate(m) if mk)
        key = (m[p], sum(m) - m[p]) if p == 0 else (p, m[p], sum(m) - m[p])
        method = params.pair_slot if p else params.radial_slot
        nums, den = _slot_values(method, key, lattice.slot_args[p], factors)
        hat = (*m[:p], 0, *m[p + 1:])
        hnums, hden = (held[hat] if hat in held
                       else _nested_table(hat, params, lattice, factors).integer_form())
        table = LatticeFunction(lattice, list(map(operator.mul, nums, hnums)), den * hden)
    if not m[0]:
        held[m] = table.integer_form()
    return table


def _slot_values(method, key: tuple, args: tuple, factors: dict) -> tuple:
    """Numerators of the slot ``key`` at every point, over its denominator,
    with ``args`` the points' arguments as :attr:`Lattice.slot_args` gives
    them: ``method`` evaluates the slot at the distinct arguments missing
    from ``factors``, and the values are spread to the points by position."""
    distinct, positions = args
    den, known = factors.get(key, (None, {}))
    missing = [arg for arg in distinct if arg not in known]
    if missing:
        nums, den = method(*key, missing)
        known.update(zip(missing, nums))
        factors[key] = den, known
    values = [known[arg] for arg in distinct]
    return list(map(values.__getitem__, positions)), den


def eigenpoly_table(m: Sequence[int], params, lattice: Lattice) -> LatticeFunction:
    """Value table of P_m over an enumerated lattice."""
    return eigenpoly_tables([m], params, lattice)[0]


def pair_backward_table(m: int, alpha, gamma, box: int) -> LatticeFunction:
    """Degree-m pair polynomial table built by iterated backward shifts.

    Starts from the constant 1 at parameters (alpha+m, gamma+m) and
    applies m times the map

        P |-> v (u + a') P(u, v-1; a'+1, g'+1) - u (v + g') P(u-1, v; a'+1, g'+1)

    with the parameters stepping down to (alpha, gamma).  The result
    must equal :func:`hahn_pair` exactly, with the same normalization.
    The chain runs on the points of ``shared_lattice(2, box)`` in their
    order, reading (u-1, v) and (u, v-1) through ``lattice.steps[1]``; a
    read off the lattice never occurs, as the coefficient of each shifted
    value vanishes at u = 0 resp. v = 0.

    The chain runs in ints: for alpha = pa/qa and gamma = pg/qg, a level's
    a' = (pa + (m - level) qa)/qa and g' = (pg + (m - level) qg)/qg, so each
    step multiplies the common denominator by qa qg, and the table is
    reduced once at the end.
    """
    (pa, qa), (pg, qg) = _ints(R(alpha)), _ints(R(gamma))
    lattice = shared_lattice(2, box, False)
    down_u, down_v = lattice.steps[1]
    P, den = [1] * lattice.size, 1
    for level in range(1, m + 1):
        pa_level, pg_level = pa + (m - level) * qa, pg + (m - level) * qg
        P = [(v and v * (u * qa + pa_level) * qg * P[down_v[i]])
             - (u and u * (v * qg + pg_level) * qa * P[down_u[i]])
             for i, (u, v) in enumerate(lattice.points)]
        den *= qa * qg
    return LatticeFunction(lattice, P, den)
