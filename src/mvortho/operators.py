"""The commuting difference operators and their matrix realizations.

Each family carries one total operator, its single-site part, and a
nested chain of exchange operators:

* single:      sum_j B_j(x) (1 - E_j^+) + D_j(x) (1 - E_j^-)
* exchange(i): sum_{j != k >= i} c_{jk}(x) (1 - E_j^- E_k^+)
* total:       single + exchange(1)

where E_j^+- shifts x_j by one.  The rates B_j, D_j and c_jk are the
family's, read from the seven constants of its rate form
(:attr:`mvortho.core.FamilyParams.rate_form`); B_j and D_j are the birth
and death rates of the j-th population group.  This module is the one
reader of the rate form: the stencils, the integer rates and the
eigenvalues on P_m (:func:`eigenvalue`) all come from it.
On the bounded simplices every coefficient multiplying an out-of-domain
shift vanishes exactly, so no out-of-lattice value is ever read.  On a
truncated Meixner box the up-shift coefficient does not vanish at the
frontier |x| = xmax; the stencil rows there are marked invalid and left
empty rather than silently zeroed, and every kernel skips them.

Each operator is a sparse stencil (:class:`OperatorMatrix`): one row of at
most 2n + n(n-1) + 1 integer numerators per point, over one common
denominator, written in Python ints from the rate form: no rational is
formed per entry.  The process keeps the last ``STENCIL_CACHE_SIZE``
stencils, keyed by the operator, the lattice and the scaled rate form the
rows are written from, so a later call on the same bundle reuses a stencil
and its ``row_bounds``; a patched ``rate_form`` changes the key and never
reads a stencil of the old rates.  Eigen residuals
(:func:`residual_defects`), export, commutators, self-adjointness and the
degree test all read that one representation; products, images and Newton
differences run in Python ints and one rational is formed per result.  The
rate identities read the same integers point by point (:func:`integer_rates`).

The eigen residuals, the commutators and the degree test run on
slot-packed integers (:mod:`mvortho.linalg`), W = ``slot_width(bound)``
bits per slot, S being the largest absolute row sum of the stencils.  An
eigen residual packs its tables column by column; row i of a table num
with eigenvalue p/q is q sum_j H[i][j] num_j - p H.den num_i, and
|sum_j H[i][j] num_j| <= S max|num|, so the bound is the largest over the
tables of (S q + |p| H.den) max|num|.  A commutator packs each stencil
row over the columns once; with E the largest |entry| of the stencils
checked together, every entry of M1 M2 - M2 M1 is at most 2 S E in
absolute value, which is the bound.  The degree test packs the monomials
of degree <= M into one integer per point; an image entry is at most
S top, top = max(1, bound)^M the largest monomial value, and each of the
n K difference passes on {|x| <= K} at most doubles it, so the bound is
S top 2^(n bound).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import combinations, repeat
from operator import and_, mul

from ._backend import R, integer_scaled
from .core import Lattice, Value, enumerate_degrees
from .linalg import newton_differences, pack, pack_columns, slot_width, unpack
from .measures import WeightTable

KINDS = ("total", "single", "exchange")
# Stencils kept per process: the n + 1 operators of one bundle up to n = 7,
# or the families of two small bundles.
STENCIL_CACHE_SIZE = 8


class OperatorSpec(Value):
    """A family operator: kind 'total', 'single', or 'exchange' with index."""

    _fields = ("params", "kind", "index")

    def __init__(self, params, kind: str, index: int | None = None):
        if kind not in KINDS:
            raise ValueError(f"unknown operator kind {kind!r}")
        if kind == "exchange":
            if index is None or not 1 <= index <= params.n - 1:
                raise ValueError(f"exchange index must lie in [1, {params.n - 1}]")
        elif index is not None:
            raise ValueError(f"kind {kind!r} takes no index")
        vars(self).update(params=params, kind=kind, index=index)

    @property
    def label(self) -> str:
        if self.kind == "exchange":
            return f"exchange{self.index}"
        return self.kind


class OperatorMatrix(Value):
    """Sparse matrix realization on the enumerated lattice.

    Row x holds the coefficients of (Hf)(x) as a functional of f:
    ``rows[x]`` maps columns to nonzero integer numerators over the
    common denominator ``den``.  Rows whose stencil leaves a truncated
    box are flagged invalid and left empty.
    """

    _fields = ("op", "lattice", "rows", "den", "valid_rows")

    def __init__(self, op: OperatorSpec, lattice: Lattice, rows: tuple, den: int,
                 valid_rows: tuple):
        vars(self).update(op=op, lattice=lattice, rows=rows, den=den, valid_rows=valid_rows)

    @property
    def size(self) -> int:
        return self.lattice.size

    @cached_property
    def row_bounds(self) -> tuple:
        """(largest absolute row sum S, largest |entry| E), scanned once."""
        return (max((sum(map(abs, row.values())) for row in self.rows), default=0),
                max((abs(v) for row in self.rows for v in row.values()), default=0))


def _scaled_rate_form(params) -> tuple:
    """(u0, u1, v1, d0, d1, e1, e, a_1, ..., a_n) as a tuple of integers over
    their lcm D, and D."""
    nums, D = integer_scaled([*params.rate_form, *params.a])
    return tuple(nums), D


def integer_rates(params) -> tuple:
    """(birth, death, exchange, D): the family's rates as integers at a point.

    The rate constants and a_1..a_n are scaled once to integers over their
    lcm D, as for the stencils, so that ``birth(x)[j]`` = B_j(x) D^2,
    ``death(x)[j]`` = D_j(x) D and ``exchange(x, j, k)`` = c_jk(x) D^2.
    """
    (u0, u1, v1, d0, d1, e1, e, *a), D = _scaled_rate_form(params)

    def birth(x) -> list:
        up = u0 + u1 * sum(x)
        return [up * (v1 * c + ak) for c, ak in zip(x, a)]

    def death(x) -> list:
        down = d0 + d1 * sum(x)
        return [c * down for c in x]

    def exchange(x, j: int, k: int) -> int:
        return x[j] * (e1 * D * x[k] + e * a[k])

    return birth, death, exchange, D


def eigenvalue(params, kind: str, index: int | None, m):
    """Exact eigenvalue of the operator on P_m, read from the family's rate form.

    total: on functions of s = |x| the exchange terms vanish, and
    sum_j B_j = (u0 + u1 s)(v1 s + |a|) and sum_j D_j = s (d0 + d1 s) read
    only s, so total acts there as a birth-death chain in s.  Its image of
    s^d has s^(d+1) coefficient d (d1 - u1 v1), zero as the form keeps the
    degree (d1 = u1 v1, which ``degree-invariance`` checks), and its s^d
    coefficient d (d0 - u0 v1 - u1 |a| - d1 (d - 1)) is the eigenvalue at
    d = |m|.  exchange(i) keeps x_i + ... + x_n and acts on functions of
    t = x_{i+1} + ... + x_n as a birth-death chain in t, one unit moving
    inside the sites i..n; the same computation gives
    S (e1 (S - 1) + e (a_i + ... + a_n)) at the partial degree
    S = S_i = m_i + ... + m_{n-1}, as the radial factor and the pair factors
    below sector i are invisible to it.  single is total minus exchange(1)
    (the operators commute and share P_m).
    """
    OperatorSpec(params, kind, index)
    m = params.degree_index(m)
    u0, u1, v1, d0, d1, e1, e = params.rate_form
    if kind == "exchange":
        S = sum(m[index:])
        return S * (e1 * (S - 1) + e * sum(params.a[index - 1:]))
    d = sum(m)
    total = d * (d0 - u0 * v1 - u1 * params.a_total - d1 * (d - 1))
    return total if kind == "total" else total - eigenvalue(params, "exchange", 1, m)


def operator_matrix(op: OperatorSpec, lattice: Lattice) -> OperatorMatrix:
    """The operator's stencil on the lattice, one sparse row per point.

    The rate constants and a_1..a_n are scaled once to integers over their
    lcm D, so each rate is an integer over D^2; the numerators, in move
    order with each diagonal last, are divided once by g = gcd(D^2, all of
    them), and den = D^2 / g is the lcm of the reduced denominators.  Only
    up moves from |x| = bound leave the lattice: those rows are invalid.
    The stencil is kept per process (see the module docstring) and shared
    by every caller, so no caller may change its rows.
    """
    if lattice.n != op.params.n:
        raise ValueError("lattice dimension does not match the parameters")
    if op.params.N is not None and lattice.bound != op.params.N:
        raise ValueError("lattice bound does not match N")
    return _stencil(op, lattice, _scaled_rate_form(op.params))


@lru_cache(maxsize=STENCIL_CACHE_SIZE)
def _stencil(op: OperatorSpec, lattice: Lattice, form: tuple) -> OperatorMatrix:
    """The row walk of :func:`operator_matrix`, reading the rates from ``form``
    (:func:`_scaled_rate_form`) only, so that the key holds every rate it reads."""
    n, (ups, downs) = lattice.n, lattice.steps
    (u0, u1, v1, d0, d1, e1, e, *a), D = form
    e1, ea = e1 * D, [e * ak for ak in a]
    single = op.kind != "exchange"
    # exchange moves run between the sites lo..n-1; the single part has none
    lo = op.index - 1 if op.kind == "exchange" else 0 if op.kind == "total" else n
    pairs = [(j, k) for j in range(lo, n) for k in range(lo, n) if k != j]
    rows, valid = [], []
    for i, (x, s) in enumerate(zip(lattice.points, lattice.sizes)):
        up, down = u0 + u1 * s, D * (d0 + d1 * s)
        births = [up * (v1 * c + ak) for c, ak in zip(x, a)] if single else ()
        if s == lattice.bound and any(births):
            rows.append({})
            valid.append(False)
            continue
        row, diag = {}, 0
        for j, b in enumerate(births):
            d = x[j] * down
            if b:
                row[ups[j][i]] = -b
            if d:
                row[downs[j][i]] = -d
            diag += b + d
        for j, k in pairs:
            c = x[j] * (e1 * x[k] + ea[k])
            if c:
                row[ups[k][downs[j][i]]] = -c
                diag += c
        if diag:
            row[i] = diag
        rows.append(row)
        valid.append(True)
    g = math.gcd(D * D, *(v for row in rows for v in row.values()))
    if g > 1:
        rows = [{j: v // g for j, v in row.items()} for row in rows]
    return OperatorMatrix(op, lattice, tuple(rows), D * D // g, tuple(valid))


def compared_rows(M1: OperatorMatrix, M2: OperatorMatrix) -> list:
    """The rows :func:`commutator_defects` compares: where M1 M2 and M2 M1
    both equal the untruncated products.  Row x of M1 M2 reads the rows z of
    M2 with M1[x][z] != 0, so it is exact iff they and row x of M1 are."""
    def exact(A, B):
        return A.valid_rows if all(B.valid_rows) else [
            ok and all(B.valid_rows[j] for j in row) for row, ok in zip(A.rows, A.valid_rows)]

    return list(map(and_, exact(M1, M2), exact(M2, M1)))


def commutator_defects(stencils) -> list:
    """Exact max |entry| of M1 M2 - M2 M1, over the rows valid for both
    orders, for each pair of the stencils in ``combinations`` order.

    Each stencil's rows are packed over the columns once, at one width
    for all the pairs (bound 2 S E, see the module docstring).  Row x of
    M1 M2 is then sum_k M1[x][k] P2[k], one big-int multiply-add per
    stored entry, and the row commutes exactly when the two packed
    products are equal; only a row that does not is unpacked, from its
    lowest to its highest nonzero slot, for its exact largest entry.
    """
    if any(H.op.params != stencils[0].op.params or H.lattice != stencils[0].lattice
           for H in stencils):
        raise ValueError("stencils must share one parameter bundle and one lattice")
    S, E = map(max, zip(*(H.row_bounds for H in stencils)))
    W = slot_width(2 * S * E)
    # row k of each stencil as the one integer sum_j H[k][j] 2^(W j)
    packed = [[pack(row, W) for row in H.rows] for H in stencils]
    out = []
    for (M1, P1), (M2, P2) in combinations(zip(stencils, packed), 2):
        worst = 0
        for row1, row2, ok in zip(M1.rows, M2.rows, compared_rows(M1, M2)):
            if not ok:
                continue
            d = (sum(map(mul, row1.values(), map(P2.__getitem__, row1)))
                 - sum(map(mul, row2.values(), map(P1.__getitem__, row2))))
            if d:
                low = ((d & -d).bit_length() - 1) // W
                slots = unpack(d >> (W * low), W, abs(d).bit_length() // W + 1 - low)
                worst = max(worst, *map(abs, slots))
        out.append(R(worst, M1.den * M2.den))
    return out


def residual_defects(H: OperatorMatrix, tables, eigenvalues) -> list:
    """max |(H f)(x) - eig f(x)| over the valid rows of H, for each table f
    and its eigenvalue eig: one rational per table.

    With f = num/den and eig = p/q, row i compares q sum_j H[i][j] num_j
    with p H.den num_i, and the largest difference of a table is its one
    rational, over q H.den den.  The tables are packed column by column
    (:func:`pack_columns`, O(T W log T) per column, bound: see the module
    docstring): column j holds q num_j and the diagonal side p H.den num_i
    of every table, so row i is one big-int multiply-add per stored entry,
    and it passes for every table at once when
    sum_j H[i][j] QA[j] - PB[i] = 0; a q or p shared by every table (one
    shell under total) scales the packed num columns instead, so those
    tables are packed once.  Only a row that does not pass is unpacked, for
    the exact residual of each table.
    """
    if any(table.lattice != H.lattice for table in tables):
        raise ValueError("table and operator live on different lattices")
    if not tables:
        return []
    forms = [table.integer_form() for table in tables]
    eigs = list(map(R, eigenvalues))
    qs = [e.denominator for e in eigs]
    ps = [e.numerator * H.den for e in eigs]
    S = H.row_bounds[0]
    W = slot_width(max((max(map(abs, nums), default=0) * (S * q + abs(p))
                        for (nums, _), q, p in zip(forms, qs, ps)), default=0))
    packed = None

    def columns(scales) -> list:
        """Column j of the tables, slot t scaled by scales[t], as one integer;
        the unscaled columns are packed once, the first time a side has one scale."""
        nonlocal packed
        if len(set(scales)) > 1:
            return pack_columns([map(mul, nums, repeat(c))
                                 for (nums, _), c in zip(forms, scales)], W)
        if packed is None:
            packed = pack_columns([nums for nums, _ in forms], W)
        return list(map(mul, packed, repeat(scales[0])))

    QA, PB = columns(qs), columns(ps)
    worst = [0] * len(forms)
    for i in [i for i, ok in enumerate(H.valid_rows) if ok]:
        row = H.rows[i]
        d = sum(map(mul, row.values(), map(QA.__getitem__, row))) - PB[i]
        if d:
            low = ((d & -d).bit_length() - 1) // W
            slots = unpack(d >> (W * low), W, abs(d).bit_length() // W + 1 - low)
            for t, v in enumerate(slots, low):
                if abs(v) > worst[t]:
                    worst[t] = abs(v)
    return [R(w, q * H.den * den) for w, q, (_, den) in zip(worst, qs, forms)]


def adjointness_defect(M: OperatorMatrix, w: WeightTable):
    """Exact self-adjointness defect of the stencil under the weight.

    By linearity the defect over any spanning set of function pairs
    equals max_{x,y} |W(x) M[x][y] - W(y) M[y][x]| (delta functions span
    everything, and monomials of degree <= N span the same space).  The
    term vanishes unless M[x][y] or M[y][x] is nonzero, so only stored
    entries are visited, each with its transpose.  On a truncated box
    the max runs over pairs of exact rows.
    """
    if M.lattice != w.lattice:
        raise ValueError("stencil and weight live on different lattices")
    wn, den = w.integer_form()
    worst = 0
    for i, row in enumerate(M.rows):
        for j, v in row.items():
            if M.valid_rows[j]:
                worst = max(worst, abs(wn[i] * v - wn[j] * M.rows[j].get(i, 0)))
    return R(worst, den * M.den)


def image_degree(stencils, M: int) -> int:
    """Largest total degree of the images of the monomials of degree <= M
    under the stencils, which share one lattice.

    Each image is expanded in the Newton basis prod_i C(x_i, alpha_i) on
    the rows with a defined image, which form the simplex |x| <= K (K is
    the bound, or bound - 1 when the stencil leaves a truncated box); the
    degree is the largest |alpha| with a nonzero coefficient, -1 when
    every image vanishes or no row has a defined image.  The monomials
    are packed into one integer per point, once for all the stencils
    (bound S top 2^(n bound), see the module docstring); each stencil's
    integer numerators are applied to the packed table once, and the
    Newton differences, being linear, run on the packed images: a
    coefficient is nonzero exactly when some monomial's is.  The common
    denominator changes no degree.
    """
    lattice = stencils[0].lattice
    if any(H.lattice != lattice for H in stencils):
        raise ValueError("stencils live on different lattices")
    N = stencils[0].op.params.N
    if N is not None and M > N:
        raise ValueError("need M <= N")
    n, points, sums = lattice.n, lattice.points, lattice.sizes
    exponents = enumerate_degrees(n, M)
    W = slot_width(max(H.row_bounds[0] for H in stencils) * max(1, lattice.bound) ** max(M, 0)
                   << (n * lattice.bound))
    monomials = [pack({t: math.prod(c**e for c, e in zip(x, exps))
                       for t, exps in enumerate(exponents)}, W) for x in points]
    degree = -1
    for H in stencils:
        K = max((s for s, ok in zip(sums, H.valid_rows) if ok), default=-1)
        if any(ok != (s <= K) for s, ok in zip(sums, H.valid_rows)):
            raise ValueError("rows with a defined image do not form a simplex")
        if K < 0:
            continue
        # the valid rows are the graded-lex prefix |x| <= K
        image = [sum(map(mul, row.values(), map(monomials.__getitem__, row)))
                 for row, ok in zip(H.rows, H.valid_rows) if ok]
        coeffs = newton_differences(image, n, K)
        degree = max(degree, max((s for s, c in zip(sums, coeffs) if c), default=-1))
    return degree
