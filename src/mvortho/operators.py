"""The commuting difference operators and their matrix realizations.

Each family carries one total operator, its single-site part, and a
nested chain of exchange operators:

* single:      sum_j B_j(x) (1 - E_j^+) + D_j(x) (1 - E_j^-)
* exchange(i): sum_{j != k >= i} c_{jk}(x) (1 - E_j^- E_k^+)
* total:       single + exchange(1)

where E_j^+- shifts x_j by one.  The rates B_j, D_j and c_jk are the
family's, read from the seven constants of its rate form
(:attr:`mvortho.core.FamilyParams.rate_form`); B_j and D_j are the birth
and death rates of the j-th population group.
On the bounded simplices every coefficient multiplying an out-of-domain
shift vanishes exactly, so no out-of-lattice value is ever read.  On a
truncated Meixner box the up-shift coefficient does not vanish at the
frontier |x| = xmax; the stencil rows there are marked invalid and left
empty rather than silently zeroed, and every kernel skips them.

Each operator is built once per lattice as a sparse stencil
(:class:`OperatorMatrix`): one row of at most 2n + n(n-1) + 1 integer
numerators per point, over one common denominator, written in Python
ints from the rate form: no rational is formed per entry.  Eigen residuals
(:func:`mvortho.verify.residual_defects`), export, commutators,
self-adjointness and the degree test all read that one representation;
products, images and Newton differences run in Python ints and one
rational is formed per result.  The rate identities read the same
integers point by point (:func:`integer_rates`).

The commutators and the degree test run on slot-packed integers
(:mod:`mvortho.linalg`), W = ``slot_width(bound)`` bits per slot.  A
commutator packs each stencil row over the columns once; with S the
largest absolute row sum and E the largest |entry| of the stencils
checked together, every entry of M1 M2 - M2 M1 is at most 2 S E in
absolute value, which is the bound.  The degree test packs the monomials
of degree <= M into one integer per point; an image entry is at most
S top, top = max(1, bound)^M the largest monomial value, and each of the
n K difference passes on {|x| <= K} at most doubles it, so the bound is
S top 2^(n bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from operator import mul

from ._backend import R, integer_scaled
from .core import Lattice, enumerate_degrees, family_lattice
from .linalg import newton_differences, pack, slot_width, unpack
from .measures import WeightTable

KINDS = ("total", "single", "exchange")


@dataclass(frozen=True)
class OperatorSpec:
    """A family operator: kind 'total', 'single', or 'exchange' with index."""

    params: object
    kind: str
    index: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind == "exchange":
            if self.index is None or not 1 <= self.index <= self.params.n - 1:
                raise ValueError(
                    f"exchange index must lie in [1, {self.params.n - 1}]"
                )
        elif self.index is not None:
            raise ValueError(f"kind {self.kind!r} takes no index")

    @property
    def label(self) -> str:
        if self.kind == "exchange":
            return f"exchange{self.index}"
        return self.kind


@dataclass(frozen=True)
class OperatorMatrix:
    """Sparse matrix realization on the enumerated lattice.

    Row x holds the coefficients of (Hf)(x) as a functional of f:
    ``rows[x]`` maps columns to nonzero integer numerators over the
    common denominator ``den``.  Rows whose stencil leaves a truncated
    box are flagged invalid and left empty.
    """

    op: OperatorSpec
    lattice: Lattice
    rows: tuple
    den: int
    valid_rows: tuple

    @property
    def size(self) -> int:
        return self.lattice.size


def _scaled_rate_form(params) -> tuple:
    """(u0, u1, v1, d0, d1, e1, e, a_1, ..., a_n) as integers over their lcm D, and D."""
    return integer_scaled([*params.rate_form, *params.a])


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


def operator_matrix(op: OperatorSpec, lattice: Lattice | None = None) -> OperatorMatrix:
    """The operator's stencil on the lattice, one sparse row per point.

    The rate constants and a_1..a_n are scaled once to integers over their
    lcm D, so each rate is an integer over D^2; the numerators, in move
    order with each diagonal last, are divided once by g = gcd(D^2, all of
    them), and den = D^2 / g is the lcm of the reduced denominators.  Only
    up moves from |x| = bound leave the lattice: those rows are invalid.
    """
    if lattice is None:
        lattice = family_lattice(op.params)
    if lattice.n != op.params.n:
        raise ValueError("lattice dimension does not match the parameters")
    if op.params.N is not None and lattice.bound != op.params.N:
        raise ValueError("lattice bound does not match N")
    n, (ups, downs) = lattice.n, lattice.steps
    (u0, u1, v1, d0, d1, e1, e, *a), D = _scaled_rate_form(op.params)
    e1, ea = e1 * D, [e * ak for ak in a]
    single = op.kind != "exchange"
    # exchange moves run between the sites lo..n-1; the single part has none
    lo = op.index - 1 if op.kind == "exchange" else 0 if op.kind == "total" else n
    pairs = [(j, k) for j in range(lo, n) for k in range(lo, n) if k != j]
    rows, valid = [], []
    for i, x in enumerate(lattice.points):
        s = sum(x)
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


def _product_valid_rows(M1: OperatorMatrix, M2: OperatorMatrix):
    """Rows where (M1 M2) equals the untruncated operator product.

    Row x of the product reads rows z of M2 wherever M1[x][z] != 0, so
    it is exact iff row x of M1 and all those rows of M2 are exact.
    """
    if all(M2.valid_rows):
        return M1.valid_rows
    return [ok and all(M2.valid_rows[j] for j in row)
            for row, ok in zip(M1.rows, M1.valid_rows)]


def _row_bounds(stencils) -> tuple:
    """(largest absolute row sum S, largest |entry| E) over the stencils."""
    rows = [row.values() for H in stencils for row in H.rows]
    return (max((sum(map(abs, row)) for row in rows), default=0),
            max(map(abs, chain.from_iterable(rows)), default=0))


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
    S, E = _row_bounds(stencils)
    W = slot_width(2 * S * E)
    # row k of each stencil as the one integer sum_j H[k][j] 2^(W j)
    packed = [[pack(row, W) for row in H.rows] for H in stencils]
    out = []
    for (M1, P1), (M2, P2) in combinations(zip(stencils, packed), 2):
        worst = 0
        for row1, row2, ok12, ok21 in zip(M1.rows, M2.rows, _product_valid_rows(M1, M2),
                                          _product_valid_rows(M2, M1)):
            if not (ok12 and ok21):
                continue
            d = (sum(map(mul, row1.values(), map(P2.__getitem__, row1)))
                 - sum(map(mul, row2.values(), map(P1.__getitem__, row2))))
            if d:
                low = ((d & -d).bit_length() - 1) // W
                slots = unpack(d >> (W * low), W, abs(d).bit_length() // W + 1 - low)
                worst = max(worst, *map(abs, slots))
        out.append(R(worst, M1.den * M2.den))
    return out


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
    n, points = lattice.n, lattice.points
    sums = [sum(x) for x in points]
    exponents = enumerate_degrees(n, M)
    W = slot_width(_row_bounds(stencils)[0] * max(1, lattice.bound) ** max(M, 0)
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
