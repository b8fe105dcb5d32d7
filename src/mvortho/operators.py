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
frontier |x| = xmax; those result entries are flagged invalid (None)
rather than silently zeroed, and matrix rows there are marked invalid.

Each operator is built once per lattice as a sparse stencil
(:class:`OperatorMatrix`): one row of at most 2n + n(n-1) + 1 integer
numerators per point, over one common denominator, written in Python
ints from the rate form: no rational is formed per entry.  Eigen residuals
(:func:`mvortho.verify.residual_defect`), export, commutators,
self-adjointness and the degree test all read that one representation;
products, images and Newton differences run in Python ints
(:mod:`mvortho.linalg`) and one rational is formed per result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._backend import R, integer_scaled
from .core import Lattice, enumerate_degrees, family_lattice
from .linalg import newton_differences, sparse_product
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
    (u0, u1, v1, d0, d1, e1, e, *a), D = integer_scaled([*op.params.rate_form, *op.params.a])
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
    return [ok and all(M2.valid_rows[j] for j in row)
            for row, ok in zip(M1.rows, M1.valid_rows)]


def commutator_defect(M1: OperatorMatrix, M2: OperatorMatrix):
    """Exact max |entry| of M1 M2 - M2 M1 over rows valid for both orders."""
    if M1.op.params != M2.op.params or M1.lattice != M2.lattice:
        raise ValueError("stencils must share one parameter bundle and one lattice")
    A = sparse_product(M1.rows, M2.rows)
    B = sparse_product(M2.rows, M1.rows)
    worst = 0
    for a, b, ok12, ok21 in zip(A, B, _product_valid_rows(M1, M2),
                                _product_valid_rows(M2, M1)):
        if ok12 and ok21:
            for j in a.keys() | b.keys():
                worst = max(worst, abs(a.get(j, 0) - b.get(j, 0)))
    return R(worst, M1.den * M2.den)


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
    every image vanishes or no row has a defined image.  Each monomial
    table is built once for all the stencils, as Python ints, and each
    image is the stencil's integer numerators applied to it: the common
    denominator changes no degree.
    """
    lattice = stencils[0].lattice
    if any(H.lattice != lattice for H in stencils):
        raise ValueError("stencils live on different lattices")
    N = stencils[0].op.params.N
    if N is not None and M > N:
        raise ValueError("need M <= N")
    sums = [sum(x) for x in lattice.points]
    monomials = [[math.prod(c**e for c, e in zip(x, exponents)) for x in lattice.points]
                 for exponents in enumerate_degrees(lattice.n, M)]
    degree = -1
    for H in stencils:
        K = max((s for s, ok in zip(sums, H.valid_rows) if ok), default=-1)
        if any(ok != (s <= K) for s, ok in zip(sums, H.valid_rows)):
            raise ValueError("rows with a defined image do not form a simplex")
        if K < 0:
            continue
        # the valid rows are the graded-lex prefix |x| <= K
        rows = [row for row, ok in zip(H.rows, H.valid_rows) if ok]
        for mono in monomials:
            image = [sum(c * mono[j] for j, c in row.items()) for row in rows]
            coeffs = newton_differences(image, lattice.n, K)
            degree = max([degree] + [s for s, c in zip(sums, coeffs) if c != 0])
    return degree
