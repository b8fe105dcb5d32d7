import dataclasses
import math
import random
from itertools import combinations
from typing import NamedTuple

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mvortho import (
    R,
    HahnParams,
    KrawtchoukParams,
    LatticeFunction,
    MeixnerParams,
    OperatorMatrix,
    OperatorSpec,
    adjointness_defect,
    operator_matrix,
    weight_table,
)
from mvortho import operators
from mvortho import verify as V
from mvortho._backend import integer_scaled
from mvortho.core import Lattice, enumerate_degrees, enumerate_lattice, family_lattice
from mvortho.linalg import newton_differences, pack, slot_width, unpack
from mvortho.operators import commutator_defects, image_degree, integer_rates
from mvortho.polynomials import eigenpoly_tables, eigenvalue
from test_core import table_of

HAHN = HahnParams((R(1), R(2), R(3)), R(2), 4)
KRAW = KrawtchoukParams((R(1, 3), R(1, 2), R(1, 4)), 4)
MEIX = MeixnerParams((R(1, 4), R(1, 4)), R(2))


def hahn_lattice():
    return family_lattice(HAHN)


def test_operator_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec(HAHN, "bogus")
    with pytest.raises(ValueError):
        OperatorSpec(HAHN, "exchange")  # needs an index
    with pytest.raises(ValueError):
        OperatorSpec(HAHN, "exchange", 3)  # index <= n-1
    with pytest.raises(ValueError):
        OperatorSpec(HAHN, "total", 1)  # no index for total
    assert OperatorSpec(HAHN, "exchange", 2).label == "exchange2"


def test_total_annihilates_constants():
    lat = hahn_lattice()
    one = table_of(lat, lambda x: R(1))
    for spec in (
        OperatorSpec(HAHN, "total"),
        OperatorSpec(HAHN, "single"),
        OperatorSpec(HAHN, "exchange", 1),
        OperatorSpec(HAHN, "exchange", 2),
    ):
        image = apply_operator(spec, one)
        assert max_abs(image) == 0


def test_exchange_annihilates_lower_variables():
    # exchange(i) kills any function of x_1..x_{i-1}
    lat = hahn_lattice()
    f = table_of(lat, lambda x: R(x[0]) ** 2 + 3 * x[0])
    image = apply_operator(OperatorSpec(HAHN, "exchange", 2), f)
    assert max_abs(image) == 0


def test_degree_one_sector_eigenfunction():
    # exchange(i) on a_{>i} x_i - a_i x_{>i} scales by a_i + a_{>i}
    lat = hahn_lattice()
    for i in (1, 2):
        ai, at = HAHN.a[i - 1], HAHN.a_tail(i)

        def t(x):
            return at * x[i - 1] - ai * sum(x[i:])

        f = table_of(lat, t)
        image = apply_operator(OperatorSpec(HAHN, "exchange", i), f)
        for fx, gx in zip(f.values, image.values):
            assert gx == (ai + at) * fx


def test_total_decomposes_into_single_plus_exchange1():
    lat = hahn_lattice()
    rng = random.Random(3)
    f = table_of(lat, lambda x: R(rng.randint(-9, 9), rng.randint(1, 9)))
    total = apply_operator(OperatorSpec(HAHN, "total"), f)
    single = apply_operator(OperatorSpec(HAHN, "single"), f)
    exch = apply_operator(OperatorSpec(HAHN, "exchange", 1), f)
    for t, s, e in zip(total.values, single.values, exch.values):
        assert t == s + e


def test_exchange_nesting_difference_only_touches_lower_sites():
    # exchange(i) - exchange(i+1) applied to a delta supported deep in
    # the lattice moves mass only through site-i pairings
    lat = hahn_lattice()
    for point in lat.points:
        if min(point) == 0:
            continue
        f = table_of(lat, lambda x: R(int(x == point)))
        d1 = apply_operator(OperatorSpec(HAHN, "exchange", 1), f)
        d2 = apply_operator(OperatorSpec(HAHN, "exchange", 2), f)
        for x, v1, v2 in zip(lat.points, d1.values, d2.values):
            if v1 != v2:
                # differing entries always involve a site-1 move
                assert x[0] != point[0] or x == point


def test_boundary_coefficients_vanish_exactly():
    for params in (HAHN, KRAW):
        lat = family_lattice(params)
        n = params.n
        for x in lat.points:
            if sum(x) == params.N:
                for j in range(n):
                    assert form_up_rate(params, x, j) == 0
            for j in range(n):
                if x[j] == 0:
                    assert form_down_rate(params, x, j) == 0
                    for k in range(n):
                        if k != j:
                            assert form_exchange_coeff(params, x, j, k) == 0


def test_apply_operator_never_reads_outside_bounded_lattice():
    # total application succeeds on every point of the simplex; any
    # out-of-lattice read would raise through the None path
    lat = hahn_lattice()
    f = table_of(lat, lambda x: R(sum(x)) ** 2)
    image = apply_operator(OperatorSpec(HAHN, "total"), f)
    assert all(v is not None for v in image.values)


def test_meixner_frontier_flagged_invalid():
    lat = family_lattice(MEIX, xmax=6)
    f = table_of(lat, lambda x: R(1))
    for kind, index in (("total", None), ("single", None)):
        image = apply_operator(OperatorSpec(MEIX, kind, index), f)
        for x, v in zip(lat.points, image.values):
            if sum(x) == 6:
                assert v is None
            else:
                assert v == 0
    # exchange moves preserve |x|: no invalid entries
    image = apply_operator(OperatorSpec(MEIX, "exchange", 1), f)
    assert all(v is not None for v in image.values)


def test_operator_matrix_matches_apply_on_deltas_and_random():
    lat = hahn_lattice()
    spec = OperatorSpec(HAHN, "total")
    dense = entries(operator_matrix(spec, lat))
    for j, point in enumerate(lat.points):
        image = apply_operator(spec, table_of(lat, lambda x: R(int(x == point))))
        for i in range(lat.size):
            assert dense[i][j] == image.values[i]
    rng = random.Random(11)
    f = table_of(lat, lambda x: R(rng.randint(-9, 9), rng.randint(1, 9)))
    image = apply_operator(spec, f)
    for i in range(lat.size):
        assert image.values[i] == sum(
            dense[i][j] * f.values[j] for j in range(lat.size)
        )


def test_total_matrix_rows_sum_to_zero():
    M = operator_matrix(OperatorSpec(HAHN, "total"), hahn_lattice())
    for row in entries(M):
        assert sum(row) == 0


def test_exchange_matrix_blocks_by_total_degree():
    lat = hahn_lattice()
    dense = entries(operator_matrix(OperatorSpec(HAHN, "exchange", 1), lat))
    for i, x in enumerate(lat.points):
        for j, y in enumerate(lat.points):
            if sum(x) != sum(y):
                assert dense[i][j] == 0


@pytest.mark.parametrize("params", [HAHN, KRAW])
def test_all_pairs_commute_bounded(params):
    lat = family_lattice(params)
    specs = [OperatorSpec(params, "total"), OperatorSpec(params, "single")] + [
        OperatorSpec(params, "exchange", i) for i in range(1, params.n)
    ]
    for s1, s2 in combinations(specs, 2):
        assert commutator_defects([operator_matrix(s1, lat), operator_matrix(s2, lat)])[0] == 0


def test_self_commutator_is_zero():
    M = operator_matrix(OperatorSpec(HAHN, "total"))
    assert commutator_defects([M, M])[0] == 0


def test_kernels_reject_stencils_of_other_lattices():
    M = operator_matrix(OperatorSpec(MEIX, "total"), family_lattice(MEIX, xmax=4))
    other = operator_matrix(OperatorSpec(MEIX, "single"), family_lattice(MEIX, xmax=5))
    with pytest.raises(ValueError):
        commutator_defects([M, other])
    with pytest.raises(ValueError):
        adjointness_defect(M, weight_table(MEIX, xmax=5))
    with pytest.raises(ValueError):
        image_degree([M, other], 1)


def test_meixner_commutators_interior_restricted():
    lat = family_lattice(MEIX, xmax=8)
    specs = [OperatorSpec(MEIX, "total"), OperatorSpec(MEIX, "single"),
             OperatorSpec(MEIX, "exchange", 1)]
    for s1, s2 in combinations(specs, 2):
        assert commutator_defects([operator_matrix(s1, lat), operator_matrix(s2, lat)])[0] == 0


def test_meixner_exchange_negates_krawtchouk_exchange():
    # on a common box the Meixner exchange matrix is minus the
    # Krawtchouk one with the same site parameters
    a = (R(1, 4), R(1, 4))
    meix = MeixnerParams(a, R(2))
    kraw = KrawtchoukParams(a, 6)
    from mvortho.core import Lattice

    box = Lattice(2, 6, truncated=True)
    Mm = operator_matrix(OperatorSpec(meix, "exchange", 1), box)
    Mk = operator_matrix(OperatorSpec(kraw, "exchange", 1), box)
    for rm, rk in zip(entries(Mm), entries(Mk)):
        assert all(vm == -vk for vm, vk in zip(rm, rk))


@pytest.mark.parametrize("params", [HAHN, KRAW])
def test_adjointness_bounded(params):
    w = weight_table(params)
    for kind, index in (("total", None), ("single", None), ("exchange", 1),
                        ("exchange", 2)):
        H = operator_matrix(OperatorSpec(params, kind, index), w.lattice)
        assert adjointness_defect(H, w) == 0


def test_adjointness_meixner_interior():
    w = weight_table(MEIX, xmax=8)
    for kind, index in (("total", None), ("single", None), ("exchange", 1)):
        H = operator_matrix(OperatorSpec(MEIX, kind, index), w.lattice)
        assert adjointness_defect(H, w) == 0


def test_degree_invariance():
    total = operator_matrix(OperatorSpec(HAHN, "total"))
    exchange = operator_matrix(OperatorSpec(HAHN, "exchange", 1))
    for M in (0, 1, 2):
        assert image_degree([total], M) <= M
        assert image_degree([exchange], M) <= M
    assert image_degree([total], HAHN.N) <= HAHN.N
    with pytest.raises(ValueError):
        image_degree([total], HAHN.N + 1)


def test_degree_invariance_meixner_box():
    lat = family_lattice(MEIX, xmax=6)
    total = operator_matrix(OperatorSpec(MEIX, "total"), lat)
    assert image_degree([total], 2) <= 2
    assert image_degree([total], 2) == 2
    assert image_degree([operator_matrix(OperatorSpec(MEIX, "exchange", 1), lat)], 0) == -1
    # on the one-point box no row of the total operator has a defined image
    point = family_lattice(MEIX, xmax=0)
    assert image_degree([operator_matrix(OperatorSpec(MEIX, "total"), point)], 2) == -1


def test_degree_needs_defined_rows_on_a_simplex():
    # the frontier row (4, 0) flagged exact while its neighbours on |x| = 4
    # are not
    lat = family_lattice(MEIX, xmax=4)
    total = operator_matrix(OperatorSpec(MEIX, "total"), lat)
    total = dataclasses.replace(total, valid_rows=tuple(
        ok or x == (4, 0) for x, ok in zip(lat.points, total.valid_rows)))
    with pytest.raises(ValueError, match="simplex"):
        image_degree([total], 1)


def test_apply_rejects_mismatched_lattice():
    other = family_lattice(HahnParams((R(1), R(2), R(3)), R(2), 5))
    f = table_of(other, lambda x: R(1))
    with pytest.raises(ValueError):
        apply_operator(OperatorSpec(HAHN, "total"), f)


# ---------------------------------------------------------------------------
# dense reference: the pointwise stencil walk and exact dense linear algebra
# that the sparse kernels replaced, kept here as the slow oracle

# The rates of each family in closed form, (B_j, D_j, c_jk) as functions of
# (params, x, j[, k]): the oracle of the rates the bundles derive from their
# rate form, and of the integer stencils.
CLOSED_RATES = {
    HahnParams: (lambda p, x, j: R(p.N - sum(x)) * (x[j] + p.a[j]),
                 lambda p, x, j: R(x[j]) * (p.N - sum(x) + p.b),
                 lambda p, x, j, k: R(x[j]) * (x[k] + p.a[k])),
    KrawtchoukParams: (lambda p, x, j: R(p.N - sum(x)) * p.a[j],
                       lambda p, x, j: R(x[j]),
                       lambda p, x, j, k: R(x[j]) * p.a[k]),
    MeixnerParams: (lambda p, x, j: (p.beta + sum(x)) * p.a[j],
                    lambda p, x, j: R(x[j]),
                    lambda p, x, j, k: -R(x[j]) * p.a[k]),
}


# The pointwise rates of the rate form, one rational each: the oracle of the
# integer rates (``operators.integer_rates``) that the rate identities read.
def form_up_rate(params, x, j: int):
    """Birth rate B_j(x) of site j."""
    u0, u1, v1 = params.rate_form[:3]
    return (u0 + u1 * sum(x)) * (v1 * x[j] + params.a[j])


def form_down_rate(params, x, j: int):
    """Death rate D_j(x) of site j."""
    d0, d1 = params.rate_form[3:5]
    return x[j] * (d0 + d1 * sum(x))


def form_exchange_coeff(params, x, j: int, k: int):
    """Rate c_jk(x) of the move x - e_j + e_k."""
    e1, e = params.rate_form[5:]
    return x[j] * (e1 * x[k] + e * params.a[k])


FORM_RATES = (form_up_rate, form_down_rate, form_exchange_coeff)


def moves(op, x, rates=FORM_RATES):
    """Yield (coefficient, shifted point) pairs with nonzero coefficient.

    A shifted point may fall outside a truncated box; the caller decides
    how to handle that.  On bounded families all yielded points lie in
    the simplex because the rates vanish on the relevant boundary.
    """
    params = op.params
    up_rate, down_rate, exchange_coeff = rates
    n = params.n
    if op.kind in ("total", "single"):
        for j in range(n):
            b = up_rate(params, x, j)
            if b != 0:
                yield b, x[:j] + (x[j] + 1,) + x[j + 1 :]
            d = down_rate(params, x, j)
            if d != 0:
                yield d, x[:j] + (x[j] - 1,) + x[j + 1 :]
    if op.kind in ("total", "exchange"):
        lo = 0 if op.kind == "total" else op.index - 1
        for j in range(lo, n):
            if x[j] == 0:
                continue
            for k in range(lo, n):
                if k == j:
                    continue
                c = exchange_coeff(params, x, j, k)
                if c != 0:
                    y = list(x)
                    y[j] -= 1
                    y[k] += 1
                    yield c, tuple(y)


class PartialTable(NamedTuple):
    """Values over a lattice with None where undefined: an operator's image
    on a truncated box, which a table (always total) cannot hold."""

    lattice: Lattice
    values: tuple


def apply_matrix(H, f):
    """Matrix-vector product H f of a table or partial table: one rational per
    row, None where the row is invalid or reads an undefined entry of f."""
    if f.lattice != H.lattice:
        raise ValueError("table and operator live on different lattices")
    v = f.values
    out = []
    for i, (row, ok) in enumerate(zip(H.rows, H.valid_rows)):
        if not ok or v[i] is None or any(v[j] is None for j in row):
            out.append(None)
        else:
            out.append(sum((c * v[j] for j, c in row.items()), R(0)) / H.den)
    return PartialTable(H.lattice, tuple(out))


def apply_operator(op, f):
    """The operator applied to a value table through its stencil."""
    return apply_matrix(operator_matrix(op, f.lattice), f)


def max_abs(f):
    """Largest |value| over the defined points of a table; 0 on an all-None table."""
    return max((abs(v) for v in f.values if v is not None), default=R(0))


def entries(M):
    """Dense rows of rationals of a stencil."""
    return tuple(tuple(R(row.get(j, 0), M.den) for j in range(M.size)) for row in M.rows)


def mat_mul(A, B):
    """Dense integer product A B."""
    out = []
    for row in A:
        acc = [0] * len(B[0])
        for a, Bk in zip(row, B):
            if a:
                acc = [s + a * b for s, b in zip(acc, Bk)]
        out.append(acc)
    return out


def rank(A) -> int:
    """Exact rank of an integer matrix: fraction-free row echelon form, each
    eliminated row divided by the gcd of its entries."""
    M = [list(row) for row in A]
    r = 0
    for c in range(len(M[0]) if M else 0):
        pivot = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        p = M[r]
        for i in range(r + 1, len(M)):
            if f := M[i][c]:
                row = [p[c] * a - f * b for a, b in zip(M[i], p)]
                g = math.gcd(*row)
                M[i] = [v // g for v in row] if g > 1 else row
        r += 1
    return r


def in_column_span(A, B) -> bool:
    """True when every column of B is an exact linear combination of the
    columns of A (A and B given as rows)."""
    augmented = [ra + rb for ra, rb in zip(A, B)]
    return rank(augmented) == rank(A)


def pointwise_apply(op, f):
    index = f.lattice.index
    out = []
    for x, fx in zip(f.lattice.points, f.values):
        acc = R(0)
        ok = fx is not None
        if ok:
            for c, y in moves(op, x):
                pos = index.get(y)
                if pos is None or f.values[pos] is None:
                    ok = False
                    break
                acc += c * (fx - f.values[pos])
        out.append(acc if ok else None)
    return PartialTable(f.lattice, tuple(out))


def dense_matrix(op, lattice):
    """(rows, valid) with invalid rows zeroed, built from the moves."""
    entries, valid = [], []
    for i, x in enumerate(lattice.points):
        row = [R(0)] * lattice.size
        ok = True
        for c, y in moves(op, x):
            pos = lattice.index.get(y)
            if pos is None:
                ok = False
                break
            row[i] += c
            row[pos] -= c
        entries.append(row if ok else [R(0)] * lattice.size)
        valid.append(ok)
    return entries, valid


def integer_dense(op, lattice):
    """(rows, den, valid): :func:`dense_matrix` scaled once to integers over
    the lcm den of its entries."""
    rows, valid = dense_matrix(op, lattice)
    nums, den = integer_scaled([v for row in rows for v in row])
    size = lattice.size
    return [nums[i * size:(i + 1) * size] for i in range(size)], den, valid


def dense_commutator_defect(op1, op2, lattice):
    (M1, d1, v1), (M2, d2, v2) = integer_dense(op1, lattice), integer_dense(op2, lattice)

    def product_valid(M, va, vb):
        return [ok and all(vb[j] for j, v in enumerate(row) if v != 0)
                for row, ok in zip(M, va)]

    A, B = mat_mul(M1, M2), mat_mul(M2, M1)
    keep = [a and b for a, b in zip(product_valid(M1, v1, v2), product_valid(M2, v2, v1))]
    return R(max((abs(a - b) for ra, rb, ok in zip(A, B, keep) if ok
                  for a, b in zip(ra, rb)), default=0), d1 * d2)


def dense_adjointness_defect(op, w):
    M, den, valid = integer_dense(op, w.lattice)
    wn, wden = integer_scaled(w.values)
    size = w.lattice.size
    return R(max((abs(wn[i] * M[i][j] - wn[j] * M[j][i])
                  for i in range(size) for j in range(size) if valid[i] and valid[j]),
                 default=0), wden * den)


def dense_degree_invariant(op, M, lattice):
    rows, _, valid = integer_dense(op, lattice)
    basis = [[math.prod(c**e for c, e in zip(x, exponents)) for x in lattice.points]
             for exponents in enumerate_lattice(lattice.n, M)]
    keep = [i for i, ok in enumerate(valid) if ok]
    A = [[b[i] for b in basis] for i in keep]
    images = [[sum(c * b[j] for j, c in enumerate(rows[i]) if c) for b in basis] for i in keep]
    return in_column_span(A, images)


def specs_of(params):
    return [OperatorSpec(params, "total"), OperatorSpec(params, "single")] + [
        OperatorSpec(params, "exchange", i) for i in range(1, params.n)
    ]


ORACLE_CASES = [
    (HahnParams((R(1), R(2), R(3)), R(2), 5), None),
    (KrawtchoukParams((R(1, 2), R(1, 3), R(2)), 6), None),
    (MeixnerParams((R(1, 5), R(1, 4)), R(2)), 4),
    (MeixnerParams((R(1, 8), R(1, 8), R(1, 4)), R(5, 2)), 5),
]


RATE_FORM = {cls: cls.rate_form for cls in CLOSED_RATES}


def perturb_birth_rate(monkeypatch, params):
    """v1 + 1/7 in the family's rate form, so B_j gains (u0 + u1 |x|) x_j / 7:
    this breaks every operator identity.  (A change of e1 or e alone keeps
    the degree test: the exchange sum is degree-preserving whatever they are.)"""
    form = RATE_FORM[type(params)].fget

    def perturbed(p):
        u0, u1, v1, *tail = form(p)
        return (u0, u1, v1 + R(1, 7), *tail)

    monkeypatch.setattr(type(params), "rate_form", property(perturbed))


@pytest.mark.parametrize("params,xmax", ORACLE_CASES)
def test_sparse_stencil_matches_pointwise_moves(params, xmax):
    lat = family_lattice(params, xmax=xmax)
    rng = random.Random(5)
    f = table_of(lat, lambda x: R(rng.randint(-9, 9), rng.randint(1, 9)))
    # on a truncated box g is undefined on the frontier |x| = xmax
    g = apply_operator(OperatorSpec(params, "total"), f)
    for spec in specs_of(params):
        M = operator_matrix(spec, lat)
        dense, valid = dense_matrix(spec, lat)
        assert list(M.valid_rows) == valid
        assert [list(r) for r in entries(M)] == dense
        assert apply_operator(spec, f) == pointwise_apply(spec, f)
        assert apply_operator(spec, g) == pointwise_apply(spec, g)


def fraction_diagonal_stencil(op, lattice, rates=FORM_RATES):
    """(rows, den, valid) of the stencil with each diagonal summed as a rational
    and every entry scaled to the lcm of all entries, diagonals included."""
    rows, valid = [], []
    for i, x in enumerate(lattice.points):
        row, diag = {}, R(0)
        for c, y in moves(op, x, rates):
            pos = lattice.index.get(y)
            if pos is None:
                row = None
                break
            diag += c
            row[pos] = -c
        if row is not None and diag != 0:
            row[i] = diag
        rows.append(row or {})
        valid.append(row is not None)
    nums, den = integer_scaled([v for row in rows for v in row.values()])
    nums = iter(nums)
    return [{j: next(nums) for j in row} for row in rows], den, valid


@pytest.mark.parametrize("params,xmax", ORACLE_CASES)
def test_integer_diagonal_matches_fraction_diagonal(params, xmax):
    lat = family_lattice(params, xmax=xmax)
    for spec in specs_of(params):
        M = operator_matrix(spec, lat)
        rows, den, valid = fraction_diagonal_stencil(spec, lat)
        # the same entries in the same order: the export writes them in row order
        assert [list(row.items()) for row in M.rows] == [list(row.items()) for row in rows]
        assert (M.den, list(M.valid_rows)) == (den, valid)


RATIONALS = st.fractions(R(1, 9), 9, max_denominator=9)


@st.composite
def bundles(draw, family, n):
    """A bundle of the family in n variables on its lattice: N <= 5, or a
    Meixner box with xmax <= 5."""
    if family is MeixnerParams:
        # a_i <= 1/(n+1) keeps |a| < 1
        a = st.fractions(R(1, 12), R(1, n + 1), max_denominator=12)
        params = MeixnerParams(tuple(draw(st.lists(a, min_size=n, max_size=n))),
                               draw(RATIONALS))
        return params, family_lattice(params, xmax=draw(st.integers(0, 5)))
    a = tuple(draw(st.lists(RATIONALS, min_size=n, max_size=n)))
    N = draw(st.integers(n + 1, 5))
    params = family(a, draw(RATIONALS), N) if family is HahnParams else family(a, N)
    return params, family_lattice(params)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", list(CLOSED_RATES), ids=lambda cls: cls.family)
@given(data=st.data())
@settings(max_examples=4, deadline=None, derandomize=True)
def test_integer_stencils_match_the_closed_form_rates(family, n, data):
    params, lat = data.draw(bundles(family, n))
    up, down, exchange = closed = CLOSED_RATES[family]
    birth, death, exchange_int, D = integer_rates(params)
    sites = range(params.n)
    for x in lat.points:
        births, deaths = birth(x), death(x)
        for j in sites:
            assert R(births[j], D * D) == form_up_rate(params, x, j) == up(params, x, j)
            assert R(deaths[j], D) == form_down_rate(params, x, j) == down(params, x, j)
            assert all(R(exchange_int(x, j, k), D * D) == form_exchange_coeff(params, x, j, k)
                       == exchange(params, x, j, k) for k in sites if k != j)
    for spec in specs_of(params):
        M = operator_matrix(spec, lat)
        rows, den, valid = fraction_diagonal_stencil(spec, lat, closed)
        assert [list(row.items()) for row in M.rows] == [list(row.items()) for row in rows]
        assert (M.den, list(M.valid_rows)) == (den, valid)


def residual_through_apply(H, f, eig):
    """Max |(H f)(x) - eig f(x)| over the defined rows of H f."""
    image = apply_matrix(H, f)
    residuals = [g - eig * v for v, g in zip(f.values, image.values) if g is not None]
    return max(map(abs, residuals), default=R(0))


def oracle_residual_defect(H, table, eig):
    """Max |(H f)(x) - eig f(x)| over the valid rows of H: the per-row integer
    sum that the packed ``verify.residual_defects`` replaced.  With
    f = num/den and eig = p/q, row i compares q sum_j H[i][j] num_j with
    p H.den num_i."""
    if table.lattice != H.lattice:
        raise ValueError("table and operator live on different lattices")
    num, den = table.integer_form()
    eig = R(eig)
    q, scale = eig.denominator, eig.numerator * H.den
    worst = 0
    for i, (row, ok) in enumerate(zip(H.rows, H.valid_rows)):
        if ok:
            worst = max(worst, abs(q * sum(c * num[j] for j, c in row.items()) - scale * num[i]))
    return R(worst, q * H.den * den)


@pytest.mark.parametrize("params,xmax", ORACLE_CASES)
def test_residual_kernel_matches_apply_matrix(params, xmax, monkeypatch):
    lat = family_lattice(params, xmax=xmax)
    degrees = enumerate_degrees(params.n, 3)
    tables = eigenpoly_tables(degrees, params, lat)
    for spec in specs_of(params):
        H = operator_matrix(spec, lat)
        for m, table in zip(degrees, tables):
            eig = eigenvalue(params, spec.kind, spec.index, m)
            exact = V.residual_defects(H, [table], [eig])[0]
            assert exact == residual_through_apply(H, table, eig) == 0
            wrong = V.residual_defects(H, [table], [eig + R(1, 7)])[0]
            assert wrong == residual_through_apply(H, table, eig + R(1, 7))
            assert wrong > 0
        # one packed call over every table, shifted eigenvalues among them,
        # against the per-row oracle
        batch = [*tables, tables[1]]
        eigs = [eigenvalue(params, spec.kind, spec.index, m) for m in degrees]
        eigs += [eigs[1] - R(3, 5)]
        assert V.residual_defects(H, batch, eigs) == [
            oracle_residual_defect(H, t, e) for t, e in zip(batch, eigs)]
    # a shifted eigenvalue makes the eigen check FAIL
    monkeypatch.setattr(V, "eigenvalue", lambda *args: eigenvalue(*args) + R(1, 7))
    assert V.eigen_suite(V.SuiteContext(params, 3, xmax), 3)[0].status == "fail"
    other = Lattice(params.n, lat.bound - 1, lat.truncated)
    with pytest.raises(ValueError, match="different lattices"):
        V.residual_defects(H, eigenpoly_tables(degrees[:1], params, other), [R(0)])


# the perturbed runs use the Hahn and the n=2 Meixner case: the dense
# reference is slow on the larger lattices
@pytest.mark.parametrize(
    "params,xmax,perturbed",
    [case + (False,) for case in ORACLE_CASES]
    + [case + (True,) for case in ORACLE_CASES[::2]],
)
def test_sparse_checks_match_dense_oracle(params, xmax, perturbed, monkeypatch):
    if perturbed:
        perturb_birth_rate(monkeypatch, params)
    lat = family_lattice(params, xmax=xmax)
    w = weight_table(params, xmax=xmax)
    specs = specs_of(params)
    built = {spec: operator_matrix(spec, lat) for spec in specs}
    for s1, s2 in combinations(specs, 2):
        assert (commutator_defects([built[s1], built[s2]])
                == [dense_commutator_defect(s1, s2, lat)])
    for spec in specs:
        assert adjointness_defect(built[spec], w) == dense_adjointness_defect(spec, w)
        for M in (1, 2, 3):
            assert (image_degree([built[spec]], M) <= M) == dense_degree_invariant(
                spec, M, lat
            )
    # over several stencils, the largest of their image degrees
    for M in (1, 2, 3):
        assert image_degree(list(built.values()), M) == max(
            image_degree([H], M) for H in built.values())
    if perturbed:
        total = built[specs[0]]
        assert image_degree([total], 2) == 3 and adjointness_defect(total, w) > 0
        assert all(commutator_defects([total, built[spec]])[0] > 0 for spec in specs[1:])


# ---------------------------------------------------------------------------
# the packed kernels against the dict-product commutator and the
# per-monomial degree loop they replaced, kept here as the oracles


def sparse_product(A, B) -> list[dict]:
    """Rows of A B for matrices given as sparse rows {column: value}."""
    out = []
    for row in A:
        acc: dict = {}
        for k, a in row.items():
            for j, b in B[k].items():
                acc[j] = acc.get(j, 0) + a * b
        out.append(acc)
    return out


def oracle_commutator_defect(M1, M2):
    """Max |entry| of M1 M2 - M2 M1 from the two dict products, over the rows
    of both products that read only exact rows."""
    def product_valid(A, B):
        return [ok and all(B.valid_rows[j] for j in row)
                for row, ok in zip(A.rows, A.valid_rows)]

    A, B = sparse_product(M1.rows, M2.rows), sparse_product(M2.rows, M1.rows)
    worst = 0
    for a, b, ok12, ok21 in zip(A, B, product_valid(M1, M2), product_valid(M2, M1)):
        if ok12 and ok21:
            worst = max([worst] + [abs(a.get(j, 0) - b.get(j, 0)) for j in a.keys() | b.keys()])
    return R(worst, M1.den * M2.den)


def oracle_image_degree(stencils, M: int) -> int:
    """Largest image degree, one monomial table and one Newton expansion per
    (stencil, monomial)."""
    lattice = stencils[0].lattice
    sums = [sum(x) for x in lattice.points]
    monomials = [[math.prod(c**e for c, e in zip(x, exponents)) for x in lattice.points]
                 for exponents in enumerate_degrees(lattice.n, M)]
    degree = -1
    for H in stencils:
        K = max((s for s, ok in zip(sums, H.valid_rows) if ok), default=-1)
        if K < 0:
            continue
        rows = [row for row, ok in zip(H.rows, H.valid_rows) if ok]
        for mono in monomials:
            image = [sum(c * mono[j] for j, c in row.items()) for row in rows]
            coeffs = newton_differences(image, lattice.n, K)
            degree = max([degree] + [s for s, c in zip(sums, coeffs) if c != 0])
    return degree


def assert_packed_kernels_match_oracles(stencils, degrees=(0, 1, 2, 3)):
    pairs = list(combinations(stencils, 2))
    assert commutator_defects(stencils) == [oracle_commutator_defect(*pair) for pair in pairs]
    for pair in pairs:
        assert commutator_defects(list(pair)) == [oracle_commutator_defect(*pair)]
    for M in degrees:
        assert image_degree(stencils, M) == oracle_image_degree(stencils, M)
        for H in stencils:
            assert image_degree([H], M) == oracle_image_degree([H], M)


ENTRIES = st.integers(-9, 9) | st.integers(-10**15, 10**15)


@st.composite
def random_stencils(draw):
    """2 or 3 stencils of random sparse integer rows on a small simplex, all
    sharing one random K: the rows with |x| <= K are valid, as the degree
    test needs, and each of the others is invalid (and empty, as in a built
    stencil) or, for the commutator alone, a valid row too."""
    n, bound = draw(st.integers(2, 3)), draw(st.integers(0, 4))
    lattice = Lattice(n, bound, truncated=True)
    params = MeixnerParams((R(1, 4),) * n, R(2))
    K = draw(st.integers(-1, bound))
    columns = st.integers(0, lattice.size - 1)
    stencils = []
    for _ in range(draw(st.integers(2, 3))):
        valid = tuple(sum(x) <= K for x in lattice.points)
        rows = tuple(draw(st.dictionaries(columns, ENTRIES, max_size=4)) if ok else {}
                     for ok in valid)
        stencils.append(OperatorMatrix(OperatorSpec(params, "total"), lattice, rows,
                                       draw(st.integers(1, 30)), valid))
    return stencils


# no shrinking here: on a broken kernel shrinking a failing draw of random
# stencils took 20-30 s per property
@given(stencils=random_stencils())
@settings(max_examples=40, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
def test_packed_kernels_match_the_oracles_on_random_stencils(stencils):
    assert_packed_kernels_match_oracles(stencils)


@given(stencils=random_stencils(), data=st.data())
@settings(max_examples=20, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
def test_packed_commutators_match_the_oracle_with_scattered_valid_rows(stencils, data):
    # invalid rows anywhere, not only off a simplex: the commutator reads
    # only rows whose product is exact
    size = stencils[0].lattice.size
    stencils = [dataclasses.replace(H, valid_rows=tuple(
        data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))) for H in stencils]
    pairs = list(combinations(stencils, 2))
    assert commutator_defects(stencils) == [oracle_commutator_defect(*pair) for pair in pairs]


@st.composite
def residual_batches(draw):
    """A random sparse stencil on a small simplex, with entries up to 10^15 and
    invalid rows anywhere, and a batch of tables whose magnitudes run from 0
    to 10^40, with eigenvalues of either sign."""
    n, bound = draw(st.integers(2, 3)), draw(st.integers(0, 4))
    lattice = Lattice(n, bound, truncated=True)
    size = lattice.size
    valid = tuple(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    columns = st.integers(0, size - 1)
    rows = tuple(draw(st.dictionaries(columns, ENTRIES, max_size=4)) if ok else {}
                 for ok in valid)
    H = OperatorMatrix(OperatorSpec(MEIX, "total"), lattice, rows, draw(st.integers(1, 30)),
                       valid)
    tables, eigs = [], []
    for _ in range(draw(st.integers(1, 6))):
        top = draw(st.sampled_from([0, 1, 10**3, 10**20, 10**40]))
        values = [R(draw(st.integers(-top, top)), draw(st.integers(1, 9)))
                  for _ in range(size)]
        tables.append(LatticeFunction(lattice, *integer_scaled(values)))
        eigs.append(R(draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 50))))
    return H, tables, eigs


# no shrinking, as for the commutator properties above
@given(batch=residual_batches())
@settings(max_examples=50, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
def test_packed_residuals_match_the_oracle_on_random_stencils(batch):
    H, tables, eigs = batch
    assert V.residual_defects(H, tables, eigs) == [
        oracle_residual_defect(H, t, e) for t, e in zip(tables, eigs)]


@pytest.mark.parametrize("n", [2, 3])
@given(data=st.data())
@settings(max_examples=6, deadline=None, derandomize=True)
def test_packed_kernels_match_the_oracles_on_a_meixner_box(n, data):
    params, lat = data.draw(bundles(MeixnerParams, n))
    assert_packed_kernels_match_oracles([operator_matrix(spec, lat) for spec in specs_of(params)])


@pytest.mark.parametrize("params,xmax", ORACLE_CASES)
def test_packed_kernels_match_the_oracles_under_a_perturbed_birth_rate(params, xmax,
                                                                        monkeypatch):
    perturb_birth_rate(monkeypatch, params)
    lat = family_lattice(params, xmax=xmax)
    stencils = [operator_matrix(spec, lat) for spec in specs_of(params)]
    assert_packed_kernels_match_oracles(stencils, degrees=(1, 2, 3))
    assert all(d > 0 for d in commutator_defects(stencils)[:len(stencils) - 1])
    assert image_degree(stencils, 2) == 3


def test_the_degree_test_needs_its_slot_width(monkeypatch):
    """One row whose images of x_2 and x_1 have the Newton coefficients -8
    and 1 at alpha = (2, 0): packed at 3 bits per slot (x_2 in slot 1, x_1
    in slot 2) they cancel, -8 * 2^3 + 1 * 2^6 = 0, and the degree-2 image
    reads as no image at all."""
    lat = Lattice(2, 2, truncated=True)
    rows = [{} for _ in lat.points]
    rows[lat.index[(2, 0)]] = {lat.index[(0, 0)]: 7, lat.index[(1, 0)]: 1, lat.index[(0, 1)]: -8}
    H = OperatorMatrix(OperatorSpec(MEIX, "total"), lat, tuple(rows), 1, (True,) * lat.size)
    assert image_degree([H], 1) == oracle_image_degree([H], 1) == 2
    monkeypatch.setattr(operators, "slot_width", lambda bound: 3)
    assert image_degree([H], 1) == -1


@given(W=st.integers(1, 90), data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_pack_unpack_round_trip_at_the_slot_limits(W, data):
    top = (1 << (W - 1)) - 1
    values = data.draw(st.lists(st.sampled_from([top, -top, 0]) | st.integers(-top, top),
                                min_size=1, max_size=12))
    assert slot_width(max(map(abs, values))) <= W
    packed = pack(dict(enumerate(values)), W)
    assert unpack(packed, W, len(values)) == values
    assert (packed == 0) == (not any(values))
    # sparse slots, the lowest one away from slot 0
    sparse = {t + 3: v for t, v in enumerate(values) if v}
    assert unpack(pack(sparse, W), W, len(values) + 3) == [sparse.get(t, 0)
                                                          for t in range(len(values) + 3)]
    with pytest.raises(ValueError):
        unpack(pack({len(values): 1}, W), W, len(values))


@given(bound=st.integers(1, 2**70), data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_a_slot_one_bit_narrower_than_the_bound_needs_unpacks_wrong(bound, data):
    W = slot_width(bound)
    assert bound < 1 << (W - 1) and (W == 1 or bound >= 1 << (W - 2))
    # +bound >= 2^(W-2) lies outside the balanced range of W - 1 bits
    values = [bound] + data.draw(st.lists(st.integers(-bound, bound), max_size=3))
    assert unpack(pack(dict(enumerate(values)), W), W, len(values)) == values
    if W > 1:
        narrow = pack(dict(enumerate(values)), W - 1)
        try:
            assert unpack(narrow, W - 1, len(values) + 1) != values + [0]
        except ValueError:
            pass  # or no count + 1 balanced slots of W - 1 bits hold it


@pytest.mark.parametrize("params,xmax", [(HAHN, None), (KRAW, None), (MEIX, 5)])
def test_perturbed_birth_rate_fails_every_operator_check(params, xmax, monkeypatch):
    perturb_birth_rate(monkeypatch, params)
    lat = family_lattice(params, xmax=xmax)
    total = operator_matrix(OperatorSpec(params, "total"), lat)
    assert not image_degree([total], 2) <= 2
    assert image_degree([total], 2) == 3
    assert adjointness_defect(total, weight_table(params, xmax=xmax)) > 0
    for other in specs_of(params)[1:]:
        assert commutator_defects([total, operator_matrix(other, lat)])[0] > 0


def binomial_product(x, alpha):
    out = 1
    for xi, ai in zip(x, alpha):
        out *= math.comb(xi, ai)
    return out


def forward_differences(values, n: int, K: int) -> list:
    """Newton coefficients of a table of rationals: :func:`newton_differences`
    on its integer numerators over the table's lcm denominator."""
    nums, den = integer_scaled(values)
    return [R(v, den) for v in newton_differences(nums, n, K)]


def test_forward_differences_of_binomial_basis_are_unit_vectors():
    n, K = 3, 4
    points = enumerate_lattice(n, K)
    for beta in points:
        table = [R(binomial_product(x, beta)) for x in points]
        assert forward_differences(table, n, K) == [
            R(1) if alpha == beta else R(0) for alpha in points
        ]


def test_newton_expansion_rebuilds_random_table():
    rng = random.Random(9)
    for n, K in ((2, 5), (3, 4), (4, 2)):
        points = enumerate_lattice(n, K)
        table = [R(rng.randint(-50, 50), rng.randint(1, 12)) for _ in points]
        coeffs = forward_differences(table, n, K)
        for x, fx in zip(points, table):
            assert fx == sum(c * binomial_product(x, alpha)
                             for alpha, c in zip(points, coeffs))
    with pytest.raises(ValueError):
        forward_differences(table[:-1], n, K)


def test_integer_newton_differences_are_the_rational_ones_over_one():
    rng = random.Random(4)
    for n, K in ((2, 0), (2, 5), (3, 4), (4, 3)):
        table = [rng.randint(-10**30, 10**30) for _ in enumerate_lattice(n, K)]
        assert newton_differences(table, n, K) == forward_differences(list(map(R, table)), n, K)
        assert newton_differences(tuple(table), n, K) == newton_differences(table, n, K)
    with pytest.raises(ValueError):
        newton_differences(table + [0], n, K)
