import dataclasses
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvortho import (
    R,
    HahnParams,
    KrawtchoukParams,
    LatticeFunction,
    MeixnerParams,
    OperatorSpec,
    adjointness_defect,
    commutator_defect,
    operator_matrix,
    weight_table,
)
from mvortho import verify as V
from mvortho._backend import integer_scaled
from mvortho.core import (FamilyParams, Lattice, enumerate_degrees, enumerate_lattice,
                          family_lattice)
from mvortho.linalg import newton_differences
from mvortho.operators import image_degree
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
    f = LatticeFunction(
        lat, tuple(R(rng.randint(-9, 9), rng.randint(1, 9)) for _ in lat.points)
    )
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
                    assert params.up_rate(x, j) == 0
            for j in range(n):
                if x[j] == 0:
                    assert params.down_rate(x, j) == 0
                    for k in range(n):
                        if k != j:
                            assert params.exchange_coeff(x, j, k) == 0


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
    f = LatticeFunction(
        lat, tuple(R(rng.randint(-9, 9), rng.randint(1, 9)) for _ in lat.points)
    )
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
        assert commutator_defect(operator_matrix(s1, lat), operator_matrix(s2, lat)) == 0


def test_self_commutator_is_zero():
    M = operator_matrix(OperatorSpec(HAHN, "total"))
    assert commutator_defect(M, M) == 0


def test_kernels_reject_stencils_of_other_lattices():
    M = operator_matrix(OperatorSpec(MEIX, "total"), family_lattice(MEIX, xmax=4))
    other = operator_matrix(OperatorSpec(MEIX, "single"), family_lattice(MEIX, xmax=5))
    with pytest.raises(ValueError):
        commutator_defect(M, other)
    with pytest.raises(ValueError):
        adjointness_defect(M, weight_table(MEIX, xmax=5))
    with pytest.raises(ValueError):
        image_degree([M, other], 1)


def test_meixner_commutators_interior_restricted():
    lat = family_lattice(MEIX, xmax=8)
    specs = [OperatorSpec(MEIX, "total"), OperatorSpec(MEIX, "single"),
             OperatorSpec(MEIX, "exchange", 1)]
    for s1, s2 in combinations(specs, 2):
        assert commutator_defect(operator_matrix(s1, lat), operator_matrix(s2, lat)) == 0


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
# the pointwise rates the bundles derive from their rate form
FORM_RATES = (FamilyParams.up_rate, FamilyParams.down_rate, FamilyParams.exchange_coeff)


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


def apply_matrix(H, f):
    """Matrix-vector product H f: one rational per row, None where the row is
    invalid or reads an undefined entry of f."""
    if f.lattice != H.lattice:
        raise ValueError("table and operator live on different lattices")
    num, den = integer_scaled(f.values)
    out = []
    for i, (row, ok) in enumerate(zip(H.rows, H.valid_rows)):
        if not ok or num[i] is None or any(num[j] is None for j in row):
            out.append(None)
        else:
            out.append(R(sum(c * num[j] for j, c in row.items()), den * H.den))
    return LatticeFunction(H.lattice, tuple(out))


def apply_operator(op, f):
    """The operator applied to a value table through its stencil."""
    return apply_matrix(operator_matrix(op, f.lattice), f)


def max_abs(f):
    """Largest |value| over the defined points of a table; 0 on an all-None table."""
    return max((abs(v) for v in f.values if v is not None), default=R(0))


def monomial_table(exponents, lattice):
    """Value table of x^m over the lattice."""
    return table_of(
        lattice, lambda x: math.prod((R(c) ** e for c, e in zip(x, exponents)), start=R(1)))


def entries(M):
    """Dense rows of rationals of a stencil."""
    return tuple(tuple(R(row.get(j, 0), M.den) for j in range(M.size)) for row in M.rows)


def mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    out = [[R(0)] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        row = out[i]
        for k in range(inner):
            a = Ai[k]
            if a == 0:
                continue
            Bk = B[k]
            for j in range(cols):
                if Bk[j] != 0:
                    row[j] += a * Bk[j]
    return out


def rank(A) -> int:
    """Exact rank via fraction-exact Gaussian elimination."""
    if not A:
        return 0
    M = [[R(v) for v in row] for row in A]
    rows, cols = len(M), len(M[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = 1 / M[r][c]
        M[r] = [v * inv for v in M[r]]
        for i in range(rows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        r += 1
        if r == rows:
            break
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
    return LatticeFunction(f.lattice, tuple(out))


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


def dense_commutator_defect(op1, op2, lattice):
    (M1, v1), (M2, v2) = dense_matrix(op1, lattice), dense_matrix(op2, lattice)

    def product_valid(M, va, vb):
        return [ok and all(vb[j] for j, v in enumerate(row) if v != 0)
                for row, ok in zip(M, va)]

    A, B = mat_mul(M1, M2), mat_mul(M2, M1)
    keep = [a and b for a, b in zip(product_valid(M1, v1, v2), product_valid(M2, v2, v1))]
    return max((abs(a - b) for ra, rb, ok in zip(A, B, keep) if ok
                for a, b in zip(ra, rb)), default=R(0))


def dense_adjointness_defect(op, w):
    M, valid = dense_matrix(op, w.lattice)
    size = w.lattice.size
    return max((abs(w.values[i] * M[i][j] - w.values[j] * M[j][i])
                for i in range(size) for j in range(size) if valid[i] and valid[j]),
               default=R(0))


def dense_degree_invariant(op, M, lattice):
    basis = [monomial_table(e, lattice) for e in enumerate_lattice(lattice.n, M)]
    images = [pointwise_apply(op, b) for b in basis]
    keep = [i for i in range(lattice.size)
            if all(img.values[i] is not None for img in images)]
    A = [[b.values[i] for b in basis] for i in keep]
    return in_column_span(A, [[img.values[i] for img in images] for i in keep])


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
    f = LatticeFunction(
        lat, tuple(R(rng.randint(-9, 9), rng.randint(1, 9)) for _ in lat.points)
    )
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
    sites = range(params.n)
    for x in lat.points:
        for j in sites:
            assert params.up_rate(x, j) == up(params, x, j)
            assert params.down_rate(x, j) == down(params, x, j)
            assert all(params.exchange_coeff(x, j, k) == exchange(params, x, j, k)
                       for k in sites if k != j)
    for spec in specs_of(params):
        M = operator_matrix(spec, lat)
        rows, den, valid = fraction_diagonal_stencil(spec, lat, closed)
        assert [list(row.items()) for row in M.rows] == [list(row.items()) for row in rows]
        assert (M.den, list(M.valid_rows)) == (den, valid)


def residual_through_apply(H, f, eig):
    """Max |(H f)(x) - eig f(x)| over the defined rows of H f, and their count."""
    image = apply_matrix(H, f)
    residuals = [g - eig * v for v, g in zip(f.values, image.values) if g is not None]
    return max(map(abs, residuals), default=R(0)), len(residuals)


@pytest.mark.parametrize("params,xmax", ORACLE_CASES)
def test_residual_kernel_matches_apply_matrix(params, xmax, monkeypatch):
    lat = family_lattice(params, xmax=xmax)
    degrees = enumerate_degrees(params.n, 3)
    tables = eigenpoly_tables(degrees, params, lat)
    for spec in specs_of(params):
        H = operator_matrix(spec, lat)
        for m, table in zip(degrees, tables):
            eig = eigenvalue(params, spec.kind, spec.index, m)
            exact = V.residual_defect(H, table, eig)
            assert exact == residual_through_apply(H, table, eig)
            assert exact[0] == 0 and exact[1] == sum(H.valid_rows)
            wrong = V.residual_defect(H, table, eig + R(1, 7))
            assert wrong == residual_through_apply(H, table, eig + R(1, 7))
            assert wrong[0] > 0
    # a table with an undefined entry: rows that read it have no image
    values = list(tables[4].values)
    values[lat.size // 2] = None
    partial = LatticeFunction(lat, tuple(values))
    for spec in specs_of(params):
        H = operator_matrix(spec, lat)
        eig = eigenvalue(params, spec.kind, spec.index, degrees[4])
        got = V.residual_defect(H, partial, eig)
        assert got == residual_through_apply(H, partial, eig)
        assert got[1] < sum(H.valid_rows)
    # a shifted eigenvalue makes the eigen check FAIL
    monkeypatch.setattr(V, "eigenvalue", lambda *args: eigenvalue(*args) + R(1, 7))
    assert V.eigen_suite(V.SuiteContext(params, 3, xmax), 3)[0].status == "fail"
    other = Lattice(params.n, lat.bound - 1, lat.truncated)
    with pytest.raises(ValueError, match="different lattices"):
        V.residual_defect(H, eigenpoly_tables(degrees[:1], params, other)[0], R(0))


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
        assert commutator_defect(built[s1], built[s2]) == dense_commutator_defect(s1, s2, lat)
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
        assert all(commutator_defect(total, built[spec]) > 0 for spec in specs[1:])


@pytest.mark.parametrize("params,xmax", [(HAHN, None), (KRAW, None), (MEIX, 5)])
def test_perturbed_birth_rate_fails_every_operator_check(params, xmax, monkeypatch):
    perturb_birth_rate(monkeypatch, params)
    lat = family_lattice(params, xmax=xmax)
    total = operator_matrix(OperatorSpec(params, "total"), lat)
    assert not image_degree([total], 2) <= 2
    assert image_degree([total], 2) == 3
    assert adjointness_defect(total, weight_table(params, xmax=xmax)) > 0
    for other in specs_of(params)[1:]:
        assert commutator_defect(total, operator_matrix(other, lat)) > 0


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
