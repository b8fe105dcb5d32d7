import math
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from mvortho import (
    R,
    HahnParams,
    KrawtchoukParams,
    MeixnerParams,
    LatticeFunction,
    eigenpoly,
    eigenpoly_table,
    eigenpoly_tables,
    eigenvalue,
    family_lattice,
    hahn,
    hahn_pair,
    km_pair,
    krawtchouk,
    meixner,
    pair_backward_table,
    rising_factorial,
)
from mvortho import polynomials as P
from mvortho._backend import integer_scaled
from mvortho.core import Lattice, enumerate_degrees, enumerate_lattice
from mvortho.polynomials import (hahn_grid, hahn_pair_sums, km_pair_sums, krawtchouk_grid,
                                 meixner_grid)
from test_core import table_of
from test_operators import ORACLE_CASES

small_pos = st.integers(1, 10).flatmap(
    lambda p: st.integers(1, 10).map(lambda q: R(p, q))
)


def brute_hahn(m, x, a, b, N):
    """Independent term-by-term oracle for the terminating 3F2 sum."""
    total = R(0)
    for k in range(m + 1):
        den = rising_factorial(a, k) * rising_factorial(-R(N), k) * math.factorial(k)
        if den == 0:
            num = (
                rising_factorial(-R(m), k)
                * rising_factorial(R(m) + a + b - 1, k)
                * rising_factorial(-R(x), k)
            )
            if num == 0:
                continue
            raise ZeroDivisionError
        total += (
            rising_factorial(-R(m), k)
            * rising_factorial(R(m) + a + b - 1, k)
            * rising_factorial(-R(x), k)
        ) / den
    return total


class TestSingleVariable:
    def test_degree_zero(self):
        assert hahn(0, 5, R(1), R(2), 7) == 1
        assert krawtchouk(0, 3, R(1, 2), 7) == 1
        assert meixner(0, 3, R(1, 2), R(2)) == 1

    def test_hahn_degree_one_closed_form(self):
        a, b, N = R(3, 2), R(5, 4), 7
        for x in range(8):
            assert hahn(1, x, a, b, N) == 1 - (a + b) * x / (a * N)

    def test_hahn_frozen_value(self):
        # direct term-by-term evaluation: 1 + (-2)(3)(-1)/(1*(-3)) + 0 = -1
        assert hahn(2, 1, R(1), R(1), 3) == -1

    @given(st.integers(0, 4), st.integers(0, 6), small_pos, small_pos)
    @settings(max_examples=60, deadline=None)
    def test_hahn_matches_brute_force(self, m, x, a, b):
        N = 8
        assert hahn(m, x, a, b, N) == brute_hahn(m, x, a, b, N)

    def test_hahn_accepts_rational_and_negative_degree_slot(self):
        # shifted radial calls use fractional and negative N slots
        assert hahn(2, 3, R(1, 2), R(1, 3), R(17, 2)) == brute_hahn(
            2, 3, R(1, 2), R(1, 3), R(17, 2)
        )
        assert hahn(2, 3, R(1, 2), R(1, 3), R(-7, 2)) == brute_hahn(
            2, 3, R(1, 2), R(1, 3), R(-7, 2)
        )

    def test_hahn_raises_on_premature_pole(self):
        # degree slot N=3 cannot support degree 4
        with pytest.raises(ZeroDivisionError):
            hahn(4, 5, R(1), R(1), 3)

    def test_krawtchouk_degree_one(self):
        p, N = R(2, 5), 6
        for x in range(7):
            assert krawtchouk(1, x, p, N) == 1 - R(x) / (p * N)

    def test_meixner_degree_one(self):
        c, beta = R(1, 3), R(5, 2)
        for x in range(7):
            assert meixner(1, x, c, beta) == 1 + x * (1 - 1 / c) / beta

    def test_hahn_difference_equation(self):
        a, b, N = R(3, 2), R(5, 4), 6
        for m in range(5):
            for x in range(N + 1):
                lhs = (N - x) * (x + a) * (
                    hahn(m, x, a, b, N) - hahn(m, x + 1, a, b, N)
                ) + R(x) * (N - x + b) * (hahn(m, x, a, b, N) - hahn(m, x - 1, a, b, N))
                assert lhs == R(m) * (m + a + b - 1) * hahn(m, x, a, b, N)

    def test_single_variable_forward_shift(self):
        a, b, N = R(3, 2), R(5, 4), 7
        for m in range(1, 6):
            for x in range(N + 1):
                lhs = hahn(m, x, a, b, N) - hahn(m, x + 1, a, b, N)
                rhs = R(m) * (m + a + b - 1) / (a * N) * hahn(
                    m - 1, x, a + 1, b + 1, N - 1
                )
                assert lhs == rhs

    def test_single_variable_backward_shift(self):
        a, b, N = R(3, 2), R(5, 4), 7
        for m in range(0, 6):
            for x in range(N + 1):
                lhs = (N - x) * (x + a) * hahn(m, x, a + 1, b + 1, N - 1) - R(x) * (
                    N - x + b
                ) * hahn(m, x - 1, a + 1, b + 1, N - 1)
                assert lhs == a * N * hahn(m + 1, x, a, b, N)


class TestPairPolynomials:
    def test_degree_zero_and_one(self):
        al, ga = R(1, 2), R(7, 3)
        assert hahn_pair(0, 4, 5, al, ga) == 1
        for u in range(4):
            for v in range(4):
                assert hahn_pair(1, u, v, al, ga) == al * v - ga * u
                assert km_pair(1, u, v, al, ga) == (ga / al) * u - v

    @pytest.mark.parametrize("m", range(9))
    def test_special_value_hahn(self, m):
        al, ga = R(2, 3), R(5, 4)
        want = R(-1) ** m * math.factorial(m) * rising_factorial(ga, m)
        assert hahn_pair(m, m, 0, al, ga) == want

    @pytest.mark.parametrize("m", range(9))
    def test_special_value_km(self, m):
        al, ga = R(2, 3), R(5, 4)
        assert km_pair(m, 0, m, al, ga) == R(-1) ** m * math.factorial(m)

    def test_km_pair_two_term_sum(self):
        al, ga = R(1, 3), R(4, 5)
        for u in range(3):
            for v in range(3):
                assert km_pair(1, u, v, al, ga) == -R(v) + (ga / al) * u

    @pytest.mark.parametrize("family", ["hahn", "km"])
    def test_shift_relations(self, family):
        al, ga = R(1, 2), R(7, 3)
        box = 6
        for m in range(6):
            for u in range(box + 1):
                for v in range(box + 1 - u):
                    if family == "hahn":
                        if m >= 1:
                            lhs = hahn_pair(m, u, v + 1, al, ga) - hahn_pair(
                                m, u + 1, v, al, ga
                            )
                            rhs = R(m) * (m + al + ga - 1) * hahn_pair(
                                m - 1, u, v, al + 1, ga + 1
                            )
                            assert lhs == rhs
                        lhs = R(v) * (u + al) * hahn_pair(
                            m, u, v - 1, al + 1, ga + 1
                        ) - R(u) * (v + ga) * hahn_pair(m, u - 1, v, al + 1, ga + 1)
                        assert lhs == hahn_pair(m + 1, u, v, al, ga)
                    else:
                        if m >= 1:
                            lhs = km_pair(m, u, v + 1, al, ga) - km_pair(
                                m, u + 1, v, al, ga
                            )
                            rhs = -R(m) * (al + ga) / al * km_pair(m - 1, u, v, al, ga)
                            assert lhs == rhs
                        lhs = R(v) * al * km_pair(m, u, v - 1, al, ga) - R(
                            u
                        ) * ga * km_pair(m, u - 1, v, al, ga)
                        assert lhs == -al * km_pair(m + 1, u, v, al, ga)

    @pytest.mark.parametrize("family", ["hahn", "km"])
    def test_recursions(self, family):
        al, ga = R(3, 4), R(5, 3)
        box = 6
        for m in range(6):
            for u in range(box + 1):
                for v in range(box + 1 - u):
                    if family == "hahn":
                        P = lambda uu, vv: hahn_pair(m, uu, vv, al, ga)
                        fwd = (u + al) * P(u + 1, v) + (v + ga) * P(u, v + 1)
                        assert fwd == (u + v + al + ga + m) * P(u, v)
                    else:
                        P = lambda uu, vv: km_pair(m, uu, vv, al, ga)
                        fwd = al * P(u + 1, v) + ga * P(u, v + 1)
                        assert fwd == (al + ga) * P(u, v)
                    bwd = R(u) * P(u - 1, v) + R(v) * P(u, v - 1)
                    assert bwd == (R(u + v) - m) * P(u, v)

    @pytest.mark.parametrize("m", range(5))
    def test_alternative_hahn_form(self, m):
        # documented cross-check: away from the degenerate set u+v < m,
        # the pair polynomial equals (-1)^m (alpha)_m (-u-v)_m times the
        # single-variable Hahn polynomial with degree slot u+v.  The
        # observed constant is exactly (-1)^m.
        al, ga = R(1, 2), R(7, 3)
        for (u, v) in [(2, 3), (3, 1), (4, 2), (5, 0), (0, 5), (1, 3)]:
            if u + v < m:
                continue
            other = (
                rising_factorial(al, m)
                * rising_factorial(R(-(u + v)), m)
                * hahn(m, u, al, ga, u + v)
            )
            assert hahn_pair(m, u, v, al, ga) == R(-1) ** m * other


class TestRodrigues:
    def test_degree_zero_and_one(self):
        al, ga = R(1, 2), R(7, 3)
        t0 = pair_backward_table(0, al, ga, 4)
        assert all(v == 1 for v in t0.values)
        t1 = pair_backward_table(1, al, ga, 4)
        for (u, v), got in zip(t1.lattice.points, t1.values):
            assert got == al * v - ga * u

    @pytest.mark.parametrize(
        "alpha, gamma", [(R(1, 2), R(7, 3)), (R(3), R(1, 5)), (R(9, 7), R(2))]
    )
    def test_matches_closed_form(self, alpha, gamma):
        for m in range(7):
            table = pair_backward_table(m, alpha, gamma, 6)
            for (u, v), got in zip(table.lattice.points, table.values):
                assert got == hahn_pair(m, u, v, alpha, gamma)

    def test_sector_of_a_param_bundle(self):
        # sector 2 of a bundle: (alpha, gamma) = (a_2, a_{>2}) on the box of size N
        p = HahnParams((R(1), R(2), R(3)), R(2), 4)
        t = pair_backward_table(3, p.a[1], p.a_tail(2), p.N)
        for (u, v), got in zip(t.lattice.points, t.values):
            assert got == hahn_pair(3, u, v, R(2), R(3))

    @pytest.mark.parametrize(
        "alpha, gamma", [(R(1, 2), R(7, 3)), (R(3), R(1, 5)), (R(-3, 2), R(2, 5))])
    def test_integer_chain_matches_fraction_chain(self, alpha, gamma):
        for m in range(7):
            table = pair_backward_table(m, alpha, gamma, 5)
            oracle = fraction_backward_table(m, alpha, gamma, 5)
            assert table == oracle
            nums, den = integer_scaled(oracle.values)
            assert table.integer_form() == (tuple(nums), den)


def fraction_backward_table(m, alpha, gamma, box, level_shift=0):
    """The backward-shift chain one Fraction at a time, the reference for the
    integer chain of pair_backward_table; ``level_shift`` moves the
    parameters of every level, a chain that must miss the pair polynomial."""
    alpha, gamma = R(alpha), R(gamma)
    lattice = Lattice(2, box)
    values = {pt: R(1) for pt in lattice.points}
    for level in range(1, m + 1):
        al = alpha + m - level + level_shift
        ga = gamma + m - level + level_shift
        new = {}
        for (u, v) in lattice.points:
            acc = R(0)
            if v:
                acc += v * (u + al) * values[(u, v - 1)]
            if u:
                acc -= u * (v + ga) * values[(u - 1, v)]
            new[(u, v)] = acc
        values = new
    return LatticeFunction(lattice, *integer_scaled([values[pt] for pt in lattice.points]))


class TestMultivariate:
    hahn_params = HahnParams((R(1, 2), R(3, 2), R(2)), R(5, 4), 5)
    kraw_params = KrawtchoukParams((R(1, 3), R(1, 2), R(1, 4)), 5)
    meix_params = MeixnerParams((R(1, 4), R(1, 4)), R(2))

    def test_degree_zero_is_one(self):
        for x in enumerate_lattice(3, 5):
            assert eigenpoly((0, 0, 0), x, self.hahn_params) == 1
            assert eigenpoly((0, 0, 0), x, self.kraw_params) == 1
        for x in enumerate_lattice(2, 6):
            assert eigenpoly((0, 0), x, self.meix_params) == 1

    def test_radial_reduction(self):
        p = self.hahn_params
        A = p.a_total
        for x in enumerate_lattice(3, 5):
            want = hahn(1, sum(x), A, p.b, p.N)
            assert eigenpoly((1, 0, 0), x, p) == want
            assert want == 1 - (A + p.b) * sum(x) / (A * p.N)
        pk = self.kraw_params
        AK = pk.a_total
        for x in enumerate_lattice(3, 5):
            assert eigenpoly((1, 0, 0), x, pk) == krawtchouk(
                1, sum(x), AK / (AK + 1), pk.N
            )
        pm = self.meix_params
        for x in enumerate_lattice(2, 6):
            assert eigenpoly((1, 0), x, pm) == meixner(
                1, sum(x), pm.a_total, pm.beta
            )

    def test_top_sector_degree_one(self):
        # m = (0,...,0,1) is a_{n-1} x_n - a_n x_{n-1}
        p = self.hahn_params
        for x in enumerate_lattice(3, 5):
            assert eigenpoly((0, 0, 1), x, p) == p.a[1] * x[2] - p.a[2] * x[1]

    def test_pair_product_trivial_cases(self):
        p = self.hahn_params
        x = (1, 2, 1)
        assert pair_product(1, (0, 0, 0), x, p) == 1
        # top sector: single factor, empty shift sums
        assert pair_product(2, (0, 0, 2), x, p) == hahn_pair(
            2, x[1], x[2], p.a[1], p.a[2]
        )

    def test_pair_product_composed_shifts(self):
        p = self.hahn_params
        m = (0, 1, 1)
        for x in enumerate_lattice(3, 5):
            inner = hahn_pair(1, x[1], x[2], p.a[1], p.a[2])
            outer = hahn_pair(1, x[0], x[1] + x[2] - 1, p.a[0], p.a_tail(1) + 2)
            assert pair_product(1, m, x, p) == inner * outer

    def test_krawtchouk_pair_product_keeps_parameters(self):
        p = self.kraw_params
        m = (0, 1, 1)
        for x in enumerate_lattice(3, 5):
            inner = km_pair(1, x[1], x[2], p.a[1], p.a[2])
            outer = km_pair(1, x[0], x[1] + x[2] - 1, p.a[0], p.a_tail(1))
            assert pair_product(1, m, x, p) == inner * outer

    def test_rejects_bad_degree_index(self):
        with pytest.raises(ValueError):
            eigenpoly((3, 2, 1), (0, 0, 0), self.hahn_params)  # |m| > N
        with pytest.raises(ValueError):
            eigenpoly((1, 1), (0, 0, 0), self.hahn_params)  # wrong length
        with pytest.raises(ValueError):
            eigenvalue(self.hahn_params, "exchange", 3, (0, 0, 0))

    def test_eigenvalue_formulas(self):
        p = self.hahn_params
        A, b = p.a_total, p.b
        assert eigenvalue(p, "total", None, (1, 1, 0)) == 2 * (2 + A + b - 1)
        # exchange eigenvalues use the partial degree sum only
        assert eigenvalue(p, "exchange", 1, (1, 1, 0)) == 1 * (1 + A - 1)
        assert eigenvalue(p, "exchange", 2, (1, 1, 0)) == 0
        assert eigenvalue(p, "exchange", 2, (0, 1, 2)) == 2 * (
            2 + p.a[1] + p.a[2] - 1
        )
        assert eigenvalue(p, "single", None, (1, 1, 0)) == eigenvalue(
            p, "total", None, (1, 1, 0)
        ) - eigenvalue(p, "exchange", 1, (1, 1, 0))
        pk = self.kraw_params
        assert eigenvalue(pk, "total", None, (2, 0, 1)) == 3 * (pk.a_total + 1)
        assert eigenvalue(pk, "exchange", 2, (2, 0, 1)) == pk.a[1] + pk.a[2]
        pm = self.meix_params
        assert eigenvalue(pm, "total", None, (1, 1)) == 2 * (1 - pm.a_total)
        assert eigenvalue(pm, "exchange", 1, (1, 1)) == -(pm.a[0] + pm.a[1])

    def test_eigenpoly_dispatch(self):
        # pair factors times the family's radial factor, with s1 = |m| - m_0 = 1
        p, pk, pm = self.hahn_params, self.kraw_params, self.meix_params
        A, AK, AM = p.a_total, pk.a_total, pm.a_total
        for x in enumerate_lattice(3, 5):
            pairs = pair_product(1, (1, 1, 0), x, p)
            assert eigenpoly((1, 1, 0), x, p) == pairs * hahn(
                1, sum(x) - 1, A + 2, p.b, p.N - 1
            )
            pairs = pair_product(1, (1, 1, 0), x, pk)
            assert eigenpoly((1, 1, 0), x, pk) == pairs * krawtchouk(
                1, sum(x) - 1, AK / (AK + 1), pk.N - 1
            )
        for x in enumerate_lattice(2, 6):
            pairs = pair_product(1, (1, 1), x, pm)
            assert eigenpoly((1, 1), x, pm) == pairs * meixner(
                1, sum(x) - 1, AM, pm.beta + 1
            )
        with pytest.raises(TypeError):
            eigenpoly((0, 0), (0, 0), object())

    def test_rejects_point_of_wrong_dimension(self):
        p = HahnParams((1, 2), 2, 5)
        with pytest.raises(ValueError):
            eigenpoly((1, 1), (1, 2, 3), p)
        with pytest.raises(ValueError):
            pair_product(1, (1, 1), (1, 2, 3), p)
        with pytest.raises(ValueError):
            eigenpoly((0, 1, 0), (1, 2), self.kraw_params)


def pair_product(i, m, x, params):
    """Pair factors i..n-1 of P_m at x: P_m with m_0..m_{i-1} set to 0."""
    if not 1 <= i <= params.n - 1:
        raise ValueError(f"sector index i = {i} outside [1, {params.n - 1}]")
    return eigenpoly((0,) * i + tuple(m[i:]), x, params)


def oracle_tables(degrees, params, lattice):
    """The term-by-term oracle, point by point: the reference for the tables."""
    return [
        table_of(lattice, lambda x, m=m: oracle_eigenpoly(m, x, params))
        for m in degrees
    ]


def all_slot_tables(degrees, params, lattice):
    """The tables as the product of all n slots of P_m at every point, the
    degree-0 slots included."""
    points = lattice.points
    tables = []
    for m in degrees:
        nums, den = params.radial_slot(m[0], sum(m[1:]), [sum(x) for x in points])
        for j in range(1, params.n):
            fnums, fden = params.pair_slot(j, m[j], sum(m[j + 1:]),
                                           [(x[j - 1], sum(x[j:])) for x in points])
            nums, den = [u * v for u, v in zip(nums, fnums)], den * fden
        tables.append(LatticeFunction(lattice, nums, den))
    return tables


class TestTables:
    @pytest.mark.parametrize(
        "params, xmax",
        [
            (HahnParams((R(1, 2), R(3, 2), R(2)), R(5, 4), 5), None),
            (KrawtchoukParams((R(1, 3), R(1, 2), R(1, 4)), 5), None),
            (MeixnerParams((R(1, 4), R(1, 4)), R(2)), 6),
            # truncated box with a non-integer beta
            (MeixnerParams((R(1, 5), R(1, 7), R(1, 4)), R(5, 2)), 4),
        ],
    )
    def test_tables_match_pointwise_evaluator(self, params, xmax):
        lattice = family_lattice(params, xmax=xmax)
        degrees = enumerate_degrees(params.n, 3)
        tables = eigenpoly_tables(degrees, params, lattice)
        oracle = [t.values for t in oracle_tables(degrees, params, lattice)]
        assert [t.values for t in tables] == oracle
        assert [tuple(eigenpoly(m, x, params) for x in lattice.points)
                for m in degrees] == oracle
        assert all(t.lattice is lattice for t in tables)
        assert eigenpoly_table(degrees[-1], params, lattice) == tables[-1]

    @given(st.sampled_from(["hahn", "krawtchouk", "meixner"]), st.integers(2, 3),
           st.data())
    # no shrinking: on a broken kernel every draw fails, and shrinking one
    # (each step rebuilds 20 tables and their oracle) took minutes
    @settings(max_examples=12, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    def test_tables_match_pointwise_evaluator_random(self, family, n, data):
        a = tuple(data.draw(small_pos) for _ in range(n))
        if family == "hahn":
            params = HahnParams(a, data.draw(small_pos), n + 1)
        elif family == "krawtchouk":
            params = KrawtchoukParams(a, n + 1)
        else:
            params = MeixnerParams(tuple(v / (n * 11) for v in a), data.draw(small_pos))
        lattice = family_lattice(params, xmax=n + 1)
        degrees = enumerate_degrees(n, 3)
        tables = eigenpoly_tables(degrees, params, lattice)
        assert [t.values for t in tables] == [
            t.values for t in oracle_tables(degrees, params, lattice)
        ]

    @pytest.mark.parametrize("params, xmax", ORACLE_CASES)
    def test_slot_tables_equal_pointwise_eigenpoly(self, params, xmax, monkeypatch):
        """Tables built from integer factor slots equal the term-by-term
        oracle at every point for every |m| <= 3, and their integer form is
        the values over their lcm denominator.  On the n = 3 cases the pair slots read
        v = x_{>j} - shift down to -2 (pair slot 1 of m = (0, 1, 2)); the nested
        tables never evaluate a degree-0 slot, such as pair slot 1 of (0, 0, 3) at
        v = -3.  The top pair (n = 2) has no shift."""
        family = type(params)
        pair_slot, reads = family.pair_slot, []

        def recorded(self, j, mj, shift, args):
            reads.extend(t - shift for _, t in args)
            return pair_slot(self, j, mj, shift, args)

        monkeypatch.setattr(family, "pair_slot", recorded)
        lattice = family_lattice(params, xmax=xmax)
        degrees = enumerate_degrees(params.n, 3)
        tables = eigenpoly_tables(degrees, params, lattice)
        assert min(reads) == (-2 if params.n == 3 else 0)
        for m, table in zip(degrees, tables):
            nums, den = integer_scaled(table.values)
            assert table.integer_form() == (tuple(nums), den)
            assert table.values == tuple(oracle_eigenpoly(m, x, params) for x in lattice.points)

    @pytest.mark.parametrize("params", [
        HahnParams((R(1), R(2), R(3, 2)), R(2), 6), KrawtchoukParams((R(1, 2), R(1, 3), R(2)), 6),
        HahnParams((R(1), R(2), R(3), R(1, 2)), R(2), 5),
        KrawtchoukParams((R(1, 2), R(1, 3), R(2), R(3, 2)), 5),
        MeixnerParams((R(1, 8), R(1, 8), R(1, 4)), R(5, 2)),
    ], ids=lambda p: p.label)
    def test_tables_equal_the_all_slot_product(self, params):
        """Every table of |m| <= N (|m| <= 5 on the Meixner box xmax = 5)
        equals the product of its radial slot and every pair slot, degree-0
        slots included, at every point: the oracle of the nesting P_m = slot
        p times P_hat.  Built in graded order the hats are held from earlier
        in the call; in reverse order each hat is built first and read from
        the held forms later."""
        lattice = family_lattice(params, xmax=5)
        degrees = enumerate_degrees(params.n, params.N or 5)
        oracle = all_slot_tables(degrees, params, lattice)
        assert eigenpoly_tables(degrees, params, lattice) == oracle
        assert eigenpoly_tables(degrees[::-1], params, lattice) == oracle[::-1]

    def test_tables_reject_bad_input(self):
        p = TestMultivariate.hahn_params
        lattice = family_lattice(p)
        with pytest.raises(ValueError):
            eigenpoly_tables([(0, 0, 0)], p, Lattice(2, 5))
        with pytest.raises(ValueError):
            eigenpoly_tables([(3, 2, 1)], p, lattice)  # |m| > N
        with pytest.raises(TypeError):
            eigenpoly_tables([(0, 0)], object(), Lattice(2, 3))
        assert eigenpoly_tables([], p, lattice) == []


# ---------------------------------------------------------------------------
# pointwise reference: the term-by-term closed forms that the cached
# coefficient rows replaced, kept here as the slow oracle


def terminating_sum(m, num_factors, den_factors, z=None):
    """Sum_{k=0..m} term_k with term ratios built from linear factors.

    A zero numerator factor terminates the sum; a zero denominator factor
    before that is a genuine pole and raises.
    """
    total = term = R(1)
    for k in range(1, m + 1):
        num = math.prod((f(k - 1) for f in num_factors), start=R(1))
        if num == 0:
            break
        den = math.prod((f(k - 1) for f in den_factors), start=R(1))
        if den == 0:
            raise ZeroDivisionError(f"pole at k = {k}")
        term = term * num / den
        if z is not None:
            term *= R(z)
        total += term
    return total


def fraction_series_row(m, upper, lower, z):
    """The Fraction recurrence of ``polynomials._series_row``, parameters and
    z as rationals: c_{j+1} = c_j (j - m) prod (u + j) z / ((j + 1) prod (l + j))."""
    row, pole = [R(1)], None
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


def fraction_hahn_pair_row(m, alpha, gamma):
    """The Fraction recurrence of ``polynomials._hahn_pair_row``."""
    tails = [R(1)]  # (gamma+k)_{m-k}, from k = m down to 0
    for k in range(m - 1, -1, -1):
        tails.append(tails[-1] * (gamma + k))
    row, heads = [], R(1)  # heads = (alpha+m-k)_k
    for k in range(m + 1):
        if k:
            heads *= alpha + m - k
        c = math.comb(m, k) * tails[m - k] * heads
        row.append(-c if k % 2 else c)
    nums, den = integer_scaled(row)
    return tuple(nums), den


def fraction_km_pair_row(m, ratio):
    """The Fraction form of ``polynomials._km_pair_row``."""
    nums, den = integer_scaled([math.comb(m, k) * (-ratio) ** k for k in range(m + 1)])
    return tuple(nums), den


def oracle_hahn(m, x, a, b, N):
    a, b, N, x = R(a), R(b), R(N), R(x)
    return terminating_sum(
        m,
        (lambda j: -m + j, lambda j: m + a + b - 1 + j, lambda j: -x + j),
        (lambda j: a + j, lambda j: -N + j, lambda j: j + 1),
    )


def oracle_krawtchouk(m, x, p, N):
    x, N = R(x), R(N)
    return terminating_sum(m, (lambda j: -m + j, lambda j: -x + j),
                           (lambda j: -N + j, lambda j: j + 1), z=1 / R(p))


def oracle_meixner(m, x, c, beta):
    x, beta = R(x), R(beta)
    return terminating_sum(m, (lambda j: -m + j, lambda j: -x + j),
                           (lambda j: beta + j, lambda j: j + 1), z=1 - 1 / R(c))


def oracle_hahn_pair(m, u, v, alpha, gamma):
    u, v, alpha, gamma = R(u), R(v), R(alpha), R(gamma)
    return sum((R(-1) ** k * math.comb(m, k)
                * rising_factorial(gamma + k, m - k) * rising_factorial(alpha + m - k, k)
                * rising_factorial(-u, m - k) * rising_factorial(-v, k)
                for k in range(m + 1)), R(0))


def oracle_km_pair(m, u, v, alpha, gamma):
    u, v, ratio = R(u), R(v), R(gamma) / R(alpha)
    return sum((R(-1) ** k * math.comb(m, k) * ratio**k
                * rising_factorial(-u, k) * rising_factorial(-v, m - k)
                for k in range(m + 1)), R(0))


def oracle_pair_factor(params, j, mj, shift, u, t):
    """Pair factor j of degree mj at (x_j, x_{>j}) = (u, t), with shift =
    sum_{k>j} m_k, read at (u, t - shift); Hahn moves the tail slot to
    a_{>j} + 2 shift, Krawtchouk and Meixner keep a_{>j}."""
    if params.family == "hahn":
        return oracle_hahn_pair(mj, u, t - shift, params.a[j - 1], params.a_tail(j) + 2 * shift)
    return oracle_km_pair(mj, u, t - shift, params.a[j - 1], params.a_tail(j))


def oracle_radial(params, m0, s1, size):
    """Radial factor of P_m at |x| = size, with s1 = |m| - m_0."""
    A = params.a_total
    if params.family == "hahn":
        return oracle_hahn(m0, size - s1, A + 2 * s1, params.b, params.N - s1)
    if params.family == "krawtchouk":
        return oracle_krawtchouk(m0, size - s1, A / (A + 1), params.N - s1)
    return oracle_meixner(m0, size - s1, A, params.beta + s1)


def oracle_eigenpoly(m, x, params):
    """P_m(x) term by term: the pair factors times the radial factor, with each
    family's factor parameters written out here rather than read from it."""
    out = oracle_radial(params, m[0], sum(m[1:]), sum(x))
    for j in range(1, params.n):
        out *= oracle_pair_factor(params, j, m[j], sum(m[j + 1:]), x[j - 1], sum(x[j:]))
    return out


def oracle_eigenvalue(params, kind, index, m):
    """The paper's closed forms, with each family's block constants written
    out here: lam(d, c) = d (d + c - 1) (Hahn), d c (Krawtchouk) or -d c
    (Meixner), at d = |m| and c = |a| + b, |a| + 1 or |a| - 1 on total, at
    d = S_i = m_i + ... + m_{n-1} and c = a_i + ... + a_n on exchange(i);
    single is total - exchange(1)."""
    A = params.a_total
    lam, c = {"hahn": (lambda d, c: d * (d + c - 1), A + getattr(params, "b", 0)),
              "krawtchouk": (lambda d, c: d * c, A + 1),
              "meixner": (lambda d, c: -d * c, A - 1)}[params.family]
    if kind == "exchange":
        return lam(sum(m[index:]), sum(params.a[index - 1:]))
    total = lam(sum(m), c)
    return total if kind == "total" else total - oracle_eigenvalue(params, "exchange", 1, m)


@st.composite
def eigen_cases(draw):
    """A Hahn, Krawtchouk or Meixner bundle with n = 2..4 and a degree |m| <= 6."""
    n = draw(st.integers(2, 4))
    m, left = [], draw(st.integers(0, 6))
    for _ in range(n - 1):
        m.append(draw(st.integers(0, left)))
        left -= m[-1]
    m = draw(st.permutations(m + [left]))
    a = tuple(draw(small_pos) for _ in range(n))
    family = draw(st.sampled_from(["hahn", "krawtchouk", "meixner"]))
    if family == "meixner":
        return MeixnerParams(tuple(v / (n * 11) for v in a), draw(small_pos)), m
    N = draw(st.integers(max(n + 1, sum(m)), 9))
    if family == "hahn":
        return HahnParams(a, draw(small_pos), N), m
    return KrawtchoukParams(a, N), m


@given(eigen_cases())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_eigenvalues_from_the_rate_form_equal_the_closed_forms(case):
    """The eigenvalues derived from the rate form equal the closed forms on
    every operator: total, single and each exchange(i)."""
    params, m = case
    ops = [("total", None), ("single", None)] + [("exchange", i) for i in range(1, params.n)]
    for kind, index in ops:
        assert (outcome(eigenvalue, params, kind, index, m)
                == outcome(oracle_eigenvalue, params, kind, index, m))


def outcome(fn, *args):
    """(value, its type), or ZeroDivisionError if that is raised; the oracle's
    values are Fractions, so equal outcomes mean equal Fraction values."""
    try:
        value = fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError
    return value, type(value)


class TestRowKernelsMatchOracle:
    # integral and non-integral (alpha, gamma), read at u, v = -1 too
    PAIR_PARAMS = [(R(1), R(2)), (R(3), R(5)), (R(1, 2), R(7, 3)), (R(9, 7), R(4)),
                   (R(-3, 2), R(2, 5))]
    # integer x, and rational or negative degree slots as the shifted radial
    # factors and the limit checks pass them
    POINTS = list(range(-2, 11))

    @pytest.mark.parametrize("alpha, gamma", PAIR_PARAMS)
    def test_pair_polynomials(self, alpha, gamma):
        for m in range(8):
            for u in range(-1, 9):
                for v in range(-1, 9):
                    for fast, slow in ((hahn_pair, oracle_hahn_pair),
                                       (km_pair, oracle_km_pair)):
                        assert outcome(fast, m, u, v, alpha, gamma) == outcome(
                            slow, m, u, v, alpha, gamma)

    @pytest.mark.parametrize("alpha, gamma", PAIR_PARAMS)
    def test_pair_sums(self, alpha, gamma):
        """The pair sums at any integer points, in the order given, repeats
        and v far below -1 included, as the shifted pair slots read them."""
        points = [(u, v) for u in (3, 0, 5, 1) for v in (2, -4, 0, -1, 6, -2, 2)]
        for m in range(6):
            for sums_of, fn in ((hahn_pair_sums, hahn_pair), (km_pair_sums, km_pair)):
                nums, den = sums_of(m, alpha, gamma, points)
                assert [R(v, den) for v in nums] == [fn(m, u, v, alpha, gamma)
                                                    for u, v in points]
        with pytest.raises(ValueError, match="alpha"):
            km_pair_sums(1, 0, 1, points)

    def test_krawtchouk_and_meixner_grids(self):
        xs = [*range(12), -1, -3, 4]
        for m in range(7):  # the Krawtchouk row meets its pole at k = N + 1 = 7
            for grid_of, fn, args in ((krawtchouk_grid, krawtchouk, (R(2, 5), 6)),
                                      (krawtchouk_grid, krawtchouk, (R(3), R(9, 2))),
                                      (meixner_grid, meixner, (R(1, 3), R(5, 2))),
                                      (meixner_grid, meixner, (R(3, 4), R(7)))):
                nums, den = grid_of(m, *args, xs)
                assert [R(v, den) for v in nums] == [fn(m, x, *args) for x in xs]

    @pytest.mark.parametrize("a, b, N", [
        (R(1), R(2), 10), (R(3, 2), R(5, 4), 7), (R(1, 2), R(1, 3), R(-7, 2)),
        (R(-1), R(2), 10), (R(-2), R(-1), -4)])
    def test_hahn_grid(self, a, b, N):
        xs = [*range(12), -1, -2]
        for m in range(8):
            expected = [outcome(hahn, m, x, a, b, N) for x in xs]
            if ZeroDivisionError in expected:
                with pytest.raises(ZeroDivisionError):
                    hahn_grid(m, a, b, N, xs)
                continue
            nums, den = hahn_grid(m, a, b, N, xs)
            assert [outcome(lambda: R(v, den)) for v in nums] == expected

    def test_hahn_grid_raises_only_where_the_points_meet_the_pole(self):
        # (a)_k = (-1)_k vanishes at k = 2: x = 0, 1 terminate before it
        nums, den = hahn_grid(3, -1, 2, 10, [0, 1])
        assert [R(v, den) for v in nums] == [1, R(19, 10)]
        for x in (2, 10, -1):
            with pytest.raises(ZeroDivisionError, match="k = 2"):
                hahn_grid(3, -1, 2, 10, [0, 1, x])

    def test_evaluators_refuse_non_integral_points(self):
        """Every value is an integer sum of a kernel, so a point off the
        integers raises ValueError in all six evaluators; rational
        parameters stay allowed."""
        p = HahnParams((R(1, 2), R(3, 2)), R(5, 4), 5)
        for q in (R(1, 2), R(7, 3), R(-5, 2), R(13, 4)):
            for fn, args in ((hahn, (2, q, R(1, 2), R(1, 3), R(17, 2))),
                             (krawtchouk, (2, q, R(2, 5), 6)),
                             (meixner, (2, q, R(1, 3), R(5, 2))),
                             (hahn_pair, (2, q, 3, R(1, 2), R(7, 3))),
                             (hahn_pair, (2, 3, q, R(1, 2), R(7, 3))),
                             (km_pair, (2, q, 3, R(1, 2), R(7, 3))),
                             (km_pair, (2, 3, q, R(1, 2), R(7, 3))),
                             (eigenpoly, ((1, 1), (q, 1), p)),
                             (eigenpoly, ((0, 0), (1, q), p))):
                with pytest.raises(ValueError, match="not an integer"):
                    fn(*args)

    @pytest.mark.parametrize("a, b, N", [
        (R(1), R(2), 10), (R(3, 2), R(5, 4), 7), (R(1, 2), R(1, 3), R(17, 2)),
        (R(1, 2), R(1, 3), R(-7, 2)), (R(2), R(1), 3), (R(-1), R(2), 10),
        (R(-3, 2), R(2), R(-5, 2)), (R(-2), R(-1), -4)])
    def test_hahn(self, a, b, N):
        for m in range(8):
            for x in self.POINTS:
                assert outcome(hahn, m, x, a, b, N) == outcome(oracle_hahn, m, x, a, b, N)

    @pytest.mark.parametrize("p, N", [(R(2, 5), 6), (R(3), R(9, 2)), (R(-1, 3), 4),
                                      (R(1, 2), -3)])
    def test_krawtchouk(self, p, N):
        for m in range(8):
            for x in self.POINTS:
                assert outcome(krawtchouk, m, x, p, N) == outcome(
                    oracle_krawtchouk, m, x, p, N)

    @pytest.mark.parametrize("c, beta", [(R(1, 3), R(5, 2)), (R(1), R(2)), (R(-2), R(-3)),
                                         (R(3, 4), R(-5, 2)), (R(1, 5), R(7))])
    def test_meixner(self, c, beta):
        for m in range(8):
            for x in self.POINTS:
                assert outcome(meixner, m, x, c, beta) == outcome(
                    oracle_meixner, m, x, c, beta)

    def test_pole_raises_for_the_same_points(self):
        # (a)_k = (-1)_k vanishes at k = 2: only x = 0, 1 terminate before it
        assert hahn(3, 0, -1, 2, 10) == 1
        assert hahn(3, 1, -1, 2, 10) == R(19, 10)
        for x in list(range(2, 11)) + [-1]:
            with pytest.raises(ZeroDivisionError):
                hahn(3, x, -1, 2, 10)
            with pytest.raises(ZeroDivisionError):
                oracle_hahn(3, x, -1, 2, 10)


signed_small = st.builds(R, st.integers(-7, 7), st.integers(1, 4))


def pair(q):
    return q.numerator, q.denominator


class TestIntegerRows:
    """The int rows equal the Fraction recurrences they replaced, as the
    unique reduced form: den > 0 and gcd(den, *nums) = 1."""

    @given(st.integers(0, 8), signed_small, signed_small, signed_small, signed_small)
    @example(3, R(1), R(-4), R(10), R(1))  # (m + a + b - 1 + j) vanishes at j = 1
    @example(3, R(-1), R(2), R(10), R(1))  # pole of (a)_k at a = -1
    @example(7, R(1), R(1), R(6), R(2, 5))  # Krawtchouk pole at k = N + 1
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_int_rows_equal_the_fraction_rows(self, m, a, b, c, d):
        rows = [(P._hahn_row(m, a, b, c), fraction_series_row(m, (m + a + b - 1,), (a, -c), R(1))),
                (P._hahn_pair_row(m, pair(a), pair(b)), fraction_hahn_pair_row(m, a, b))]
        if d:
            rows += [(P._krawtchouk_row(m, d, c), fraction_series_row(m, (), (-c,), 1 / d)),
                     (P._meixner_row(m, d, c), fraction_series_row(m, (), (c,), 1 - 1 / d)),
                     (P._km_row(m, d, a), fraction_km_pair_row(m, a / d))]
        for row, oracle in rows:
            assert row == oracle
            nums, den = row[:2]
            assert den > 0 and math.gcd(den, *nums) == 1

    def test_the_examples_stop_their_rows_early(self):
        """Each example above stops its row where its comment says."""
        nums, _, pole = P._hahn_row(3, R(1), R(-4), 10)
        assert (len(nums), pole) == (2, None)
        assert P._hahn_row(3, R(-1), R(2), 10)[2] == 1
        assert P._krawtchouk_row(7, R(2, 5), 6)[2] == 6

    def test_the_row_path_forms_no_fraction(self, monkeypatch):
        """The uncached row bodies form no Fraction; an equal parameter given
        as an int and as a Fraction is one cache key."""
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        for m in range(6):
            P._series_row.__wrapped__(m, ((7, 2),), ((1, 3), (-5, 1)), (1, 1))
            P._series_row.__wrapped__(m, (), ((-2, 1),), (-5, 2))  # pole at j = 2
            P._series_row.__wrapped__(m, ((-1, 1),), ((1, 2),), (0, 1))  # stops at j = 1
            P._hahn_pair_row.__wrapped__(m, (3, 2), (-7, 3))
            P._km_pair_row.__wrapped__(m, (-4, 9))
        assert made == []
        R(1, 2)
        assert made == [(1, 2)]
        monkeypatch.undo()

        for builder, calls in ((P._hahn_pair_row,
                                lambda q: hahn_pair_sums(2, q, R(5, 2), [(1, 1)])),
                               (P._series_row, lambda q: hahn_grid(2, q, R(1, 2), q + 2, [0])),
                               (P._km_pair_row, lambda q: km_pair_sums(2, q, 2 * q, [(1, 1)]))):
            builder.cache_clear()
            calls(3)
            calls(R(3))
            assert builder.cache_info()[:2] == (1, 1)

    def test_the_evaluators_still_read_strings_and_refuse_floats(self):
        cases = [(hahn, (2, 1), ("1/2", "1/3", "5"), (R(1, 2), R(1, 3), 5)),
                 (krawtchouk, (2, 1), ("2/5", "6"), (R(2, 5), 6)),
                 (meixner, (2, 1), ("1/3", "5/2"), (R(1, 3), R(5, 2))),
                 (hahn_pair, (2, 1, 2), ("1/2", "7/3"), (R(1, 2), R(7, 3))),
                 (km_pair, (2, 1, 2), ("1/2", "7/3"), (R(1, 2), R(7, 3)))]
        for fn, head, text, exact in cases:
            assert fn(*head, *text) == fn(*head, *exact)
            with pytest.raises(TypeError, match="not exact"):
                fn(*head, 0.5, *exact[1:])
