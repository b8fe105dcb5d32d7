import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvortho import (R, HahnParams, KrawtchoukParams, LatticeFunction, MeixnerParams,
                     OperatorMatrix, WeightTable, eigenpoly, eigenpoly_tables, eigenvalue,
                     gram_matrix, weight_table)
from mvortho import verify as V
from mvortho._backend import integer_scaled
from mvortho.core import (Lattice, enumerate_degrees, enumerate_lattice, family_lattice,
                          rising_factorial)
from mvortho.measures import lattice_inner_product, meixner_moments, meixner_normalization
from test_core import table_of
from test_measures import oracle_meixner_weight, rising_over_factorial_coeffs, tail_power_sum
from test_operators import (form_down_rate, form_up_rate, forward_differences,
                            perturb_birth_rate)

HAHN = HahnParams((R(1), R(2), R(3)), R(2), 4)
HAHN2 = HahnParams((R(1), R(2)), R(3), 4)
KRAW = KrawtchoukParams((R(1, 3), R(1, 2), R(1, 4)), 4)
MEIX = MeixnerParams((R(1, 4), R(1, 4)), R(2))


def test_normalization_reports():
    assert V.normalization_check(V.SuiteContext(HAHN)).status == "pass"
    assert V.normalization_check(V.SuiteContext(KRAW)).status == "pass"
    r = V.normalization_check(V.SuiteContext(MEIX, xmax=12))
    assert r.status == "pass"
    assert "bound" in r.detail


def test_compatibility_and_boundary():
    for params, xmax in ((HAHN, None), (KRAW, None), (MEIX, 8)):
        assert V.compatibility_check(V.SuiteContext(params, xmax=xmax)).status == "pass"
    assert V.boundary_safety_check(V.SuiteContext(HAHN)).status == "pass"
    assert V.boundary_safety_check(V.SuiteContext(MEIX)).status == "skipped"


def eigen_check(ctx, kind, m, index=None):
    """Residual of the eigenvalue equation for P_m under one operator, as a report."""
    def body():
        (table,) = ctx.tables([m])
        worst = V.residual_defects(ctx.stencil(kind, index),
                                   [table], [eigenvalue(ctx.params, kind, index, m)])[0]
        return V._exact([worst])

    return V._report("eigen", f"{ctx.params.label} m={tuple(m)}", body)


def test_eigen_check_single_instances():
    r = eigen_check(V.SuiteContext(HAHN), "total", (1, 1, 0))
    assert r.status == "pass" and r.max_defect == 0
    r = eigen_check(V.SuiteContext(HAHN), "exchange", (1, 1, 0), index=2)
    assert r.status == "pass"
    r = eigen_check(V.SuiteContext(MEIX, xmax=10), "total", (2, 1))
    assert r.status == "pass"


def test_eigen_check_m0_zero_mode():
    for kind, index in (("total", None), ("single", None), ("exchange", 1)):
        r = eigen_check(V.SuiteContext(HAHN), kind, (0, 0, 0), index=index)
        assert r.status == "pass" and r.max_defect == 0


def test_degree_one_total_eigenvalue_is_parameter_sum():
    # first excited eigenvalue of the total operator is |a| + b
    from mvortho import eigenvalue

    for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        assert eigenvalue(HAHN, "total", None, m) == HAHN.a_total + HAHN.b
        assert eigen_check(V.SuiteContext(HAHN), "total", m).status == "pass"


def test_eigen_suite_and_degeneracy():
    reports = V.eigen_suite(V.SuiteContext(HAHN2), 3)
    assert all(r.status == "pass" for r in reports)
    names = {r.name for r in reports}
    assert "eigen-suite" in names and "eigen-degeneracy" in names


def test_eigen_degeneracy_reads_the_total_stencil(monkeypatch):
    """Each P_m must show its degree's eigenvalue on the total stencil: a
    shifted eigenvalue, or a P_m that is no eigenfunction, fails the check."""
    assert V.eigen_degeneracy_check(V.SuiteContext(HAHN2), 3).status == "pass"
    ctx = V.SuiteContext(HAHN2)
    table = ctx.tables([(1, 1)])[0]
    nums, den = table.integer_form()
    ctx._memo["P_m", 4, (1, 1)] = LatticeFunction(table.lattice, [nums[0] + den, *nums[1:]], den)
    report = V.eigen_degeneracy_check(ctx, 3)
    assert report.status == "fail" and report.max_defect > 0
    monkeypatch.setattr(V, "eigenvalue", lambda *args: eigenvalue(*args) + R(1, 7))
    assert V.eigen_degeneracy_check(V.SuiteContext(HAHN2), 3).status == "fail"


def test_eigen_checks_form_each_eigenvalue_once_per_partial_degree(monkeypatch):
    """One eigenvalue per (operator, |m| or S_i): for n = 3, |m| <= 3, that is
    4 total, 4 exchange(1) and 4 exchange(2) values; single is no stencil of
    the suite, so none of its values is formed."""
    calls = []

    def counted(params, kind, index, m):
        calls.append((kind, index, tuple(m)))
        return eigenvalue(params, kind, index, m)

    monkeypatch.setattr(V, "eigenvalue", counted)
    params = KrawtchoukParams((R(1, 2), R(1, 3), R(2)), 6)
    reports = V.run_checks(params, ["eigen"])
    assert [r.status for r in reports] == ["pass", "pass"]
    kinds = [kind if index is None else f"{kind}{index}" for kind, index, _ in calls]
    assert sorted(kinds) == sorted(["total"] * 4 + ["exchange1"] * 4 + ["exchange2"] * 4)
    reports = V.run_suite(params)
    assert not any(r.status == "fail" for r in reports)


def test_the_context_refuses_single_eigenvalues():
    """The context keys an eigenvalue by the one partial degree its operator
    reads; single reads two and is no stencil of the checks, so it is refused."""
    ctx = V.SuiteContext(KrawtchoukParams((R(1, 2), R(1, 3), R(2)), 6))
    with pytest.raises(ValueError, match="total and exchange"):
        ctx.eigenvalue("single", None, (1, 0, 1))
    assert ctx.eigenvalue("total", None, (1, 0, 1)) == eigenvalue(ctx.params, "total", None,
                                                                   (1, 0, 1))


def test_wrong_eigenvalue_fails():
    from mvortho import OperatorSpec, eigenpoly_table, operator_matrix
    from mvortho.core import family_lattice

    lat = family_lattice(HAHN)
    table = eigenpoly_table((1, 0, 0), HAHN, lat)
    total = operator_matrix(OperatorSpec(HAHN, "total"), lat)
    defect = V.residual_defects(total, [table], [R(0)])[0]
    assert defect > 0


def test_type_one_checks():
    ctx = V.SuiteContext(HAHN)
    for J in ((1,), (2,), (1, 3), (1, 2, 3)):
        for m in (0, 1, 2):
            assert V.type_one_check(ctx, J, m).status == "pass"
    assert V.type_one_check(V.SuiteContext(KRAW), (2, 3), 2).status == "pass"
    assert V.type_one_check(V.SuiteContext(MEIX, xmax=10), (1,), 2).status == "pass"
    with pytest.raises(ValueError):
        V.type_one_check(ctx, (), 1)


def test_same_degree_type_one_not_orthogonal():
    r = V.same_degree_overlap_check(V.SuiteContext(HAHN), 2)
    assert r.status == "pass"
    assert "overlap" in r.detail


def test_perturbed_type_one_fails_type_one(monkeypatch):
    """P + 1 is no eigenfunction of H_total for m >= 1 (H 1 = 0, eigenvalue != 0)."""
    type_one = HahnParams.type_one

    def perturbed(self, m, aJ, sums):
        nums, den = type_one(self, m, aJ, sums)
        return [v + (den if m else 0) for v in nums], den

    monkeypatch.setattr(HahnParams, "type_one", perturbed)
    params = HahnParams((R(1), R(2), R(3)), R(2), 5)
    reports = [r for r in V.run_checks(params, ["type-one"]) if r.name == "type-one"]
    failed = [r for r in reports if r.status == "fail"]
    assert len(reports) == 28 and len(failed) == 21
    assert all(not r.instance.endswith("m=0") for r in failed)


def test_type_one_reports_time_the_residual_fill(monkeypatch):
    """The one kernel call that fills the type-one residuals counts toward
    the reports' time: a slow kernel shows in the sum of their wall times."""
    kernel = V.residual_defects

    def slow(*args):
        time.sleep(0.2)
        return kernel(*args)

    monkeypatch.setattr(V, "residual_defects", slow)
    reports = V.type_one_suite(V.SuiteContext(HAHN), 2)
    times = [r.wall_time for r in reports if r.name == "type-one"]
    assert sum(times) >= 0.2 and times[0] >= 0.2


def test_orthogonal_subset_tables_fail_type_one_overlap(monkeypatch):
    """Delta tables at a distinct point per subset are pairwise orthogonal."""
    points = {}

    def delta(self, J, m):
        at = self.lattice.points[points.setdefault(J, len(points))]
        return table_of(self.lattice, lambda x: R(int(x == at)))

    monkeypatch.setattr(V.SuiteContext, "type_one", delta)
    report = V.same_degree_overlap_check(V.SuiteContext(HAHN), 2)
    assert report.status == "fail" and "orthogonal" in report.detail
    assert len(points) == 7


def test_shift_and_recursion_reports():
    assert V.sv_shift_check(R(3, 2), R(5, 4), 7, 5).status == "pass"
    assert V.sv_difference_equation_check(R(3, 2), R(5, 4), 6, 5).status == "pass"
    for family, name in ((HahnParams, "hahn"), (KrawtchoukParams, "km"), (MEIX, "km")):
        r = V.pair_shift_check(R(1, 2), R(7, 3), 5, 6, family)
        assert r.status == "pass" and r.instance.startswith(f"{name}-pair")
        assert V.pair_recursion_check(R(3, 4), R(5, 3), 5, 6, family).status == "pass"


@pytest.mark.parametrize("params, xmax", [(HAHN, None), (KRAW, None), (MEIX, 8)])
def test_generalized_recursions(params, xmax):
    ctx = V.SuiteContext(params, xmax=xmax)
    for i in range(1, params.n):
        for m in ((0,) * params.n, (0, 1) + (2,) * (params.n - 2)):
            r = V.generalized_recursion_check(ctx, i, m)
            assert r.status == "pass", r.instance
    for i in (0, params.n):
        with pytest.raises(ValueError, match="sector index"):
            V.generalized_recursion_check(ctx, i, (0,) * params.n)


def test_rodrigues_report():
    report = V.rodrigues_check(6, R(1, 2), R(7, 3), 6)
    assert report.status == "pass"
    # the parameters as strings, which pair_shift_check takes as well
    assert V.rodrigues_check(6, "1/2", "7/3", 6).to_dict() == report.to_dict()


def test_glue_checks():
    for params in (HAHN, KRAW):
        ctx = V.SuiteContext(params)
        for mi, mj in ((0, 0), (1, 0), (1, 1), (2, 1)):
            assert V.glue_check(ctx, 2, mi, mj).status == "pass"
    meix3 = MeixnerParams((R(1, 8), R(1, 8), R(1, 8)), R(2))
    assert V.glue_check(V.SuiteContext(meix3, xmax=8), 2, 1, 1).status == "pass"
    with pytest.raises(ValueError):
        V.glue_check(V.SuiteContext(HAHN2), 2, 1, 1)  # n=2 has no adjacent sectors


def test_gram_bounded_families():
    ctx = V.SuiteContext(HAHN2)
    report = V.gram_check(ctx, 4)
    assert report.status == "pass" and report.max_defect == 0
    G = gram_matrix(ctx.tables(enumerate_degrees(2, 4)), ctx.weights())
    for i in range(len(G)):
        assert G[i][i] > 0
        for j in range(len(G)):
            if i != j:
                assert G[i][j] == 0
    assert V.gram_check(V.SuiteContext(KRAW), 3).status == "pass"


@pytest.mark.parametrize("params, bound", [(HAHN2, 4), (KRAW, 4), (MEIX, 2)],
                         ids=lambda p: getattr(p, "family", p))
def test_gram_fails_on_a_zeroed_table(params, bound):
    """A zeroed P_(1,0) has a zero diagonal entry and zero off-diagonal ones:
    gram FAILs at the diagonal.  On Meixner the exact entries read the
    tables on the simplex |x| <= 2 m_max = 2, so that one is zeroed."""
    ctx = V.SuiteContext(params, xmax=None if params.N else 3)
    m = (1,) + (0,) * (params.n - 1)
    (table,) = ctx.tables([m], bound)
    ctx._memo["P_m", bound, m] = LatticeFunction(table.lattice, [0] * table.lattice.size, 1)
    report = V.gram_check(ctx, 1)
    assert (report.status, report.detail) == ("fail", f"non-positive diagonal at {m}")


# The tail-bound route that the factorial moments replaced in the Meixner
# gram and pair-orthogonality checks, kept as the oracle for the exact sums.


def poly_coefficients(fn, nvars: int, deg: int) -> dict:
    """Exact monomial coefficients of a polynomial of total degree <= deg.

    Takes the Newton coefficients D^alpha f(0) on the simplex |x| <= deg
    and expands each C(x, a) = Sum_e s(a, e) x^e / a!, with s the signed
    Stirling numbers of the first kind.
    """
    points = enumerate_lattice(nvars, deg)
    newton = forward_differences([fn(x) for x in points], nvars, deg)
    # s[a][e], from x (x-1) ... (x-a) = (x (x-1) ... (x-a+1)) (x - a)
    s = [[1]]
    for a in range(deg):
        s.append([(s[a][e - 1] if e else 0) - (a * s[a][e] if e <= a else 0)
                  for e in range(a + 2)])
    out: dict = {}
    for alpha, c in zip(points, newton):
        if c == 0:
            continue
        c /= math.prod(math.factorial(a) for a in alpha)
        for exps in itertools.product(*(range(a + 1) for a in alpha)):
            term = math.prod(s[a][e] for a, e in zip(alpha, exps))
            if term:
                out[exps] = out.get(exps, R(0)) + c * term
    return {e: c for e, c in out.items() if c != 0}


def integer_coeffs(coeffs: dict) -> tuple:
    """([(exponents, integer coefficient)], den): the coefficients of a
    polynomial scaled to integers over their lcm den."""
    nums, den = integer_scaled(list(coeffs.values()))
    return list(zip(coeffs, nums)), den


def eval_integer(terms, x) -> int:
    """den times the polynomial at x, for ``integer_coeffs``' (terms, den)."""
    return sum(c * math.prod(xi**e for xi, e in zip(x, exps)) for exps, c in terms)


def meixner_product_tail_bound(w, coeff_p: dict, coeff_q: dict, xmax: int):
    """Rigorous bound on sum_{|x| > xmax} |p(x) q(x)| W(x).

    ``w`` is the Meixner weight table on a box |x| <= xmax + extend.
    Exact sums of |p q| W over its points with |x| > xmax, evaluated on the
    integer forms of p, q and W; beyond the
    box |p q| is dominated by sum_j C_j s^j (C_j the sum of the absolute
    coefficients of p q of degree j), and the remaining series has an
    exact closed form for integral beta, or a geometric bound otherwise.
    """
    params = w.params
    prod: dict = {}
    for e1, c1 in coeff_p.items():
        for e2, c2 in coeff_q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            prod[key] = prod.get(key, R(0)) + c1 * c2
    Cj = [R(0)] * (max((sum(e) for e in prod), default=0) + 1)
    for exps, c in prod.items():
        Cj[sum(exps)] += abs(c)

    # the box part in integers: |p q| W over dp dq dw at each point
    (p, dp), (q, dq) = integer_coeffs(coeff_p), integer_coeffs(coeff_q)
    wn, dw = w.integer_form()
    head = R(sum(abs(eval_integer(p, x) * eval_integer(q, x)) * wx
                 for x, wx in zip(w.lattice.points, wn) if sum(x) > xmax), dp * dq * dw)
    S = w.lattice.bound
    A = params.a_total
    tail = R(0)
    for j, C in enumerate(Cj):
        if C == 0:
            continue
        if params.integral_beta:
            poly = rising_over_factorial_coeffs(int(params.beta))
            tail += C * sum(c * tail_power_sum(A, S, j + d) for d, c in enumerate(poly))
        else:
            # term ratio <= |a| * max(1, (beta+s)/(s+1)) * ((s+1)/s)^j, decreasing
            q = A * max(R(1), (params.beta + S + 1) / (S + 2)) * (R(S + 2) / (S + 1)) ** j
            assert q < 1, "extension too small for a geometric tail bound"
            first = (rising_factorial(params.beta, S + 1) * A ** (S + 1)
                     / math.factorial(S + 1) * R(S + 1) ** j)
            tail += C * first / (1 - q)
    norm = meixner_normalization(params) if params.integral_beta else 1
    return head + tail * norm


def test_gram_meixner_within_tail_bounds():
    """Every full-lattice Gram entry, the diagonal included, lies within the
    old product tail bound of the box entry (n=2, integral beta)."""
    for params, xmax, extend, degree in [
        (MEIX, 10, 20, 1),
        (MeixnerParams((R(1, 5), R(1, 4)), R(2)), 6, 14, 2),
        (MeixnerParams((R(1, 3), R(1, 6)), R(3)), 4, 16, 1),
    ]:
        ctx = V.SuiteContext(params, xmax=xmax)
        assert V.gram_check(ctx, degree).status == "pass"
        degrees = enumerate_degrees(params.n, degree)
        G = gram_matrix(ctx.tables(degrees), ctx.weights())
        exact = eigenpoly_tables(degrees, params, family_lattice(params, xmax=2 * degree))
        moments = meixner_moments(params, 2 * degree)
        coeffs = [poly_coefficients(lambda x, m=m: eigenpoly(m, x, params), params.n, degree)
                  for m in degrees]
        wide = weight_table(params, xmax=xmax + extend)
        for i, j in itertools.combinations_with_replacement(range(len(degrees)), 2):
            value = lattice_inner_product(exact[i], exact[j], moments)
            assert (value == 0) == (i != j)
            bound = meixner_product_tail_bound(wide, coeffs[i], coeffs[j], xmax)
            assert abs(value - G[i][j]) <= bound, (params.label, degrees[i], degrees[j])


def test_gram_meixner_degree_two_passes_at_every_box():
    # the entries are exact on all of N^n, whatever the box; at xmax = 1,
    # P_(0,2) vanishes at every box point, so its box diagonal is 0
    degrees = enumerate_degrees(2, 2)
    ctx = V.SuiteContext(MEIX, xmax=1)
    assert gram_matrix(ctx.tables(degrees), ctx.weights())[3][3] == 0
    for xmax in range(1, 8):
        ctx = V.SuiteContext(MEIX, xmax=xmax)
        report = V.gram_check(ctx, 2)
        assert report.status == "pass", xmax
        G = gram_matrix(ctx.tables(degrees), ctx.weights())
        assert report.max_defect == max(abs(G[i][j]) for i in range(len(G)) for j in range(i))


def test_moments_of_another_beta_fail_meixner_gram(monkeypatch):
    params = MeixnerParams((R(1, 5), R(1, 4)), R(2))
    moments = V.meixner_moments
    assert V.gram_check(V.SuiteContext(params), 1).status == "pass"
    monkeypatch.setattr(V, "meixner_moments",
                        lambda p, K: moments(MeixnerParams(p.a, p.beta + 1), K))
    report = V.gram_check(V.SuiteContext(params), 1)
    assert report.status == "fail"
    assert report.detail == "off-diagonal (0, 0),(1, 0) nonzero"
    lattice = family_lattice(params, xmax=2)
    one, radial = eigenpoly_tables([(0, 0), (1, 0)], params, lattice)
    assert lattice_inner_product(one, radial, V.meixner_moments(params, 2)) == R(-1, 2)


def test_lattice_inner_product_matches_the_rational_newton_route():
    """The integer kernel equals the Newton coefficients of f g taken in
    rationals, against the moments, on tables of random rationals."""
    params = MeixnerParams((R(1, 5), R(1, 4), R(1, 3)), R(5, 2))
    rng = random.Random(3)
    for K in (0, 1, 2, 4):
        lattice = Lattice(3, K, truncated=True)
        moments = meixner_moments(params, K)
        f, g = (table_of(lattice, lambda x: R(rng.randint(-9, 9), rng.randint(1, 9)))
                for _ in range(2))
        newton = forward_differences([a * b for a, b in zip(f.values, g.values)], 3, K)
        assert lattice_inner_product(f, g, moments) == sum(
            (d * mu for d, mu in zip(newton, moments, strict=True)), R(0))


def test_perturbed_km_pair_row_fails_meixner_orthogonality(monkeypatch):
    """c_m + 1 in every Krawtchouk/Meixner pair row must fail the Meixner
    gram and pair-orthogonality checks; the wrapper sits in front of the
    cache, so no perturbed row is ever cached."""
    from mvortho import polynomials as P

    params = MeixnerParams((R(1, 5), R(1, 4)), R(2))
    meix3 = MeixnerParams((R(1, 8), R(1, 8), R(1, 4)), R(2))
    cached = P._km_pair_row

    def perturbed(m, ratio):
        nums, den = cached(m, ratio)
        return nums[:-1] + (nums[-1] + den,), den

    monkeypatch.setattr(P, "_km_pair_row", perturbed)
    report = V.gram_check(V.SuiteContext(params), 1)
    assert report.status == "fail"
    assert report.detail == "off-diagonal (0, 0),(0, 1) nonzero"
    lattice = family_lattice(params, xmax=2)
    one, pair = eigenpoly_tables([(0, 0), (0, 1)], params, lattice)
    # P_(0, 0) = 1 is built without a slot, so only P_(0, 1) reads a perturbed row
    assert lattice_inner_product(one, pair, V.meixner_moments(params, 2)) == R(-8, 11)
    assert V.pair_orthogonality_report(V.SuiteContext(meix3, xmax=4), 1).status == "fail"


def test_poly_coefficients_round_trip():
    coeffs = poly_coefficients(
        lambda x: 3 * R(x[0]) ** 2 * x[1] - R(7, 2) * x[1] + 1, 2, 3
    )
    assert coeffs[(2, 1)] == 3
    assert coeffs[(0, 1)] == R(-7, 2)
    assert coeffs[(0, 0)] == 1
    assert set(coeffs) == {(2, 1), (0, 1), (0, 0)}
    assert coeffs == grid_poly_coefficients(
        lambda x: 3 * R(x[0]) ** 2 * x[1] - R(7, 2) * x[1] + 1, 2, 3
    )


# the grid interpolation that the simplex routine replaced, kept as the oracle


def uni_coeffs(values):
    """Monomial coefficients of the poly through (0, v0) .. (d, vd)."""
    d = len(values) - 1
    dd = [R(v) for v in values]
    # divided differences on nodes 0..d (in place)
    for level in range(1, d + 1):
        for idx in range(d, level - 1, -1):
            dd[idx] = (dd[idx] - dd[idx - 1]) / level
    coeffs = [dd[d]]
    for k in range(d - 1, -1, -1):
        # multiply by (x - k), then add dd[k]
        coeffs = [R(0)] + coeffs
        coeffs = [c - k * nxt for c, nxt in zip(coeffs, coeffs[1:] + [R(0)])]
        coeffs[0] += dd[k]
    return coeffs


def grid_poly_coefficients(fn, nvars, deg):
    """Interpolates on the grid {0..deg}^nvars, one variable at a time."""
    if nvars == 1:
        cs = uni_coeffs([fn((t,)) for t in range(deg + 1)])
        return {(e,): c for e, c in enumerate(cs) if c != 0}
    slices = [
        grid_poly_coefficients(lambda rest, t=t: fn((t,) + rest), nvars - 1, deg)
        for t in range(deg + 1)
    ]
    keys = set()
    for s in slices:
        keys.update(s.keys())
    out = {}
    for key in keys:
        for e, c in enumerate(uni_coeffs([s.get(key, R(0)) for s in slices])):
            if c != 0:
                out[(e,) + key] = c
    return out


@pytest.mark.parametrize("params", [HAHN, KRAW, MEIX])
def test_simplex_coefficients_match_grid_interpolation(params):
    for m in enumerate_degrees(params.n, 3):
        fn = lambda x, m=m: eigenpoly(m, x, params)
        coeffs = poly_coefficients(fn, params.n, 3)
        assert coeffs == grid_poly_coefficients(fn, params.n, 3), m
        assert max(map(sum, coeffs)) == sum(m)


def test_meixner_product_tail_bound_dominates_true_tail():
    # true absolute tail of sum p*q*W beyond the box, brute-forced deep; each
    # weight comes from its neighbour by the ratios of the Meixner weight
    coeffs = poly_coefficients(lambda x: R(x[0]) - x[1], 2, 1)
    bound = meixner_product_tail_bound(weight_table(MEIX, xmax=30), coeffs, coeffs, 10)
    (a1, a2), beta = MEIX.a, MEIX.beta
    edge = oracle_meixner_weight((0, 10), MEIX)  # W(0, s)
    true_tail = R(0)
    for s in range(11, 200):
        edge *= (beta + s - 1) * a2 / s
        wx = edge  # W(k, s - k)
        for k in range(s + 1):
            true_tail += (R(k) - (s - k)) ** 2 * wx
            wx *= a1 * (s - k) / ((k + 1) * a2)
    assert edge == oracle_meixner_weight((0, 199), MEIX)
    assert true_tail <= bound


def oracle_completeness(ctx) -> tuple:
    """(status, max_defect) of completeness from the whole Gram matrix: the
    count of |m| <= N must be the lattice size and the Gram matrix of the
    context's tables diagonal with positive entries.  The O(L^3) body that
    the spectral check replaced."""
    params = ctx.params
    degrees = enumerate_degrees(params.n, params.N)
    if len(degrees) != ctx.lattice.size:
        return "fail", None
    G = gram_matrix(ctx.tables(degrees), ctx.weights())
    ok = all((G[i][j] > 0) if i == j else (G[i][j] == 0)
             for i in range(len(G)) for j in range(i, len(G)))
    return ("pass", 0) if ok else ("fail", None)


def test_completeness(monkeypatch):
    grams = []
    gram = V.gram_matrix
    monkeypatch.setattr(V, "gram_matrix", lambda *args: grams.append(args) or gram(*args))
    report = V.completeness_check(V.SuiteContext(HAHN2))
    assert (report.status, report.max_defect) == ("pass", 0)
    assert report.detail == ("count 15, nonzero common eigenvectors of the W-self-adjoint "
                             "total, exchange1, W > 0, joint eigenvalues distinct")
    assert not grams  # distinct joint eigenvalues need no Gram entry
    assert V.completeness_check(V.SuiteContext(MEIX)).status == "skipped"


COMPLETENESS_CASES = [
    HAHN2, HAHN, HahnParams((R(1, 2), R(7, 3)), R(5, 4), 6),
    HahnParams((R(1), R(2), R(3)), R(2), 6), KRAW,
    KrawtchoukParams((R(1, 2), R(1, 3), R(2)), 6), KrawtchoukParams((R(3), R(2, 5)), 5),
    # n = 4: exchange3 nests two sites deep
    HahnParams((R(1), R(2), R(3), R(1, 2)), R(2), 5),
    KrawtchoukParams((R(1, 2), R(1, 3), R(2), R(3, 2)), 5),
]


@pytest.mark.parametrize("params", COMPLETENESS_CASES, ids=lambda p: p.label)
def test_spectral_completeness_agrees_with_the_gram_oracle(params):
    ctx = V.SuiteContext(params)
    report = V.completeness_check(ctx)
    assert (report.status, report.max_defect) == oracle_completeness(ctx) == ("pass", 0)


@pytest.mark.parametrize("params", [HAHN, KRAW], ids=lambda p: p.family)
def test_completeness_fails_on_a_zeroed_or_perturbed_table_or_rate(params, monkeypatch):
    m = (0, 1, 1)
    # a zeroed table is an eigenvector of every stencil, but no basis vector
    ctx = V.SuiteContext(params)
    (table,) = ctx.tables([m])
    ctx._memo["P_m", params.N, m] = LatticeFunction(table.lattice, [0] * table.lattice.size, 1)
    report = V.completeness_check(ctx)
    assert (report.status, report.detail) == ("fail", f"P_{m} vanishes")
    assert oracle_completeness(ctx)[0] == "fail"
    # one changed value: no eigenvector any more
    ctx = V.SuiteContext(params)
    nums, den = table.integer_form()
    ctx._memo["P_m", params.N, m] = LatticeFunction(table.lattice,
                                                    [*nums[:-1], nums[-1] + den], den)
    report = V.completeness_check(ctx)
    assert report.status == "fail" and report.max_defect > 0
    assert "not an eigenvector" in report.detail
    # a perturbed rate constant: the stencils are no longer W-self-adjoint
    perturb_birth_rate(monkeypatch, params)
    report = V.completeness_check(V.SuiteContext(params))
    assert report.status == "fail" and report.max_defect > 0
    assert "not W-self-adjoint" in report.detail


@pytest.mark.parametrize("params", [HAHN, KRAW], ids=lambda p: p.family)
def test_completeness_fails_on_a_weight_not_positive_somewhere(params):
    """W > 0 is a premise of the spectral argument: one weight set to 0,
    at an interior point, FAILs before any residual is read."""
    ctx = V.SuiteContext(params)
    w = ctx.weights()
    i = ctx.lattice.index[(1, 1, 1)]
    ctx._memo["weights",] = WeightTable(w.lattice, (*w.nums[:i], 0, *w.nums[i + 1:]), w.den,
                                        w.params)
    report = V.completeness_check(ctx)
    assert (report.status, report.max_defect, report.detail) == (
        "fail", None, "weight not positive at every point")
    assert not any(key[0] == "residual" for key in ctx._memo)


def test_completeness_keeps_only_the_tables_up_to_m_max():
    """Each shell above m_max is dropped once its residuals are formed; the
    tables the other checks reuse, |m| <= m_max, stay."""
    ctx = V.SuiteContext(HAHN, m_max=2)
    assert V.completeness_check(ctx).status == "pass"
    assert sorted(key[2] for key in ctx._memo if key[0] == "P_m") == sorted(
        enumerate_degrees(3, 2))


def test_completeness_fails_on_a_perturbed_table_with_a_radial_degree():
    """The exchange residuals are formed only for m_0 = 0, so a broken table
    with m_0 != 0 must FAIL through total's residual, which covers every P_m."""
    m = (1, 1, 0)
    ctx = V.SuiteContext(HAHN)
    nums, den = ctx.tables([m])[0].integer_form()
    ctx._memo["P_m", HAHN.N, m] = LatticeFunction(ctx.lattice, [*nums[:-1], nums[-1] + den], den)
    report = V.completeness_check(ctx)
    assert (report.status, report.detail) == ("fail", f"P_{m} not an eigenvector of total on every row")
    assert report.max_defect > 0


@pytest.mark.parametrize("m_max, verdict", [
    (1, ("pass", None)),
    (2, ("fail", "P_(1, 1, 0) not an eigenvector of exchange2 on every row")),
], ids=["m_max1", "m_max2"])
def test_completeness_reads_a_stored_table_only_up_to_m_max(m_max, verdict):
    """P_(1, 1, 0) stored as the table of P_(1, 0, 1), of the same |m| and
    S_1.  At m_max 1 that shell is built from its nested factors, so the
    stored entry is never read and the check passes; no table or residual
    above m_max enters the memo.  At m_max 2 the stored entry is read, and
    its exchange2 residual FAILs, as S_2 differs."""
    m = (1, 1, 0)
    ctx = V.SuiteContext(HAHN, m_max=m_max)
    (swapped,) = ctx.tables([(1, 0, 1)])
    ctx._memo["P_m", HAHN.N, m] = swapped
    report = V.completeness_check(ctx)
    assert (report.status, report.detail if report.status == "fail" else None) == verdict
    assert ctx._memo["P_m", HAHN.N, m] is swapped
    assert {key for key in ctx._memo if key[0] in ("P_m", "residual") and sum(key[-1]) > m_max
            } <= {("P_m", HAHN.N, m), ("P_m", HAHN.N, (1, 0, 1))}


def test_completeness_fails_on_a_nested_table_built_from_a_perturbed_slot(monkeypatch):
    """A construction fault: the radial slot (m_0, shift) = (1, 1), read only
    by P_(1, 0, 1) and P_(1, 1, 0), of |m| = 2 > m_max, with its value at
    |x| = N changed.  The exchange residuals of those tables are nested, but
    total's is formed on each, and FAILs on the first of them."""
    radial_slot = HahnParams.radial_slot

    def perturbed(self, m0, s1, sizes):
        nums, den = radial_slot(self, m0, s1, sizes)
        return ([*nums[:-1], nums[-1] + den], den) if (m0, s1) == (1, 1) else (nums, den)

    monkeypatch.setattr(HahnParams, "radial_slot", perturbed)
    report = V.completeness_check(V.SuiteContext(HAHN, m_max=1))
    assert (report.status, report.detail) == (
        "fail", "P_(1, 0, 1) not an eigenvector of total on every row")
    assert report.max_defect > 0


def test_completeness_fails_on_a_poisoned_held_table():
    """Above m_max a table is slot p times the held integer form of its hat:
    P_(1, 1, 0) is the radial slot times the held P_(0, 1, 0), and no other
    table of |m| = 2 reads that form.  At m_max 1, one value of it changed
    must FAIL through total's residual on P_(1, 1, 0), formed on every table."""
    ctx = V.SuiteContext(HAHN, m_max=1)
    ctx.tables(enumerate_degrees(3, 1))
    held = ctx.factors[ctx.lattice]
    nums, den = held[0, 1, 0]
    held[0, 1, 0] = (*nums[:-1], nums[-1] + den), den
    report = V.completeness_check(ctx)
    assert (report.status, report.detail) == (
        "fail", "P_(1, 1, 0) not an eigenvector of total on every row")
    assert report.max_defect > 0


def test_completeness_checks_that_exchange_keeps_the_lower_sites():
    """The nesting reads exchange2 on P_(0, 0, m_2) alone, which ignores x_1;
    an exchange2 entry moved from column y to y + e_1 leaves those residuals
    as they were, so the premise pass (every move keeps |x| and x_1) is what
    FAILs.  The adjointness defect is pre-set to 0 so that it does not
    catch the move first."""
    ctx = V.SuiteContext(HAHN)
    H, points, index = ctx.stencil("exchange", 2), ctx.lattice.points, ctx.lattice.index
    i, j = next((i, j) for i, row in enumerate(H.rows) for j in row
                if j != i and sum(points[j]) < HAHN.N)
    moved = index[(points[j][0] + 1, *points[j][1:])]
    row = {(moved if k == j else k): v for k, v in H.rows[i].items()}
    ctx._memo["stencil", "exchange", 2] = OperatorMatrix(
        H.op, H.lattice, (*H.rows[:i], row, *H.rows[i + 1:]), H.den, H.valid_rows)
    ctx._memo["adjointness", "exchange", 2] = R(0)
    report = V.completeness_check(ctx)
    assert (report.status, report.detail) == ("fail", "exchange2 changes |x| or some x_k, k < 2")
    # without the premise pass the nested residuals would not see it
    nested = [m for m in enumerate_degrees(3, HAHN.N) if not any(m[:2])]
    assert not any(ctx.eigen_residuals("exchange", 2, nested))


def test_completeness_fails_on_a_stencil_row_without_an_image():
    """A total stencil whose last row is emptied and marked invalid gives no
    image there, so its residuals do not cover every row: not a basis proof."""
    ctx = V.SuiteContext(HAHN)
    H = ctx.stencil("total")
    ctx._memo["stencil", "total", None] = OperatorMatrix(
        H.op, H.lattice, (*H.rows[:-1], {}), H.den, (*H.valid_rows[:-1], False))
    report = V.completeness_check(ctx)
    assert report.status == "fail"
    assert "total" in report.detail and report.detail.endswith("on every row")


def collide(monkeypatch, m1, m2):
    """Give P_m2 the joint eigenvalues of P_m1 in ``SuiteContext.eigenvalue``."""
    eigenvalue = V.SuiteContext.eigenvalue

    def collided(self, kind, index, m):
        return eigenvalue(self, kind, index, m1 if tuple(m) == m2 else m)

    monkeypatch.setattr(V.SuiteContext, "eigenvalue", collided)


def test_completeness_fails_on_equal_joint_eigenvalues(monkeypatch):
    """A forced collision of two joint eigenvalue tuples: the residuals are
    the context's, formed against the closed-form eigenvalues before, so
    only the spectrum is at fault, and the check fails without forming a
    Gram entry."""
    ctx = V.SuiteContext(HAHN2)
    assert V.completeness_check(ctx).status == "pass"
    collide(monkeypatch, (0, 2), (1, 1))
    grams = []
    gram = V.gram_matrix
    monkeypatch.setattr(V, "gram_matrix", lambda *args: grams.append(args) or gram(*args))
    report = V.completeness_check(ctx)
    assert (report.status, report.max_defect, report.detail) == (
        "fail", None, "joint eigenvalues not distinct")
    assert not grams


@st.composite
def bounded_bundles(draw):
    """An accepted Hahn or Krawtchouk bundle, n = 2..4 and N <= 6."""
    n = draw(st.integers(2, 4))
    a = tuple(draw(rationals(6)) for _ in range(n))
    N = draw(st.integers(n + 1, 6))
    if draw(st.booleans()):
        return HahnParams(a, draw(rationals(6)), N)
    return KrawtchoukParams(a, N)


@given(bounded_bundles())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_joint_eigenvalues_are_distinct_on_accepted_bundles(params):
    """The eigenvalues of total and exchange(1..n-1) tell every |m| <= N apart,
    which the completeness check relies on."""
    ctx = V.SuiteContext(params)
    ops = [("total", None)] + [("exchange", i) for i in range(1, params.n)]
    degrees = enumerate_degrees(params.n, params.N)
    joint = {tuple(ctx.eigenvalue(kind, index, m) for kind, index in ops) for m in degrees}
    assert len(joint) == len(degrees)


def test_suite_forms_each_residual_once_in_one_call_per_stencil_and_degree(monkeypatch):
    """Hahn n=3 N=5, m_max 3: the eigen check makes one call per stencil
    (total, exchange1, exchange2) over the 20 P_m of |m| <= 3, type-one one
    call over its 28 (J, m) tables, glue reads the eigen check's residuals,
    and completeness adds the degrees 4 and 5, one call per stencil and
    degree: total on every P_m of the shell (15 and 21), exchange(i) only on
    those with m_0 = ... = m_{i-1} = 0 (exchange1 5 and 6, exchange2 1 and 1)."""
    calls = []
    kernel = V.residual_defects

    def counted(H, tables, eigenvalues):
        calls.append((H.op.label, len(tables)))
        return kernel(H, tables, eigenvalues)

    monkeypatch.setattr(V, "residual_defects", counted)
    reports = V.run_suite(HahnParams((R(1), R(2), R(3)), R(2), 5))
    assert not any(r.status == "fail" for r in reports)
    ops = ["total", "exchange1", "exchange2"]
    assert calls == ([(op, 20) for op in ops] + [("total", 28)]
                     + list(zip(ops, [15, 5, 1])) + list(zip(ops, [21, 6, 1])))


def test_suite_builds_each_stencil_and_table_once(monkeypatch):
    """Every object of the context's memo is built once per suite: each
    stencil of total and exchange(1..n-1), none of single, each (lattice, m)
    table, the weight table, one adjointness defect per stencil (adjointness
    and completeness share them), and on
    the Meixner box the factorial moments once per order K (gram and
    pair-orthogonality share K = 2)."""
    from collections import Counter

    from mvortho.core import enumerate_degrees

    params = HahnParams((R(1), R(2), R(3)), R(2), 5)
    built, tables, calls = [], [], Counter()
    build, tabulate = V.operator_matrix, V.eigenpoly_tables

    def counted_build(op, lattice=None):
        built.append(op.label)
        return build(op, lattice)

    def counted_tables(degs, params, lattice, factors=None):
        tables.extend((lattice.bound, tuple(m)) for m in degs)
        return tabulate(degs, params, lattice, factors)

    def count(name, key):
        inner = getattr(V, name)

        def counted(*args, **kwargs):
            calls[name, key(*args)] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(V, name, counted)

    monkeypatch.setattr(V, "operator_matrix", counted_build)
    monkeypatch.setattr(V, "eigenpoly_tables", counted_tables)
    count("weight_table", lambda params: params.family)
    count("adjointness_defect", lambda H, w: H.op.label)
    count("meixner_moments", lambda params, K: K)
    reports = V.run_suite(params)
    assert reports and not any(r.status == "fail" for r in reports)
    assert sorted(built) == ["exchange1", "exchange2", "total"]
    # each (lattice, m) once: every |m| <= N on the instance lattice (the
    # context's up to m_max, completeness's one shell at a time above it),
    # and the chained products of generalized-recursions one shell further out
    assert max(Counter(tables).values()) == 1
    assert sorted(m for bound, m in tables if bound == 5) == sorted(enumerate_degrees(3, 5))
    assert {bound for bound, _ in tables} == {5, 6}
    assert calls == Counter({("weight_table", "hahn"): 1, **{
        ("adjointness_defect", op): 1 for op in ["total", "exchange1", "exchange2"]}})
    calls.clear()
    reports = V.run_suite(MEIX, xmax=4)
    assert reports and not any(r.status == "fail" for r in reports)
    assert calls == Counter({("weight_table", "meixner"): 1, ("meixner_moments", 2): 1, **{
        ("adjointness_defect", op): 1 for op in ["total", "exchange1"]}})


def test_no_suite_check_or_export_changes_a_kept_stencil():
    """The process keeps the stencils and every caller shares them: after a
    whole suite and the operator export of each kind on Hahn n=3 N=5, every
    kept stencil is the same object, with the rows, denominator and valid
    rows it was built with."""
    import contextlib
    import io

    from mvortho import cli
    from mvortho.operators import OperatorSpec

    params = HahnParams((R(1), R(2), R(3)), R(2), 5)
    lattice = family_lattice(params)
    specs = [OperatorSpec(params, "total"), OperatorSpec(params, "single"),
             *(OperatorSpec(params, "exchange", i) for i in (1, 2))]
    kept = [V.operator_matrix(spec, lattice) for spec in specs]
    before = [([dict(row) for row in H.rows], H.den, H.valid_rows) for H in kept]
    assert not any(r.status == "fail" for r in V.run_suite(params))
    for op in ("total", "single", "exchange1", "exchange2"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["export", "--family", "hahn", "--a", "1,2,3", "--b", "2",
                             "--N", "5", "--what", "operator", "--op", op]) == 0
    assert all(V.operator_matrix(spec, lattice) is H for spec, H in zip(specs, kept))
    assert [(list(H.rows), H.den, H.valid_rows) for H in kept] == before


@pytest.mark.parametrize("params, xmax", [(HAHN, None), (KRAW, None), (MEIX, 4)])
def test_suite_tables_carry_their_lcm_integer_form(params, xmax):
    """Every P_m table of a suite comes with its integer form, and that form
    is the values over their lcm denominator: the Gram and the residuals get
    no wider integers than rescaling the values would give them."""
    ctx = V.SuiteContext(params, xmax=xmax)
    for name in V.SUITE:
        V.CHECKS[name](ctx)
    tables = {key: table for key, table in ctx._memo.items() if key[0] in ("P_m", "type-one")}
    assert {key[1] for key in tables if key[0] == "P_m"} > {ctx.lattice.bound}
    for table in tables.values():
        nums, den = integer_scaled(table.values)
        assert table.integer_form() == (tuple(nums), den)
    fresh = V.SuiteContext(params, xmax=xmax).tables([(1,) * params.n])
    assert all("values" not in vars(table) for table in fresh)


def test_suite_evaluates_each_factor_once(monkeypatch):
    """One dict of slot integers per context: no pair or radial slot is
    evaluated twice at one argument in a whole suite, across the tables of
    every check and simplex."""
    params = HahnParams((R(1), R(2), R(3)), R(2), 5)
    evaluated = []

    def counted(method):
        def wrapper(self, *key_and_args):
            *key, args = key_and_args
            evaluated.extend((method.__name__, *key, arg) for arg in args)
            return method(self, *key_and_args)
        return wrapper

    for name in ("pair_slot", "radial_slot"):
        monkeypatch.setattr(HahnParams, name, counted(getattr(HahnParams, name)))
    reports = V.run_suite(params)
    assert not any(r.status == "fail" for r in reports)
    assert {name for name, *_ in evaluated} == {"pair_slot", "radial_slot"}
    assert len(evaluated) == len(set(evaluated))


def test_suite_evaluates_each_type_one_value_once(monkeypatch):
    """A type-one table depends on x only through x_J and on J only through
    a_J: the suite evaluates one grid over x_J = 0..N per (J, m), so 7
    subsets x degrees 0..3.  With a = 1, 2, 3, {3} and {1, 2} share a_J = 3,
    and each evaluates its own grid."""
    params = HahnParams((R(1), R(2), R(3)), R(2), 5)
    type_one, calls = HahnParams.type_one, []

    def counted(self, m, aJ, sums):
        calls.append((m, aJ))
        assert list(sums) == list(range(params.N + 1))
        return type_one(self, m, aJ, sums)

    monkeypatch.setattr(HahnParams, "type_one", counted)
    reports = V.run_suite(params)
    assert not any(r.status == "fail" for r in reports)
    assert len(calls) == 7 * 4 == 28
    assert [calls.count((m, R(3))) for m in range(4)] == [2] * 4
    assert len(set(calls)) == 6 * 4


def per_point_type_one(ctx, J, m) -> LatticeFunction:
    """The type-one table that ``SuiteContext.type_one`` replaced: the old
    comprehension, which sums x_J again at every point for every (J, m)."""
    lattice, a_J = ctx.lattice, sum((ctx.params.a[j - 1] for j in J), R(0))
    by_sum, den = ctx.params.type_one(m, a_J, list(range(lattice.bound + 1)))
    return LatticeFunction(
        lattice, [by_sum[sum(x[j - 1] for j in J)] for x in lattice.points], den)


@pytest.mark.parametrize("params, xmax", [(HAHN, None), (KRAW, None), (MEIX, 4)],
                         ids=["hahn", "krawtchouk", "meixner-box"])
def test_type_one_tables_from_the_subset_sum_column_match_the_per_point_oracle(params, xmax):
    """Every J and m <= 3: the table spread over the context's one column of
    x_J per J equals the old comprehension, and each value is the grid of
    ``params.type_one`` at that point's x_J alone."""
    ctx = V.SuiteContext(params, xmax=xmax)
    sites = range(1, params.n + 1)
    subsets = [J for size in sites for J in itertools.combinations(sites, size)]
    for J in subsets:
        a_J = sum((params.a[j - 1] for j in J), R(0))
        for m in range(4):
            table = ctx.type_one(J, m)
            assert table == per_point_type_one(ctx, J, m), (J, m)
            for x, value in zip(ctx.lattice.points, table.values):
                (num,), den = params.type_one(m, a_J, [sum(x[j - 1] for j in J)])
                assert value == R(num, den), (J, m, x)
    assert [key[1] for key in ctx._memo if key[0] == "subset-sums"] == subsets


def test_perturbed_pair_row_fails_eigen_and_pair_shifts(monkeypatch):
    """The checks read the cached row kernel: c_m + 1 in every Hahn pair row
    must fail them, the ones that read pair factors through the context's
    tables (glue, generalized-recursions, pair-orthogonality) included.  The wrapper sits in front of the cache, so no perturbed
    row is ever cached."""
    from mvortho import polynomials as P

    cached = P._hahn_pair_row

    def perturbed(m, alpha, gamma):
        nums, den = cached(m, alpha, gamma)
        return nums[:-1] + (nums[-1] + den,), den

    monkeypatch.setattr(P, "_hahn_pair_row", perturbed)
    failed = {r.name for r in V.run_suite(HAHN) if r.status == "fail"}
    assert {"eigen-suite", "pair-shifts", "glue", "generalized-recursions",
            "pair-orthogonality"} <= failed


def test_degree_invariance_report_gives_image_degree():
    report = V.degree_invariance_report(V.SuiteContext(KRAW), 2)
    assert report.status == "pass" and report.max_defect == 0
    assert report.detail == "largest image degree 2"


@pytest.mark.parametrize("xmax, status", [(3, "skipped"), (4, "fail")])
def test_degree_invariance_skips_a_box_too_small_to_show_the_degree(xmax, status):
    """A total stencil whose diagonal gains x_1^3: on the Meixner box its
    rows with an image form |x| <= K = xmax - 1, which shows degree 3 only
    when K > M = 2.  At xmax 3 the report may not read "pass"."""
    ctx = V.SuiteContext(MeixnerParams((R(1, 5), R(1, 4)), R(2)), xmax=xmax)
    H = ctx.stencil("total")
    rows = [{**row, i: row.get(i, 0) + x[0] ** 3 * H.den} if ok and x[0] else row
            for i, (row, x, ok) in enumerate(zip(H.rows, H.lattice.points, H.valid_rows))]
    ctx._memo["stencil", "total", None] = OperatorMatrix(H.op, H.lattice, tuple(rows), H.den,
                                                         H.valid_rows)
    report = V.degree_invariance_report(ctx, 2)
    assert report.status == status
    assert report.detail == ("images only on |x| <= 2, so no degree above M=2 shows"
                             if status == "skipped" else "largest image degree 3")


@pytest.mark.parametrize("params, xmax", [
    (HahnParams((R(1), R(2), R(3)), R(2), 5), None),
    (HahnParams((R(1), R(2), R(3), R(1, 2)), R(2), 5), None),
    (KrawtchoukParams((R(1, 2), R(1, 3), R(2)), 6), None),
    (MeixnerParams((R(1, 5), R(1, 4)), R(2)), 1),
    (MeixnerParams((R(1, 5), R(1, 4)), R(2)), 4),
])
def test_single_is_total_minus_exchange1_with_the_p_m_as_eigenvectors(params, xmax):
    """single is no stencil of the suite, since every check of it follows from
    total and exchange(1) by linearity (:attr:`SuiteContext.stencils`); that
    rests on single = total - exchange(1) at every (row, column) as rationals,
    with the same valid rows (an invalid row is empty in both).  The P_m,
    |m| <= 3, are still eigenvectors of single, as ``export --op single`` ships it."""
    ctx = V.SuiteContext(params, xmax=xmax)
    single, total = ctx.stencil("single"), ctx.stencil("total")
    exchange = ctx.stencil("exchange", 1)
    assert single.valid_rows == total.valid_rows and all(exchange.valid_rows)
    for s, t, e, ok in zip(single.rows, total.rows, exchange.rows, single.valid_rows):
        if not ok:
            assert not s and not t
            continue
        for j in set(s) | set(t) | set(e):
            assert R(s.get(j, 0), single.den) == (R(t.get(j, 0), total.den)
                                                  - R(e.get(j, 0), exchange.den))
    degrees = enumerate_degrees(params.n, 3)
    eigs = [eigenvalue(params, "single", None, m) for m in degrees]
    assert not any(V.residual_defects(single, ctx.tables(degrees), eigs))


def test_commutators_skip_a_pair_compared_on_no_row():
    """A pair with no row valid for both products shows nothing, so the report
    cannot PASS; it SKIPs and names the pair, and stays FAIL when a pair
    compared on some row does not commute.  On the Meixner box at xmax 1
    total/exchange1 are compared at x = 0, so the real stencils PASS."""
    meix = MeixnerParams((R(1, 5), R(1, 4)), R(2))
    ctx = V.SuiteContext(meix, xmax=1)
    report = V.commutator_check(ctx)
    assert (report.status, report.max_defect, report.detail) == ("pass", 0,
                                                                "interior-restricted rows")
    # exchange1 with every row invalid: total/exchange1 compare on no row
    H = ctx.stencil("exchange", 1)
    blind = V.SuiteContext(meix, xmax=1)
    blind._memo["stencil", "exchange", 1] = OperatorMatrix(
        H.op, H.lattice, tuple({} for _ in H.rows), H.den, (False,) * H.size)
    report = V.commutator_check(blind)
    assert (report.status, report.max_defect) == ("skipped", None)
    assert report.detail == "no row valid for both products of total/exchange1"
    # exchange1 with its row at x = (1, 0) doubled: total/exchange1 compare at x = 0
    H = ctx.stencil("exchange", 1)
    i = H.lattice.index[(1, 0)]
    rows = [{j: 2 * v for j, v in row.items()} if k == i else row for k, row in enumerate(H.rows)]
    ctx._memo["stencil", "exchange", 1] = OperatorMatrix(H.op, H.lattice, tuple(rows), H.den,
                                                         H.valid_rows)
    report = V.commutator_check(ctx)
    assert report.status == "fail" and report.max_defect > 0
    report = V.commutator_check(V.SuiteContext(meix, xmax=2))
    assert (report.status, report.max_defect, report.detail) == ("pass", 0,
                                                                "interior-restricted rows")


def test_pair_orthogonality_reports():
    assert V.pair_orthogonality_report(V.SuiteContext(HAHN), 1).status == "pass"
    assert V.pair_orthogonality_report(V.SuiteContext(HAHN), 2).status == "pass"
    assert V.pair_orthogonality_report(V.SuiteContext(KRAW), 2).status == "pass"
    meix3 = MeixnerParams((R(1, 8), R(1, 8), R(1, 8)), R(2))
    assert V.pair_orthogonality_report(V.SuiteContext(meix3, xmax=20), 1).status == "pass"


KRAW5 = KrawtchoukParams((R(1, 3), R(1, 2), R(1, 4)), 5)


def test_limit_checks():
    for m, x, params in (((1, 1, 0), (1, 1, 2), KRAW5), ((0, 0, 0), (1, 0, 1), KRAW5),
                         ((1, 1), (2, 1), MEIX), ((0, 3), (2, 1), MEIX)):
        report = V.limit_check(m, x, params)
        assert (report.status, report.max_defect, report.detail) == ("pass", 0, "")
        assert report.instance.endswith(f"m={m} x={x}")
    with pytest.raises(ValueError, match="krawtchouk and meixner"):
        V.limit_check((1, 0, 0), (1, 0, 1), HAHN)


# The first-order ladder that decided ``limits`` before the exact limit,
# kept as a consistency oracle for it.
LADDER = (10**2, 10**4, 10**6)


def ladder_protocol(deviations, t_values) -> str:
    """First-order-in-1/t guard: each step must shrink by t_{k+1}/(2 t_k)."""
    for k in range(len(deviations) - 1):
        if abs(deviations[k + 1]) * t_values[k + 1] > 2 * abs(deviations[k]) * t_values[k]:
            return "fail"
    return "pass"


def ladder_value(m, x, params, t):
    """The Hahn P_m(x) at ``params.hahn_limit(t)``, each pair factor divided
    by (-1)^{m_i} (alpha_t)_{m_i}, which keeps it finite as t grows."""
    from mvortho import hahn, hahn_pair

    a_t, b_t, N_t = params.hahn_limit(R(t))
    s1 = sum(m[1:])
    value = hahn(m[0], sum(x) - s1, sum(a_t) + 2 * s1, b_t, N_t - s1)
    for i in range(1, len(a_t)):
        shift = sum(m[i + 1:])
        value *= hahn_pair(m[i], x[i - 1], sum(x[i:]) - shift, a_t[i - 1],
                           sum(a_t[i:]) + 2 * shift)
        value /= (-1) ** m[i] * rising_factorial(a_t[i - 1], m[i])
    return value


@pytest.mark.parametrize("params", [
    KrawtchoukParams((R(1, 2), R(1, 3), R(2)), 4), MeixnerParams((R(1, 5), R(1, 4)), R(2)),
    MeixnerParams((R(1, 8), R(1, 4), R(1, 3)), R(5, 2))], ids=lambda p: p.label)
def test_the_exact_limit_agrees_with_the_ladder_on_every_draw(params, monkeypatch):
    """On every draw of ``limit_suite``, seeds 0..5, the exact limit is
    P_m(x) and the Hahn values on the old ladder still converge to it."""
    draws, check = [], V.limit_check
    monkeypatch.setattr(V, "limit_check", lambda m, x, p: draws.append((m, x)) or check(m, x, p))
    for seed in range(6):
        for report in V.limit_suite(params, random.Random(seed), params.N or 8):
            assert (report.status, report.max_defect) == ("pass", 0)
    assert len(draws) == 18
    for m, x in draws:
        target = eigenpoly(m, x, params)
        assert ladder_protocol([ladder_value(m, x, params, t) - target for t in LADDER],
                               LADDER) == "pass"


def test_limit_single_variable_sanity():
    # classic single-variable limit: H_m(x; a t, (1-a) t, N) -> K_m(x; a, N)
    from mvortho import hahn, krawtchouk

    a, N = R(2, 5), 6
    for m in (1, 2, 3):
        for x in (0, 2, 5):
            devs = [hahn(m, x, a * t, (1 - a) * t, N) - krawtchouk(m, x, a, N) for t in LADDER]
            assert ladder_protocol(devs, LADDER) == "pass"


def test_limit_protocol_rejects_slow_convergence():
    assert ladder_protocol([R(1), R(1, 2)], (100, 10_000)) == "fail"


def test_a_perturbed_km_pair_row_fails_the_limit(monkeypatch):
    """c_m + 1 in every Krawtchouk/Meixner pair row moves P_m(x), not the
    Hahn values the limit is taken from."""
    from mvortho import polynomials as P

    cached = P._km_pair_row

    def perturbed(m, ratio):
        nums, den = cached(m, ratio)
        return nums[:-1] + (nums[-1] + den,), den

    monkeypatch.setattr(P, "_km_pair_row", perturbed)
    for m, x, params in (((1, 1, 0), (1, 1, 2), KRAW5), ((0, 2), (2, 1), MEIX)):
        report = V.limit_check(m, x, params)
        assert report.status == "fail" and report.max_defect > 0 and not report.detail


@pytest.mark.parametrize("b_t, detail", [
    (lambda t: R(1), ""),  # b held at 1: a polynomial A of the right degree, a wrong limit
    (lambda t: t * t, "A(t) has degree above |m| = 2"),  # deg A = 3: the extra sample
])
def test_a_krawtchouk_limit_without_b_equal_to_t_fails(b_t, detail, monkeypatch):
    monkeypatch.setattr(KrawtchoukParams, "hahn_limit",
                        lambda self, t: (tuple(v * t for v in self.a), b_t(t), self.N))
    report = V.limit_check((1, 1, 0), (1, 1, 2), KRAW5)
    assert (report.status, report.detail) == ("fail", detail) and report.max_defect > 0


@pytest.mark.parametrize("params", [HAHN, KRAW])
def test_doubled_weight_fails_compatibility_and_adjointness(params, monkeypatch):
    from mvortho import measures

    products = measures._weight_products
    interior = (1, 1, 1)  # |x| = 3 < N = 4, every coordinate positive

    def doubled(params, points, bound):
        nums, den = products(params, points, bound)
        return [2 * v if tuple(x) == interior else v for x, v in zip(points, nums)], den

    assert V.compatibility_check(V.SuiteContext(params)).status == "pass"
    assert V.adjointness_check(V.SuiteContext(params)).status == "pass"
    assert V.normalization_check(V.SuiteContext(params)).status == "pass"
    added = weight_table(params)(interior)
    monkeypatch.setattr(measures, "_weight_products", doubled)
    compat = V.compatibility_check(V.SuiteContext(params))
    adjoint = V.adjointness_check(V.SuiteContext(params))
    norm = V.normalization_check(V.SuiteContext(params))
    assert compat.status == "fail" and compat.max_defect > 0
    assert adjoint.status == "fail" and adjoint.max_defect > 0
    assert (norm.status, norm.max_defect) == ("fail", added)


def test_meixner_normalization_fails_on_a_small_tail_bound_or_a_negative_weight(monkeypatch):
    from mvortho import measures

    ctx = V.SuiteContext(MEIX, xmax=6)
    missing = 1 - ctx.weights().total
    assert V.normalization_check(ctx).status == "pass"
    # a tail bound below the missing mass
    with monkeypatch.context() as patch:
        patch.setattr(measures, "meixner_tail_mass_bound", lambda params, xmax: missing / 2)
        report = V.normalization_check(V.SuiteContext(MEIX, xmax=6))
    assert (report.status, report.max_defect, report.detail) == (
        "fail", missing, "missing mass outside tail bound")
    # one outer-shell weight that outweighs the rest of the box
    products = measures._weight_products

    def negative_corner(params, points, bound):
        nums, den = products(params, points, bound)
        return [-sum(nums) if tuple(x) == (bound, 0) else v for x, v in zip(points, nums)], den

    monkeypatch.setattr(measures, "_weight_products", negative_corner)
    ctx = V.SuiteContext(MEIX, xmax=6)
    report = V.normalization_check(ctx)
    w = ctx.weights()
    assert (report.status, report.detail) == ("fail", "partial sums not increasing")
    assert report.max_defect == w.total - R(sum(w.nums[:math.comb(2 + 3, 2)]), w.den) < 0


@pytest.mark.parametrize("params", [MEIX, MeixnerParams((R(1, 5), R(1, 3), R(1, 6)), R(5, 2)),
                                    MeixnerParams((R(2, 3), R(1, 4)), R(3))],
                         ids=lambda p: p.label)
@pytest.mark.parametrize("xmax", range(1, 7))
def test_half_box_weight_is_a_prefix_of_the_box_table(params, xmax):
    """The normalization check reads the half box |x| <= xmax // 2 as the
    first comb(n + xmax // 2, n) entries of the box table."""
    w = V.SuiteContext(params, xmax=xmax).weights()
    prefix = R(sum(w.nums[:math.comb(params.n + xmax // 2, params.n)]), w.den)
    assert prefix == weight_table(params, xmax=xmax // 2).total


def oracle_compatibility_defects(params, w, up=form_up_rate) -> tuple:
    """The largest |defect| of the weight-ratio identity and of the cycle
    condition, one rational per rate and point: the body that the integer
    check replaced.  ``up`` is the birth rate (params, x, j)."""
    lattice, n, down = w.lattice, params.n, form_down_rate
    ratio, cycle = [R(0)], [R(0)]
    for x in lattice.points:
        for j in range(n):
            yj = x[:j] + (x[j] + 1,) + x[j + 1:]
            if yj not in lattice.index:
                continue
            ratio.append(w(yj) * down(params, yj, j) - w(x) * up(params, x, j))
            for k in range(j + 1, n):
                yk = x[:k] + (x[k] + 1,) + x[k + 1:]
                yjk = yj[:k] + (yj[k] + 1,) + yj[k + 1:]
                if yjk in lattice.index:
                    cycle.append(up(params, x, j) * up(params, yj, k) * down(params, yk, k)
                                 * down(params, yjk, j) - up(params, x, k) * up(params, yk, j)
                                 * down(params, yj, j) * down(params, yjk, k))
    return max(map(abs, ratio)), max(map(abs, cycle))


def perturb_rate_constant(monkeypatch, params, slot: int, delta):
    """The rate form with ``delta`` added to its constant number ``slot``."""
    form = type(params).rate_form.fget

    def perturbed(p):
        out = list(form(p))
        out[slot] += delta
        return tuple(out)

    monkeypatch.setattr(type(params), "rate_form", property(perturbed))


@pytest.mark.parametrize("params, xmax", [(HAHN, None), (KRAW, None), (MEIX, 5), (MEIX, 1)])
@pytest.mark.parametrize("slot", [0, 2, 3, 4])  # u0, v1, d0, d1
def test_compatibility_matches_the_rational_oracle(params, xmax, slot, monkeypatch):
    report = V.compatibility_check(V.SuiteContext(params, xmax=xmax))
    assert (report.status, report.max_defect) == ("pass", 0)
    assert oracle_compatibility_defects(params, weight_table(params, xmax=xmax)) == (0, 0)
    perturb_rate_constant(monkeypatch, params, slot, R(1, 7))
    report = V.compatibility_check(V.SuiteContext(params, xmax=xmax))
    oracle = max(oracle_compatibility_defects(params, weight_table(params, xmax=xmax)))
    assert (report.status, report.max_defect) == ("fail" if oracle else "pass", oracle)
    # on the box |x| <= 1 only x = 0 has a move, where x_j = 0 hides v1
    assert oracle > 0 or (xmax, slot) == (1, 2)


@pytest.mark.parametrize("params, xmax", [(HAHN, None), (KRAW, None), (MEIX, 5)])
def test_compatibility_fails_on_rates_outside_the_product_form(params, xmax, monkeypatch):
    """Rate-form constants keep B_j(x) / D_j(x + e_j) a product of a function
    of |x| and one of x_j, so they never break the cycle condition.  B_j
    plus x_{j+1} (N - |x|), or plus x_{j+1} on Meixner, does, by more than
    it breaks the weight ratio."""
    n = params.n

    def extra(x, j):
        return x[(j + 1) % n] * (1 if params.N is None else params.N - sum(x))

    rates = V.integer_rates

    def perturbed(p):
        birth, death, exchange, D = rates(p)
        return ((lambda x: [b + D * D * extra(x, j) for j, b in enumerate(birth(x))]),
                death, exchange, D)

    monkeypatch.setattr(V, "integer_rates", perturbed)
    report = V.compatibility_check(V.SuiteContext(params, xmax=xmax))
    ratio, cycle = oracle_compatibility_defects(
        params, weight_table(params, xmax=xmax),
        lambda p, x, j: form_up_rate(p, x, j) + extra(x, j))
    assert (report.status, report.max_defect) == ("fail", cycle)
    assert cycle > ratio > 0


def oracle_boundary_safety(params, lattice) -> tuple:
    """(status, max_defect, detail) of boundary safety from the pointwise rates."""
    n = params.n
    for x in lattice.points:
        if sum(x) == params.N:
            for j in range(n):
                if form_up_rate(params, x, j) != 0:
                    return "fail", form_up_rate(params, x, j), f"up rate nonzero at {x}"
        for j in range(n):
            if x[j] == 0 and form_down_rate(params, x, j) != 0:
                return "fail", form_down_rate(params, x, j), f"down rate nonzero at {x}"
    return "pass", 0, ""


@pytest.mark.parametrize("params", [HAHN, KRAW], ids=lambda p: p.family)
@pytest.mark.parametrize("slot, delta", [(None, 0), (0, R(1, 3)), (1, R(-2, 5)), (2, R(1, 7))])
def test_boundary_safety_matches_the_rational_oracle(params, slot, delta, monkeypatch):
    if slot is not None:
        perturb_rate_constant(monkeypatch, params, slot, delta)
    report = V.boundary_safety_check(V.SuiteContext(params))
    expected = oracle_boundary_safety(params, family_lattice(params))
    assert (report.status, report.max_defect, report.detail) == expected
    assert (expected[0] == "pass") == (slot in (None, 2))


def rationals(top: int, den_max: int = 12):
    """Positive rationals p/q with p <= top and q <= den_max."""
    return st.builds(R, st.integers(1, top), st.integers(1, den_max))


@st.composite
def small_instances(draw):
    """A small instance of any family, n=2: N <= 4, or a Meixner box xmax <= 4
    with |a| < 1 and beta = p/q, q <= 4."""
    family = draw(st.sampled_from(["hahn", "krawtchouk", "meixner"]))
    if family == "meixner":
        q = draw(st.integers(3, 12))
        p1 = draw(st.integers(1, q - 2))
        a = (R(p1, q), R(draw(st.integers(1, q - 1 - p1)), q))
        return MeixnerParams(a, draw(rationals(12, 4))), draw(st.integers(1, 4))
    a = (draw(rationals(6)), draw(rationals(6)))
    N = draw(st.integers(3, 4))  # the bounded families need N > n
    if family == "hahn":
        return HahnParams(a, draw(rationals(6)), N), None
    return KrawtchoukParams(a, N), None


@given(small_instances())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_small_random_instances_pass_the_suite(instance):
    params, xmax = instance
    bad = [r.instance for r in V.run_suite(params, xmax=xmax) if r.status == "fail"]
    assert not bad, (params.label, xmax, bad)


@pytest.mark.parametrize(
    "params, xmax",
    [(HAHN2, None), (KRAW, None), (MEIX, 10)],
)
def test_run_suite_all_green(params, xmax):
    reports = V.run_suite(params, xmax=xmax)
    assert reports, "suite must produce reports"
    bad = [r for r in reports if r.status == "fail"]
    assert not bad, [r.instance for r in bad]
    # deterministic identical rerun
    again = V.run_suite(params, xmax=xmax)
    assert [r.name for r in reports] == [r.name for r in again]
    assert [r.status for r in reports] == [r.status for r in again]


def test_text_row_and_details_format_huge_values():
    from fractions import Fraction

    from mvortho.serialize import sci_str

    row = V.CheckReport("gram", "inst", "fail", max_defect=Fraction(10**400, 3)).text_row()
    assert "~3.333e+399" in row
    assert sci_str(-R(10**400) * 7) == "-7.000e+400"
    assert sci_str(R(99995) * 10**400) == "1.000e+405"  # rounds half to even
    for q in (R(1, 3), R(-22, 7), R(10**300, 7), R(1, 10**320), R(0)):
        assert sci_str(q) == f"{float(q):.3e}"
    row = V.CheckReport("gram", "inst", "fail", max_defect=R(10**30, 7)).text_row()
    assert f"~{float(R(10**30, 7)):.3e}" in row


@pytest.mark.parametrize("q, estimate", [
    (R(10**400 - 1), 400),  # the float estimate of floor(log10 q) is one too high
    (R(10**400 * 868289 + 1, 868289), 399),  # one too low, just above 10^400
])
def test_sci_str_corrects_the_exponent_estimate_beyond_the_float_range(q, estimate):
    """Both corrections of the exponent, against decimal arithmetic at
    1,000 digits as the exact oracle."""
    from decimal import Decimal, localcontext

    from mvortho.serialize import sci_str

    assert math.floor(math.log10(q.numerator) - math.log10(q.denominator)) == estimate
    with localcontext() as context:
        context.prec = 1000
        expected = format(Decimal(q.numerator) / Decimal(q.denominator), ".3e")
    assert sci_str(q) == expected == "1.000e+400"
    assert sci_str(-q) == "-" + expected


def test_cli_rejects_point_of_wrong_dimension(capsys):
    from mvortho.cli import main

    argv = ["eval", "--family", "hahn", "--a", "1,2", "--b", "2", "--N", "5",
            "--m", "1,1", "--x", "1,2,3"]
    assert main(argv) == 2
    assert "coordinates" in capsys.readouterr().err
    assert main(argv[:-1] + ["1,2"]) == 0


def test_cli_float_overflow_exits_2_with_one_line(capsys):
    from mvortho.cli import main

    argv = ["export", "--family", "hahn", "--a", "1" + "0" * 400 + ",2", "--b", "2",
            "--N", "3", "--what", "operator", "--op", "total", "--format", "json"]
    assert main(argv + ["--float"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert main(argv) == 0


def test_cli_rejects_a_meixner_box_below_one(capsys):
    from mvortho.cli import main

    base = ["--family", "meixner", "--a", "1/5,1/4", "--beta", "2"]
    for extra in ([], ["--check", "normalization"], ["--check", "gram"]):
        assert main(["verify", *base, "--xmax", "0", *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "xmax" in err
    # eval and export keep the one-point box; one shell is enough for the suite
    assert main(["eval", *base, "--xmax", "0", "--m", "0,1"]) == 0
    assert main(["export", *base, "--xmax", "0", "--what", "weights"]) == 0
    assert main(["export", *base, "--xmax", "0", "--what", "gram"]) == 0
    assert main(["verify", *base, "--xmax", "1"]) == 0


@pytest.mark.parametrize("argv, message", [
    (["eval", "--family", "hahn", "--a", "1,2", "--b", "2", "--N", "3", "--m", "1,1",
      "--x", "9,9"], "exceeds N"),
    (["eval", "--family", "hahn", "--a", "1,2", "--b", "2", "--N", "3", "--m", "1,1",
      "--x=-1,2"], "non-negative"),
    (["eval", "--family", "meixner", "--a", "1/2,1/3", "--beta", "2", "--m", "1,1",
      "--x", "2,-1"], "non-negative"),
    (["verify", "--family", "hahn", "--a", "1,2", "--b", "2", "--N", "3", "--m-max", "-1"],
     "--m-max"),
    (["export", "--family", "krawtchouk", "--a", "1,2", "--N", "3", "--what", "gram",
      "--m-max", "-1"], "--m-max"),
    # a flag the family does not take
    (["verify", "--family", "meixner", "--a", "1/2,1/3", "--beta", "2", "--N", "5"],
     "meixner takes no --N"),
    (["verify", "--family", "meixner", "--a", "1/2,1/3", "--beta", "2", "--b", "2"],
     "meixner takes no --b"),
    (["verify", "--family", "hahn", "--a", "1,2", "--b", "2", "--N", "3", "--beta", "9",
      "--xmax", "3"], "hahn takes no --beta"),
    (["verify", "--family", "hahn", "--a", "1,2", "--b", "2", "--N", "3", "--xmax", "3"],
     "hahn takes no --xmax"),
    (["eval", "--family", "krawtchouk", "--a", "1,2", "--N", "3", "--m", "1,0", "--b", "7"],
     "krawtchouk takes no --b"),
    (["export", "--family", "krawtchouk", "--a", "1,2", "--N", "3", "--what", "weights",
      "--xmax", "0"], "krawtchouk takes no --xmax"),
    # --m and --x take comma-separated integers
    (["eval", "--family", "hahn", "--a", "1,2", "--b", "2", "--N", "3", "--m", "0,0",
      "--x=1/2,1"], "--x must be comma-separated integers, got '1/2,1'"),
    (["eval", "--family", "hahn", "--a", "1,2", "--b", "2", "--N", "3", "--m", "1/2,0",
      "--x", "1,1"], "--m must be comma-separated integers, got '1/2,0'"),
    (["eval", "--family", "hahn", "--a", "1,2", "--b", "2", "--N", "3", "--m", "0,0",
      "--x", "1,,1"], "--x must be comma-separated integers, got '1,,1'"),
    (["eval", "--family", "hahn", "--a", "1,2", "--b", "2", "--N", "3", "--m", "0,0",
      "--x", "1,a"], "--x must be comma-separated integers, got '1,a'"),
    # an m_max above N, before any check runs, with one message for every check
    (["verify", "--family", "hahn", "--a", "1,2,3", "--b", "2", "--N", "5", "--m-max", "9"],
     "need m_max <= N, got m_max = 9 and N = 5"),
    (["verify", "--family", "hahn", "--a", "1,2,3", "--b", "2", "--N", "5", "--m-max", "9",
      "--check", "gram"], "need m_max <= N, got m_max = 9 and N = 5"),
    # the Meixner lattice of a table or an export needs its box
    *[([*argv, "--family", "meixner", "--a", "1/2,1/3", "--beta", "2"], "meixner needs --xmax")
      for argv in (["eval", "--m", "1,1"], ["export", "--what", "weights"],
                   ["export", "--what", "operator"], ["export", "--what", "gram"])],
])
def test_cli_rejects_points_off_the_lattice_and_negative_degrees(argv, message, capsys):
    from mvortho.cli import main

    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("argv", [
    ["eval", "--m", "1,1"],
    ["export", "--what", "weights"],
    ["export", "--what", "operator"],
    ["export", "--what", "gram"],
    ["verify"],
    ["eval", "--m", "1,1", "--x", "1,1"],
])
def test_cli_rejects_a_negative_xmax_where_it_is_read(argv, capsys):
    from mvortho.cli import main

    meixner = ["--family", "meixner", "--a", "1/2,1/3", "--beta", "2"]
    assert main([*argv, *meixner, "--xmax", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --xmax must be >= 0, got -1\n"


def test_cli_accepts_the_lattice_edge():
    from mvortho.cli import main

    hahn = ["--family", "hahn", "--a", "1,2", "--b", "2", "--N", "3"]
    assert main(["eval", *hahn, "--m", "1,1", "--x", "3,0"]) == 0
    assert main(["eval", "--family", "meixner", "--a", "1/2,1/3", "--beta", "2",
                 "--m", "1,1", "--x", "20,0"]) == 0
    assert main(["verify", *hahn, "--m-max", "0", "--check", "eigen"]) == 0


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "mvortho", "verify", "--family", "hahn", "--a", "1,2",
            "--b", "2", "--N", "3", "--check", "normalization"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("PASS  normalization")
