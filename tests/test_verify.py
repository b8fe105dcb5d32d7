import dataclasses
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvortho import (R, HahnParams, KrawtchoukParams, LatticeFunction, MeixnerParams, eigenpoly,
                     eigenpoly_tables, eigenvalue, gram_matrix, weight_table)
from mvortho import verify as V
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
    ctx._tables[(4, (1, 1))] = LatticeFunction(table.lattice, [nums[0] + den, *nums[1:]], den)
    report = V.eigen_degeneracy_check(ctx, 3)
    assert report.status == "fail" and report.max_defect > 0
    monkeypatch.setattr(V, "eigenvalue", lambda *args: eigenvalue(*args) + R(1, 7))
    assert V.eigen_degeneracy_check(V.SuiteContext(HAHN2), 3).status == "fail"


def test_eigen_checks_form_each_eigenvalue_once_per_partial_degree(monkeypatch):
    """One eigenvalue per (operator, |m| or S_i): for n = 3, |m| <= 3, that is
    4 total, 10 single (|m|, S_1), 4 exchange(1) and 4 exchange(2) values."""
    calls = []

    def counted(params, kind, index, m):
        calls.append((kind, index, tuple(m)))
        return eigenvalue(params, kind, index, m)

    monkeypatch.setattr(V, "eigenvalue", counted)
    params = KrawtchoukParams((R(1, 2), R(1, 3), R(2)), 6)
    reports = V.run_checks(params, ["eigen"])
    assert [r.status for r in reports] == ["pass", "pass"]
    kinds = [kind if index is None else f"{kind}{index}" for kind, index, _ in calls]
    assert sorted(kinds) == sorted(["total"] * 4 + ["single"] * 10
                                   + ["exchange1"] * 4 + ["exchange2"] * 4)
    reports = V.run_suite(params)
    assert not any(r.status == "fail" for r in reports)


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
    assert V.rodrigues_check(6, R(1, 2), R(7, 3), 6).status == "pass"


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
    G = ctx.gram(4)
    for i in range(len(G)):
        assert G[i][i] > 0
        for j in range(len(G)):
            if i != j:
                assert G[i][j] == 0
    assert V.gram_check(V.SuiteContext(KRAW), 3).status == "pass"


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


def eval_coeffs(coeffs: dict, x):
    return sum((c * math.prod(R(xi) ** e for xi, e in zip(x, exps))
                for exps, c in coeffs.items()), R(0))


def meixner_product_tail_bound(w, coeff_p: dict, coeff_q: dict, xmax: int):
    """Rigorous bound on sum_{|x| > xmax} |p(x) q(x)| W(x).

    ``w`` is the Meixner weight table on a box |x| <= xmax + extend.
    Exact sums of |p q| W over its points with |x| > xmax; beyond the
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

    head = sum((abs(eval_coeffs(coeff_p, x) * eval_coeffs(coeff_q, x)) * wx
                for x, wx in zip(w.lattice.points, w.values) if sum(x) > xmax), R(0))
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
        G = ctx.gram(degree)
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
    assert V.SuiteContext(MEIX, xmax=1).gram(2)[3][3] == 0
    for xmax in range(1, 8):
        ctx = V.SuiteContext(MEIX, xmax=xmax)
        report = V.gram_check(ctx, 2)
        assert report.status == "pass", xmax
        G = ctx.gram(2)
        assert report.max_defect == max(abs(G[i][j]) for i in range(len(G)) for j in range(i))


def test_moments_of_another_beta_fail_meixner_gram(monkeypatch):
    params = MeixnerParams((R(1, 5), R(1, 4)), R(2))
    moments = V.meixner_moments
    assert V.gram_check(V.SuiteContext(params), 1).status == "pass"
    monkeypatch.setattr(V, "meixner_moments",
                        lambda p, K: moments(dataclasses.replace(p, beta=p.beta + 1), K))
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
    assert lattice_inner_product(one, pair, V.meixner_moments(params, 2)) == R(-16, 11)
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
    ctx._tables[params.N, m] = LatticeFunction(table.lattice, [0] * table.lattice.size, 1)
    report = V.completeness_check(ctx)
    assert (report.status, report.detail) == ("fail", f"P_{m} vanishes")
    assert oracle_completeness(ctx)[0] == "fail"
    # one changed value: no eigenvector any more
    ctx = V.SuiteContext(params)
    nums, den = table.integer_form()
    ctx._tables[params.N, m] = LatticeFunction(table.lattice, [*nums[:-1], nums[-1] + den], den)
    report = V.completeness_check(ctx)
    assert report.status == "fail" and report.max_defect > 0
    assert "not an eigenvector" in report.detail
    # a perturbed rate constant: the stencils are no longer W-self-adjoint
    perturb_birth_rate(monkeypatch, params)
    report = V.completeness_check(V.SuiteContext(params))
    assert report.status == "fail" and report.max_defect > 0
    assert "not W-self-adjoint" in report.detail


def test_completeness_fails_on_a_stencil_row_without_an_image():
    """A total stencil whose last row is emptied and marked invalid gives no
    image there, so its residuals do not cover every row: not a basis proof."""
    ctx = V.SuiteContext(HAHN)
    H = ctx.stencil("total")
    ctx._stencils["total", None] = dataclasses.replace(
        H, rows=(*H.rows[:-1], {}), valid_rows=(*H.valid_rows[:-1], False))
    report = V.completeness_check(ctx)
    assert report.status == "fail"
    assert "total" in report.detail and report.detail.endswith("on every row")


def collide(monkeypatch, m1, m2):
    """Give P_m2 the joint eigenvalues of P_m1 in ``SuiteContext.eigenvalue``."""
    eigenvalue = V.SuiteContext.eigenvalue

    def collided(self, kind, index, m):
        return eigenvalue(self, kind, index, m1 if tuple(m) == m2 else m)

    monkeypatch.setattr(V.SuiteContext, "eigenvalue", collided)


def test_completeness_takes_the_cluster_path_on_equal_joint_eigenvalues(monkeypatch):
    """A forced collision of two joint eigenvalue tuples: the residuals are
    the context's, formed against the closed-form eigenvalues before, so the
    check passes on the Gram block of the cluster, and fails once a table
    of the cluster is not orthogonal to the other (as a second eigenvector
    of a degenerate eigenvalue need not be)."""
    ctx = V.SuiteContext(HAHN2)
    assert V.completeness_check(ctx).status == "pass"
    m1, m2 = (0, 2), (1, 1)
    collide(monkeypatch, m1, m2)
    grams = []
    gram = V.gram_matrix
    monkeypatch.setattr(V, "gram_matrix", lambda *args: grams.append(args) or gram(*args))
    report = V.completeness_check(ctx)
    assert (report.status, report.max_defect) == ("pass", 0)
    assert "equal joint eigenvalues in 1 clusters" in report.detail
    assert [tables for tables, _ in grams] == [ctx.tables([m1, m2])]
    (t1, t2) = ctx.tables([m1, m2])
    (n1, d1), (n2, d2) = t1.integer_form(), t2.integer_form()
    ctx._tables[HAHN2.N, m2] = LatticeFunction(
        t2.lattice, [a * d2 + b * d1 for a, b in zip(n1, n2)], d1 * d2)
    report = V.completeness_check(ctx)
    assert (report.status, report.detail) == (
        "fail", f"Gram block of equal joint eigenvalues: off-diagonal {m1},{m2} nonzero")


def test_completeness_fails_on_non_diagonal_gram(monkeypatch):
    gram = V.gram_matrix

    def gram_with_offdiagonal(tables, w):
        G = gram(tables, w)
        G[0][1] = G[1][0] = R(1, 3)
        return G

    ctx = V.SuiteContext(HAHN2)
    assert V.completeness_check(ctx).status == "pass"
    collide(monkeypatch, (0, 1), (1, 0))
    monkeypatch.setattr(V, "gram_matrix", gram_with_offdiagonal)
    report = V.completeness_check(ctx)
    assert report.status == "fail"
    assert "off-diagonal" in report.detail


def test_suite_forms_each_residual_once_in_one_call_per_stencil_and_degree(monkeypatch):
    """Hahn n=3 N=5, m_max 3: the eigen check makes one call per stencil over
    the 20 P_m of |m| <= 3, type-one one call over its 28 (J, m) tables, glue
    reads the eigen check's residuals, and completeness adds the degrees 4
    and 5 on total, exchange1 and exchange2, one call per degree."""
    calls = []
    kernel = V.residual_defects

    def counted(H, tables, eigenvalues):
        calls.append((H.op.label, len(tables)))
        return kernel(H, tables, eigenvalues)

    monkeypatch.setattr(V, "residual_defects", counted)
    reports = V.run_suite(HahnParams((R(1), R(2), R(3)), R(2), 5))
    assert not any(r.status == "fail" for r in reports)
    ops = ["total", "exchange1", "exchange2"]
    assert calls == ([(op, 20) for op in ["total", "single", *ops[1:]]] + [("total", 28)]
                     + [(op, 15) for op in ops] + [(op, 21) for op in ops])


def test_context_gram_keeps_the_block_of_a_smaller_degree():
    from mvortho import eigenpoly_tables, gram_matrix, weight_table
    from mvortho.core import enumerate_degrees, family_lattice

    ctx = V.SuiteContext(HAHN)
    small = ctx.gram(2)
    full = ctx.gram(HAHN.N)
    tables = eigenpoly_tables(enumerate_degrees(3, HAHN.N), HAHN, family_lattice(HAHN))
    fresh = gram_matrix(tables, weight_table(HAHN))
    assert full == fresh
    assert small == [row[:len(small)] for row in fresh[:len(small)]]
    assert ctx.gram(3) == [row[:20] for row in fresh[:20]]


def test_suite_builds_each_stencil_and_table_once(monkeypatch):
    from collections import Counter

    from mvortho.core import enumerate_degrees

    params = HahnParams((R(1), R(2), R(3)), R(2), 5)
    built, tables = [], []
    build, tabulate = V.operator_matrix, V.eigenpoly_tables

    def counted_build(op, lattice=None):
        built.append(op.label)
        return build(op, lattice)

    def counted_tables(degs, params, lattice, factors=None):
        tables.extend((lattice.bound, tuple(m)) for m in degs)
        return tabulate(degs, params, lattice, factors)

    monkeypatch.setattr(V, "operator_matrix", counted_build)
    monkeypatch.setattr(V, "eigenpoly_tables", counted_tables)
    reports = V.run_suite(params)
    assert reports and not any(r.status == "fail" for r in reports)
    assert sorted(built) == ["exchange1", "exchange2", "single", "total"]
    # each (lattice, m) once: every |m| <= N on the instance lattice, and the
    # chained products of generalized-recursions one shell further out
    assert max(Counter(tables).values()) == 1
    assert sorted(m for bound, m in tables if bound == 5) == sorted(enumerate_degrees(3, 5))
    assert {bound for bound, _ in tables} == {5, 6}


@pytest.mark.parametrize("params, xmax", [(HAHN, None), (KRAW, None), (MEIX, 4)])
def test_suite_tables_carry_their_lcm_integer_form(params, xmax):
    """Every P_m table of a suite comes with its integer form, and that form
    is the values over their lcm denominator: the Gram and the residuals get
    no wider integers than rescaling the values would give them."""
    from mvortho._backend import integer_scaled

    ctx = V.SuiteContext(params, xmax=xmax)
    for name in V.SUITE:
        V.CHECKS[name](ctx)
    assert {bound for bound, _ in ctx._tables} > {ctx.lattice.bound}
    for table in [*ctx._tables.values(), *ctx._type_one.values()]:
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
    a_J: the suite evaluates one grid over x_J = 0..N per (m, a_J).  With
    a = 1, 2, 3 the 7 subsets give 6 sums a_J ({3} and {1, 2} share 3), so
    6 sums x degrees 0..3."""
    params = HahnParams((R(1), R(2), R(3)), R(2), 5)
    type_one, calls = HahnParams.type_one, []

    def counted(self, m, aJ, sums):
        calls.append((m, aJ))
        assert list(sums) == list(range(params.N + 1))
        return type_one(self, m, aJ, sums)

    monkeypatch.setattr(HahnParams, "type_one", counted)
    reports = V.run_suite(params)
    assert not any(r.status == "fail" for r in reports)
    assert len(calls) == len(set(calls)) == 6 * 4 == 24


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


def test_pair_orthogonality_reports():
    assert V.pair_orthogonality_report(V.SuiteContext(HAHN), 1).status == "pass"
    assert V.pair_orthogonality_report(V.SuiteContext(HAHN), 2).status == "pass"
    assert V.pair_orthogonality_report(V.SuiteContext(KRAW), 2).status == "pass"
    meix3 = MeixnerParams((R(1, 8), R(1, 8), R(1, 8)), R(2))
    assert V.pair_orthogonality_report(V.SuiteContext(meix3, xmax=20), 1).status == "pass"


def test_limit_checks():
    ts = (100, 10_000, 1_000_000)
    a3 = (R(1, 3), R(1, 2), R(1, 4))
    kraw = KrawtchoukParams(a3, 5)
    assert V.limit_check(ts, (1, 1, 0), (1, 1, 2), kraw).status == "pass"
    assert V.limit_check(ts, (0, 0, 0), (1, 0, 1), kraw).status == "pass"
    meix = MeixnerParams((R(1, 4), R(1, 4)), R(2))
    assert V.limit_check(ts, (1, 1), (2, 1), meix).status == "pass"
    assert V.limit_check(ts, (0, 3), (2, 1), meix).status == "pass"
    with pytest.raises(ValueError, match="krawtchouk and meixner"):
        V.limit_check(ts, (1, 0, 0), (1, 0, 1), HAHN)


def test_limit_single_variable_sanity():
    # classic single-variable limit: H_m(x; a t, (1-a) t, N) -> K_m(x; a, N)
    from mvortho import hahn, krawtchouk

    a, N = R(2, 5), 6
    for m in (1, 2, 3):
        for x in (0, 2, 5):
            devs = []
            for t in (10**2, 10**4, 10**6):
                devs.append(hahn(m, x, a * t, (1 - a) * t, N) - krawtchouk(m, x, a, N))
            status, _ = V._limit_protocol(devs, (10**2, 10**4, 10**6))
            assert status == "pass"


def test_limit_protocol_rejects_slow_convergence():
    status, _ = V._limit_protocol([R(1), R(1, 2)], (100, 10_000))
    assert status == "fail"


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
    monkeypatch.setattr(measures, "_weight_products", doubled)
    compat = V.compatibility_check(V.SuiteContext(params))
    adjoint = V.adjointness_check(V.SuiteContext(params))
    assert compat.status == "fail" and compat.max_defect > 0
    assert adjoint.status == "fail" and adjoint.max_defect > 0


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
