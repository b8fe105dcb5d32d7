import pytest

from mvortho import R, HahnParams, KrawtchoukParams, MeixnerParams
from mvortho import verify as V

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


def test_eigen_check_single_instances():
    r = V.eigen_check(V.SuiteContext(HAHN), "total", (1, 1, 0))
    assert r.status == "pass" and r.max_defect == 0
    r = V.eigen_check(V.SuiteContext(HAHN), "exchange", (1, 1, 0), index=2)
    assert r.status == "pass"
    r = V.eigen_check(V.SuiteContext(MEIX, xmax=10), "total", (2, 1))
    assert r.status == "pass"


def test_eigen_check_m0_zero_mode():
    for kind, index in (("total", None), ("single", None), ("exchange", 1)):
        r = V.eigen_check(V.SuiteContext(HAHN), kind, (0, 0, 0), index=index)
        assert r.status == "pass" and r.max_defect == 0


def test_degree_one_total_eigenvalue_is_parameter_sum():
    # first excited eigenvalue of the total operator is |a| + b
    from mvortho import eigenvalue

    for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        assert eigenvalue(HAHN, "total", None, m) == HAHN.a_total + HAHN.b
        assert V.eigen_check(V.SuiteContext(HAHN), "total", m).status == "pass"


def test_eigen_suite_and_degeneracy():
    reports = V.eigen_suite(V.SuiteContext(HAHN2), 3)
    assert all(r.status == "pass" for r in reports)
    names = {r.name for r in reports}
    assert "eigen-suite" in names and "eigen-degeneracy" in names


def test_wrong_eigenvalue_fails():
    from mvortho import OperatorSpec, eigenpoly_table, operator_matrix
    from mvortho.core import family_lattice

    lat = family_lattice(HAHN)
    table = eigenpoly_table((1, 0, 0), HAHN, lat)
    total = operator_matrix(OperatorSpec(HAHN, "total"), lat)
    defect, _ = V.residual_defect(total, table, R(0))
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
    res = V.gram_check(V.SuiteContext(HAHN2), 4)
    assert res.report.status == "pass"
    size = len(res.degrees)
    for i in range(size):
        assert res.matrix[i][i] > 0
        for j in range(size):
            if i != j:
                assert res.matrix[i][j] == 0
    assert V.gram_check(V.SuiteContext(KRAW), 3).report.status == "pass"


def test_gram_meixner_within_tail_bounds():
    res = V.gram_check(V.SuiteContext(MEIX, xmax=20), 1)
    assert res.report.status == "pass"
    assert res.tolerance is not None and res.tolerance > 0
    for (pair, bound) in res.bounds:
        assert bound > 0
    # all diagonals positive, off-diagonals within their bounds
    size = len(res.degrees)
    for i in range(size):
        assert res.matrix[i][i] > 0


def test_gram_meixner_larger_degrees_need_larger_box():
    # at a deep box even the degree <= 2 Gram passes its tail bounds
    res = V.gram_check(V.SuiteContext(MEIX, xmax=40), 2, extend=30)
    assert res.report.status == "pass"


def test_poly_coefficients_round_trip():
    coeffs = V.poly_coefficients(
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
    from mvortho import eigenpoly
    from mvortho.core import enumerate_degrees

    for m in enumerate_degrees(params.n, 3):
        fn = lambda x, m=m: eigenpoly(m, x, params)
        coeffs = V.poly_coefficients(fn, params.n, 3)
        assert coeffs == grid_poly_coefficients(fn, params.n, 3), m
        assert max(map(sum, coeffs)) == sum(m)


def test_meixner_product_tail_bound_dominates_true_tail():
    # true absolute tail of sum p*q*W beyond the box, brute-forced deep
    from mvortho.measures import meixner_weight, weight_table

    coeffs = V.poly_coefficients(lambda x: R(x[0]) - x[1], 2, 1)
    bound = V.meixner_product_tail_bound(weight_table(MEIX, xmax=30), coeffs, coeffs, 10)
    from mvortho.core import compositions

    true_tail = R(0)
    for s in range(11, 200):
        for x in compositions(s, 2):
            v = (R(x[0]) - x[1]) ** 2 * meixner_weight(x, MEIX)
            true_tail += v
    assert true_tail <= bound


def test_completeness():
    assert V.completeness_check(V.SuiteContext(HAHN2)).status == "pass"
    assert V.completeness_check(V.SuiteContext(MEIX)).status == "skipped"


def test_completeness_fails_on_non_diagonal_gram(monkeypatch):
    gram = V.gram_matrix

    def gram_with_offdiagonal(tables, w, known=()):
        G = gram(tables, w, known)
        G[0][1] = G[1][0] = R(1, 3)
        return G

    monkeypatch.setattr(V, "gram_matrix", gram_with_offdiagonal)
    report = V.completeness_check(V.SuiteContext(HAHN2))
    assert report.status == "fail"
    assert "diagonal" in report.detail


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
    assert gram_matrix(tables, weight_table(HAHN), small) == fresh


def test_suite_builds_each_stencil_and_table_once(monkeypatch):
    from mvortho.core import enumerate_degrees

    params = HahnParams((R(1), R(2), R(3)), R(2), 5)
    built, degrees = [], []
    build, tabulate = V.operator_matrix, V.eigenpoly_tables

    def counted_build(op, lattice=None):
        built.append(op.label)
        return build(op, lattice)

    def counted_tables(degs, params, lattice):
        degrees.extend(tuple(m) for m in degs)
        return tabulate(degs, params, lattice)

    monkeypatch.setattr(V, "operator_matrix", counted_build)
    monkeypatch.setattr(V, "eigenpoly_tables", counted_tables)
    reports = V.run_suite(params)
    assert reports and not any(r.status == "fail" for r in reports)
    assert sorted(built) == ["exchange1", "exchange2", "single", "total"]
    assert sorted(degrees) == sorted(enumerate_degrees(3, 5))


def test_perturbed_pair_row_fails_eigen_and_pair_shifts(monkeypatch):
    """The checks read the cached row kernel: c_m + 1 in every Hahn pair row
    must fail them.  The wrapper sits in front of the cache, so no perturbed
    row is ever cached."""
    from mvortho import polynomials as P

    cached = P._hahn_pair_row

    def perturbed(m, alpha, gamma):
        nums, den = cached(m, alpha, gamma)
        return nums[:-1] + (nums[-1] + den,), den

    monkeypatch.setattr(P, "_hahn_pair_row", perturbed)
    failed = {r.name for r in V.run_suite(HAHN) if r.status == "fail"}
    assert {"eigen-suite", "pair-shifts"} <= failed


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
    weight = type(params).weight
    interior = (1, 1, 1)  # |x| = 3 < N = 4, every coordinate positive

    def doubled(self, x):
        return 2 * weight(self, x) if tuple(x) == interior else weight(self, x)

    assert V.compatibility_check(V.SuiteContext(params)).status == "pass"
    assert V.adjointness_check(V.SuiteContext(params)).status == "pass"
    monkeypatch.setattr(type(params), "weight", doubled)
    compat = V.compatibility_check(V.SuiteContext(params))
    adjoint = V.adjointness_check(V.SuiteContext(params))
    assert compat.status == "fail" and compat.max_defect > 0
    assert adjoint.status == "fail" and adjoint.max_defect > 0


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
])
def test_cli_rejects_points_off_the_lattice_and_negative_degrees(argv, message, capsys):
    from mvortho.cli import main

    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_cli_accepts_the_lattice_edge():
    from mvortho.cli import main

    hahn = ["--family", "hahn", "--a", "1,2", "--b", "2", "--N", "3"]
    assert main(["eval", *hahn, "--m", "1,1", "--x", "3,0"]) == 0
    assert main(["eval", "--family", "meixner", "--a", "1/2,1/3", "--beta", "2",
                 "--m", "1,1", "--x", "20,0"]) == 0
    assert main(["verify", *hahn, "--m-max", "0", "--check", "eigen"]) == 0
