"""The scalar identity checks on integers against their Fraction oracle.

The six checks below read every pair, Hahn and chain value once, over one
denominator: the single-variable values as integer grids, the pair and
chain values as tables on the shared simplices, whose neighbours they
read through ``Lattice.steps``.  They form one rational per
(identity, degree).  The oracle bodies here evaluate the same identities
one Fraction at a time through the pointwise functions, as the checks
did before.  Both must give the same report, exact ``max_defect``
included, on passing instances and under every perturbation that makes
a check fail.
"""

import pytest

from mvortho import R, HahnParams, KrawtchoukParams, MeixnerParams
from mvortho import polynomials as P
from mvortho import verify as V
from mvortho._backend import ZERO
from mvortho.core import Lattice
from mvortho.polynomials import hahn, hahn_pair, km_pair
from mvortho.serialize import rational_str
from test_core import table_of
from test_polynomials import fraction_backward_table

HAHN = HahnParams((R(1), R(2), R(3)), R(2), 5)
KRAW = KrawtchoukParams((R(1, 2), R(1, 3), R(2)), 6)
MEIX = MeixnerParams((R(1, 5), R(1, 4)), R(2))


# ---------------------------------------------------------------------------
# the Fraction oracle


def oracle_sv_shift_check(a, b, N, deg_max):
    a, b = R(a), R(b)

    def defects():
        for m in range(deg_max + 1):
            for x in range(N + 1):
                if m >= 1:
                    yield (hahn(m, x, a, b, N) - hahn(m, x + 1, a, b, N)
                           - R(m) * (m + a + b - 1) / (a * N)
                           * hahn(m - 1, x, a + 1, b + 1, N - 1))
                yield ((N - x) * (x + a) * hahn(m, x, a + 1, b + 1, N - 1)
                       - R(x) * (N - x + b) * hahn(m, x - 1, a + 1, b + 1, N - 1)
                       - a * N * hahn(m + 1, x, a, b, N))

    inst = f"hahn-1v a={rational_str(a)} b={rational_str(b)} N={N} m<={deg_max}"
    return V._report("sv-shifts", inst, lambda: V._exact(defects()))


def oracle_sv_difference_equation_check(a, b, N, deg_max):
    a, b = R(a), R(b)

    def defects():
        for m in range(deg_max + 1):
            for x in range(N + 1):
                h = lambda t: hahn(m, t, a, b, N)
                yield ((N - x) * (x + a) * (h(x) - h(x + 1))
                       + R(x) * (N - x + b) * (h(x) - h(x - 1))
                       - R(m) * (m + a + b - 1) * h(x))

    return V._report("sv-difference-eq", f"hahn-1v N={N} m<={deg_max}",
                     lambda: V._exact(defects()))


def oracle_pair_shift_check(alpha, gamma, deg_max, box, family):
    alpha, gamma = R(alpha), R(gamma)
    poly, rate = pair_poly(family), family.pair_rate

    def defects():
        for m in range(deg_max + 1):
            c, d, alpha1, gamma1 = family.pair_shift(m, alpha, gamma)
            for u in range(box + 1):
                for v in range(box + 1 - u):
                    if m >= 1:
                        yield (poly(m, u, v + 1, alpha, gamma) - poly(m, u + 1, v, alpha, gamma)
                               - c * poly(m - 1, u, v, alpha1, gamma1))
                    yield (v * rate(u, alpha) * poly(m, u, v - 1, alpha1, gamma1)
                           - u * rate(v, gamma) * poly(m, u - 1, v, alpha1, gamma1)
                           - d * poly(m + 1, u, v, alpha, gamma))

    inst = (f"{family.pair_name}-pair alpha={rational_str(alpha)} gamma={rational_str(gamma)} "
            f"m<={deg_max} box={box}")
    return V._report("pair-shifts", inst, lambda: V._exact(defects()))


def oracle_pair_recursion_check(alpha, gamma, deg_max, box, family):
    alpha, gamma = R(alpha), R(gamma)
    rate = family.pair_rate

    def defects():
        for m in range(deg_max + 1):
            poly = lambda uu, vv: pair_poly(family)(m, uu, vv, alpha, gamma)
            for u in range(box + 1):
                for v in range(box + 1 - u):
                    fwd = rate(u, alpha) * poly(u + 1, v) + rate(v, gamma) * poly(u, v + 1)
                    yield fwd - rate(u + v + m, alpha + gamma) * poly(u, v)
                    bwd = R(u) * poly(u - 1, v) + R(v) * poly(u, v - 1)
                    yield bwd - (R(u + v) - m) * poly(u, v)

    inst = f"{family.pair_name}-pair m<={deg_max} box={box}"
    return V._report("pair-recursions", inst, lambda: V._exact(defects()))


def oracle_generalized_recursion_check(ctx, i, m):
    params = ctx.params
    if not 1 <= i <= params.n - 1:
        raise ValueError(f"sector index i = {i} outside [1, {params.n - 1}]")

    def defects():
        n = params.n
        deg = sum(m[i:])
        a_sum = sum(params.a[i - 1:], ZERO)
        (chain,) = ctx.tables([(0,) * i + tuple(m[i:])], ctx.lattice.bound + 1)
        for x in ctx.lattice.points:
            base = chain(x)
            fwd = bwd = ZERO
            for k in range(i, n + 1):
                xk = x[k - 1]
                fwd += params.pair_rate(xk, params.a[k - 1]) * chain(x[:k - 1] + (xk + 1,) + x[k:])
                if xk:
                    bwd += xk * chain(x[:k - 1] + (xk - 1,) + x[k:])
            tailx = sum(x[i - 1:])
            yield fwd - params.pair_rate(tailx + deg, a_sum) * base
            yield bwd - (tailx - deg) * base

    return V._report("generalized-recursions", f"{params.label} i={i} m={tuple(m)}",
                     lambda: V._exact(defects()))


def oracle_rodrigues_check(m_max, alpha, gamma, box):
    def defects():
        for m in range(m_max + 1):
            built = V.pair_backward_table(m, alpha, gamma, box)
            for (u, v), got in zip(built.lattice.points, built.values):
                yield got - hahn_pair(m, u, v, alpha, gamma)

    inst = f"alpha={rational_str(R(alpha))} gamma={rational_str(R(gamma))} m<={m_max} box={box}"
    return V._report("rodrigues", inst, lambda: V._exact(defects()))


def pair_poly(family):
    """The pointwise pair polynomial whose sums ``family.pair_sums`` gives."""
    return hahn_pair if family.pair_name == "hahn" else km_pair


ORACLES = {
    "sv_shift_check": oracle_sv_shift_check,
    "sv_difference_equation_check": oracle_sv_difference_equation_check,
    "pair_shift_check": oracle_pair_shift_check,
    "pair_recursion_check": oracle_pair_recursion_check,
    "generalized_recursion_check": oracle_generalized_recursion_check,
    "rodrigues_check": oracle_rodrigues_check,
}
NAMES = ["shifts", "generalized-recursions", "rodrigues"]


def key(report):
    return report.name, report.instance, report.status, report.max_defect, report.detail


def both_routes(monkeypatch, run):
    """The report keys of ``run()`` on the integer route, then on the oracle."""
    fast = [key(r) for r in run()]
    with monkeypatch.context() as patch:
        for name, oracle in ORACLES.items():
            patch.setattr(V, name, oracle)
        slow = [key(r) for r in run()]
    return fast, slow


# ---------------------------------------------------------------------------
# passing instances


@pytest.mark.parametrize("params, xmax", [(HAHN, None), (KRAW, None), (MEIX, 4)])
@pytest.mark.parametrize("seed", [0, 3])
def test_suite_checks_match_the_oracle(params, xmax, seed, monkeypatch):
    fast, slow = both_routes(monkeypatch, lambda: V.run_checks(params, NAMES, xmax=xmax, seed=seed))
    assert fast == slow
    assert {status for _, _, status, _, _ in fast} == {"pass"}


def test_direct_calls_match_the_oracle(monkeypatch):
    """The suite's entries and the calls with other arguments: the pair
    checks on the family classes and a bundle, the single-variable checks
    at their largest degree."""
    def run():
        out = [V.sv_shift_check(R(3, 2), R(5, 4), 7, 5),
               V.sv_difference_equation_check(R(3, 2), R(5, 4), 6, 5)]
        for family in (HahnParams, KrawtchoukParams, MEIX):
            out.append(V.pair_shift_check(R(1, 2), R(7, 3), 5, 6, family))
            out.append(V.pair_recursion_check(R(3, 4), R(5, 3), 5, 6, family))
        out.append(V.rodrigues_check(6, R(1, 2), R(7, 3), 6))
        return out

    fast, slow = both_routes(monkeypatch, run)
    assert fast == slow


# ---------------------------------------------------------------------------
# the pair checks read the shared simplices, and share the chain's kernel


@pytest.mark.parametrize("family", [HahnParams, KrawtchoukParams, MeixnerParams])
def test_the_pair_checks_read_no_point_below_zero(family, monkeypatch):
    """Every point the pair checks pass to ``family.pair_sums`` has u, v >= 0
    and u + v <= box + 1: the box and its forward neighbours, on one simplex."""
    box, read = 4, []
    pair_sums = family.pair_sums

    def recorded(m, alpha, gamma, points):
        read.extend(points)
        return pair_sums(m, alpha, gamma, points)

    monkeypatch.setattr(family, "pair_sums", staticmethod(recorded))
    reports = [V.pair_shift_check(R(1, 2), R(7, 3), 3, box, family),
               V.pair_recursion_check(R(3, 4), R(5, 3), 3, box, family)]
    assert [r.status for r in reports] == ["pass", "pass"]
    assert read and all(u >= 0 and v >= 0 and u + v <= box + 1 for u, v in read)
    assert max(u + v for u, v in read) == box + 1


ALPHA, GAMMA, BOX = R(1, 3), R(1, 2), 4
TWO_SITES = [(HahnParams((ALPHA, GAMMA), R(2), BOX), None),
             (KrawtchoukParams((ALPHA, GAMMA), BOX), None),
             (MeixnerParams((ALPHA, GAMMA), R(3, 2)), BOX)]


@pytest.mark.parametrize("params, xmax", TWO_SITES)
@pytest.mark.parametrize("perturbed", [False, True])
def test_the_pair_and_chain_recursions_agree_on_two_sites(params, xmax, perturbed,
                                                          monkeypatch):
    """pair-recursions on (alpha, gamma) is the chain recursion of
    generalized-recursions on the two-site bundle a = (alpha, gamma), degree
    by degree: the same status and exact largest defect over k <= box, as
    passed and with the family's pair rate + 1."""
    family = type(params)
    if perturbed:
        pair_rate = family.pair_rate
        monkeypatch.setattr(family, "pair_rate",
                            staticmethod(lambda u, a: pair_rate(u, a) + 1))
    pair = V.pair_recursion_check(ALPHA, GAMMA, BOX, BOX, params)
    ctx = V.SuiteContext(params, xmax=xmax)
    chains = [V.generalized_recursion_check(ctx, 1, (0, k)) for k in range(BOX + 1)]
    status = "fail" if any(r.status == "fail" for r in chains) else "pass"
    assert (pair.status, pair.max_defect) == (status, max(r.max_defect for r in chains))
    assert pair.status == ("fail" if perturbed else "pass")


# ---------------------------------------------------------------------------
# each check can fail, with the oracle's exact defect


def failing(monkeypatch, run, expected):
    """Both routes fail exactly the ``expected`` checks with equal reports."""
    fast, slow = both_routes(monkeypatch, run)
    assert fast == slow
    assert {name for name, _, status, _, _ in fast if status == "fail"} == expected
    assert all(defect > 0 for _, _, status, defect, _ in fast if status == "fail")


@pytest.mark.parametrize("family", [HahnParams, KrawtchoukParams])
def test_shifted_pair_constant_fails_pair_shifts(family, monkeypatch):
    pair_shift = family.pair_shift

    def perturbed(m, alpha, gamma):
        c, *rest = pair_shift(m, alpha, gamma)
        return (c + R(1, 7), *rest)

    monkeypatch.setattr(family, "pair_shift", staticmethod(perturbed))
    failing(monkeypatch, lambda: [V.pair_shift_check(R(1, 2), R(7, 3), 4, 5, family)],
            {"pair-shifts"})


@pytest.mark.parametrize("family, params", [(HahnParams, HAHN), (KrawtchoukParams, KRAW)])
def test_shifted_pair_rate_fails_the_pair_and_chain_recursions(family, params, monkeypatch):
    """rate + 1 breaks the forward recursions and the backward shift relation."""
    pair_rate = family.pair_rate
    monkeypatch.setattr(family, "pair_rate", staticmethod(lambda u, a: pair_rate(u, a) + 1))
    failing(monkeypatch, lambda: V.run_checks(params, NAMES),
            {"pair-shifts", "pair-recursions", "generalized-recursions"})


def test_perturbed_km_pair_row_fails_the_meixner_pair_identities(monkeypatch):
    """The last coefficient + 1 of every km row of degree >= 1: the grids and
    the chained tables of a Meixner bundle read the perturbed rows."""
    cached = P._km_pair_row

    def perturbed(m, ratio):
        nums, den = cached(m, ratio)
        return (nums[:-1] + (nums[-1] + den,), den) if m else (nums, den)

    monkeypatch.setattr(P, "_km_pair_row", perturbed)
    failing(monkeypatch, lambda: V.run_checks(MEIX, NAMES, xmax=4),
            {"pair-shifts", "pair-recursions", "generalized-recursions"})


def test_perturbed_series_row_fails_the_single_variable_checks(monkeypatch):
    """The last coefficient + 1 of every series row of degree >= 1."""
    cached = P._series_row

    def perturbed(m, upper, lower, z):
        nums, den, pole = cached(m, upper, lower, z)
        return (nums[:-1] + (nums[-1] + den,), den, pole) if m else (nums, den, pole)

    monkeypatch.setattr(P, "_series_row", perturbed)
    failing(monkeypatch, lambda: V.run_checks(HAHN, ["shifts"]),
            {"sv-shifts", "sv-difference-eq"})


def test_constant_chain_fails_only_the_lowering_recursion(monkeypatch):
    """A constant R meets the raising recursion of the Krawtchouk rates
    (sum a_k = a_sum) but misses the lowering one by D R."""
    def constant(self, degrees, bound=None):
        lattice = Lattice(self.params.n, bound, self.lattice.truncated)
        return [table_of(lattice, lambda x: R(1)) for _ in degrees]

    monkeypatch.setattr(V.SuiteContext, "tables", constant)

    def run():
        ctx = V.SuiteContext(KRAW)
        return [V.generalized_recursion_check(ctx, i, (0, 1, 2)) for i in (1, 2)]

    fast, slow = both_routes(monkeypatch, run)
    assert fast == slow
    assert [(status, defect) for _, _, status, defect, _ in fast] == [("fail", 3), ("fail", 2)]


def test_chain_off_by_one_level_fails_rodrigues(monkeypatch):
    monkeypatch.setattr(V, "pair_backward_table",
                        lambda m, alpha, gamma, box: fraction_backward_table(m, alpha, gamma,
                                                                             box, 1))
    failing(monkeypatch, lambda: V.run_checks(HAHN, ["rodrigues"]), {"rodrigues"})


def test_single_variable_checks_raise_at_a_pole_like_the_oracle():
    # degree N at the shifted parameters (N - 1) meets (-N+1)_k = 0 before
    # it terminates, and the backward shift reads it at x = -1
    for check, oracle in ((V.sv_shift_check, oracle_sv_shift_check),
                          (V.sv_difference_equation_check, oracle_sv_difference_equation_check)):
        messages = []
        for fn in (check, oracle):
            with pytest.raises(ZeroDivisionError) as err:
                fn(R(1), R(2), 4, 5)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
