import math
import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mvortho import (
    R,
    HahnParams,
    KrawtchoukParams,
    LatticeFunction,
    MeixnerParams,
    gram_matrix,
    meixner_tail_mass_bound,
    meixner_weight,
    weight_table,
)
from mvortho._backend import integer_scaled
from mvortho.core import family_lattice, rising_factorial
from mvortho.measures import meixner_normalization, meixner_shell_mass
from test_core import multinomial, table_of
from test_operators import form_down_rate, form_up_rate

small_pos = st.integers(1, 12).flatmap(
    lambda p: st.integers(1, 12).map(lambda q: R(p, q))
)


# The closed forms of the three weights, term by term: the oracle of the
# integer weight rows (``weight_table`` and ``meixner_weight``).


def oracle_hahn_weight(x, a, b, N):
    """multinomial(N; x) prod (a_i)_{x_i} (b)_{N-|x|} / (|a|+b)_N."""
    out = R(multinomial(N, x))
    for ai, xi in zip(a, x):
        out *= rising_factorial(ai, xi)
    out *= rising_factorial(b, N - sum(x))
    return out / rising_factorial(sum(a, R(0)) + b, N)


def oracle_krawtchouk_weight(x, a, N):
    """multinomial(N; x) prod a_i^{x_i} / (1+|a|)^N."""
    out = R(multinomial(N, x))
    for ai, xi in zip(a, x):
        out *= R(ai) ** xi
    return out / (1 + sum(a, R(0))) ** N


def oracle_meixner_weight(x, params):
    """(beta)_{|x|} prod a_i^{x_i} / x_i!, times (1-|a|)^beta for integral beta."""
    out = rising_factorial(params.beta, sum(x))
    for ai, xi in zip(params.a, x):
        out *= R(ai) ** xi / math.factorial(xi)
    if params.beta.denominator == 1:
        out *= (1 - params.a_total) ** int(params.beta)
    return out


def oracle_weight(x, params):
    if params.family == "hahn":
        return oracle_hahn_weight(x, params.a, params.b, params.N)
    if params.family == "krawtchouk":
        return oracle_krawtchouk_weight(x, params.a, params.N)
    return oracle_meixner_weight(x, params)


@st.composite
def weight_instances(draw):
    """(params, xmax): every family, n = 2..4, N or xmax <= 6, integral and
    non-integral beta."""
    family = draw(st.sampled_from(["hahn", "krawtchouk", "meixner"]))
    n = draw(st.integers(2, 4))
    a = tuple(draw(small_pos) for _ in range(n))
    if family == "hahn":
        return HahnParams(a, draw(small_pos), draw(st.integers(n + 1, 6))), None
    if family == "krawtchouk":
        return KrawtchoukParams(a, draw(st.integers(n + 1, 6))), None
    beta = draw(st.one_of(st.integers(1, 4).map(R), small_pos))
    return MeixnerParams(tuple(v / (n * (v + 1)) for v in a), beta), draw(st.integers(1, 6))


def check_weights_against_oracle():
    """Without shrinking, like the other oracle runs: a broken row fails
    every draw, and shrinking would only rebuild tables."""

    @given(weight_instances())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              phases=(Phase.explicit, Phase.generate))
    def check(instance):
        params, xmax = instance
        w = weight_table(params, xmax=xmax)
        oracle = tuple(oracle_weight(x, params) for x in w.lattice.points)
        assert w.values == oracle
        if params.N is None:
            assert tuple(meixner_weight(x, params) for x in w.lattice.points) == oracle
        else:
            assert w.total == 1

    check()


def test_weight_tables_match_the_closed_forms():
    check_weights_against_oracle()


@pytest.mark.parametrize("family", [HahnParams, KrawtchoukParams, MeixnerParams])
def test_perturbed_radial_row_fails_the_weight_oracle(family, monkeypatch):
    weight_rows = family.weight_rows

    def perturbed(self, bound):
        rows, radial, c = weight_rows(self, bound)
        return rows, radial[:-1] + [radial[-1] + 1], c

    monkeypatch.setattr(family, "weight_rows", perturbed)
    with pytest.raises(AssertionError):
        check_weights_against_oracle()


def test_hahn_weight_hand_values():
    # hand evaluation of the n=2, N=1, a=(1,1), b=1 weight: all three
    # points carry 1/3.  N > n forbids that bundle, so evaluate the raw
    # formula; the bundled path is then checked on N=3.
    w = oracle_hahn_weight
    assert w((0, 0), (R(1), R(1)), R(1), 1) == R(1, 3)
    assert w((1, 0), (R(1), R(1)), R(1), 1) == R(1, 3)
    assert w((0, 1), (R(1), R(1)), R(1), 1) == R(1, 3)

    p = HahnParams((R(1), R(1)), R(1), 3)
    assert weight_table(p)((0, 0)) == w((0, 0), p.a, p.b, 3)


@given(st.integers(2, 3), st.integers(0, 3), st.data())
@settings(max_examples=25, deadline=None)
def test_hahn_weight_normalizes(n, extra, data):
    a = tuple(data.draw(small_pos) for _ in range(n))
    b = data.draw(small_pos)
    params = HahnParams(a, b, n + 1 + extra)
    assert weight_table(params).total == 1


def test_krawtchouk_weight_hand_values():
    # N=2 hand value embedded via the raw formula (params need N > n)
    w = oracle_krawtchouk_weight
    assert w((1, 1), (R(1), R(2)), 2) == R(1, 4)
    assert w((0, 0), (R(1), R(1)), 1) == R(1, 3)


@given(st.integers(2, 3), st.integers(0, 3), st.data())
@settings(max_examples=25, deadline=None)
def test_krawtchouk_weight_normalizes(n, extra, data):
    a = tuple(data.draw(small_pos) for _ in range(n))
    params = KrawtchoukParams(a, n + 1 + extra)
    assert weight_table(params).total == 1


def test_weight_rejects_overfull_point():
    # a point off the simplex has no entry in the table
    p = HahnParams((R(1), R(2)), R(3), 4)
    with pytest.raises(KeyError):
        weight_table(p)((3, 2))
    pk = KrawtchoukParams((R(1), R(2)), 4)
    with pytest.raises(KeyError):
        weight_table(pk)((3, 2))
    with pytest.raises(ValueError):
        meixner_weight((-1, 2), MeixnerParams((R(1, 4), R(1, 4)), R(2)))


def test_meixner_weight_hand_values():
    p = MeixnerParams((R(1, 4), R(1, 4)), R(2))
    assert meixner_weight((0, 0), p) == R(1, 4)  # (1-1/2)^2
    assert meixner_weight((1, 0), p) == R(1, 8)  # (2)_1 * 1/4 * (1/2)^2
    # the unnormalized value
    assert meixner_weight((1, 0), p) / meixner_normalization(p) == R(1, 2)


def test_meixner_non_integer_beta_unnormalized():
    p = MeixnerParams((R(1, 4), R(1, 4)), R(3, 2))
    w = weight_table(p, xmax=6)
    assert not w.normalized
    assert meixner_weight((0, 0), p) == 1
    assert meixner_normalization(p) is None


def test_meixner_partial_sums_increase_toward_one():
    p = MeixnerParams((R(1, 4), R(1, 4)), R(2))
    totals = [weight_table(p, xmax=x).total for x in (4, 8, 12, 16)]
    assert all(t0 < t1 for t0, t1 in zip(totals, totals[1:]))
    assert all(t < 1 for t in totals)
    w = weight_table(p, xmax=16)
    assert 1 - w.total <= w.tail_bound


# The closed form the negative binomial identity replaced in the integral-beta
# tail: (beta)_s / s! as a polynomial in s, times power sums against |a|^s.
# Kept as the oracle of meixner_tail_mass_bound and of the product tail
# bound in test_verify.py.


def stirling2_table(t: int) -> list[list[int]]:
    """Stirling numbers of the second kind S(i, j) for i, j <= t."""
    S = [[0] * (t + 1) for _ in range(t + 1)]
    S[0][0] = 1
    for i in range(1, t + 1):
        for j in range(1, i + 1):
            S[i][j] = j * S[i - 1][j] + S[i - 1][j - 1]
    return S


def tail_power_sum(q, X: int, t: int):
    """Exact Sum_{s > X} s^t q^s for rational 0 < q < 1.

    Expands s^t in falling factorials; each Sum_{s>=0} s(s-1)..(s-k+1) q^s
    is k! q^k / (1-q)^{k+1}, and the finite head is subtracted exactly.
    """
    q = R(q)
    assert 0 < q < 1
    S2 = stirling2_table(t)
    total = R(0)
    for k in range(t + 1):
        if S2[t][k] == 0:
            continue
        full = R(math.factorial(k)) * q**k / (1 - q) ** (k + 1)
        head = R(0)
        for s in range(X + 1):
            head += math.prod(range(s - k + 1, s + 1)) * q**s
        total += S2[t][k] * (full - head)
    return total


def rising_over_factorial_coeffs(beta: int) -> list:
    """Coefficients c_d with (beta)_s / s! = Sum_d c_d s^d, for an integer beta >= 1:
    prod_{r=1}^{beta-1} (s + r) / (beta-1)!, a polynomial of degree beta-1."""
    coeffs = [R(1)]
    for r in range(1, beta):
        nxt = [R(0)] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d] += c * r
            nxt[d + 1] += c
        coeffs = nxt
    return [c / math.factorial(beta - 1) for c in coeffs]


def power_sum_tail(params, X: int):
    """Sum_{s>X} (beta)_s |a|^s / s! by the power-sum closed form (integral beta)."""
    coeffs = rising_over_factorial_coeffs(int(params.beta))
    return sum(c * tail_power_sum(params.a_total, X, d) for d, c in enumerate(coeffs))


def test_integral_beta_tail_equals_the_power_sum_closed_form():
    for n in (2, 3, 4):
        for beta in range(1, 7):
            for a in ((R(1, 5),) * n, tuple(R(k, 4 * n + 1) for k in range(1, n + 1))):
                params = MeixnerParams(a, beta)
                norm = meixner_normalization(params)
                for X in range(12):
                    bound = meixner_tail_mass_bound(params, X)
                    assert bound / norm == power_sum_tail(params, X), (params.label, X)


def test_tail_power_sum_against_brute_force():
    q = R(1, 3)
    for t in range(0, 5):
        exact = tail_power_sum(q, 6, t)
        brute = sum(R(s) ** t * q**s for s in range(7, 400))
        # geometric remainder beyond s=400 is far below the gap we allow
        assert abs(exact - brute) < R(1, 10**40)


def test_meixner_tail_mass_bound_is_exact_for_integer_beta():
    p = MeixnerParams((R(1, 4), R(1, 4)), R(2))
    X = 10
    bound = meixner_tail_mass_bound(p, X) / meixner_normalization(p)
    brute = sum(meixner_shell_mass(p, s) for s in range(X + 1, 500))
    assert brute <= bound
    # for integral beta the bound is the exact tail (up to the cut at 500)
    assert bound - brute < R(1, 10**100)


def test_meixner_tail_mass_bound_geometric_for_rational_beta():
    p = MeixnerParams((R(1, 4), R(1, 4)), R(3, 2))
    X = 10
    bound = meixner_tail_mass_bound(p, X)  # unnormalized for non-integral beta
    brute = sum(meixner_shell_mass(p, s) for s in range(X + 1, 500))
    assert brute <= bound


def test_meixner_tail_mass_bound_on_boxes_below_the_geometric_regime():
    # the term ratio |a| (beta+s)/(s+1) is 7/6 at s = 1 and 1 at s = 2
    p = MeixnerParams((R(1, 3), R(1, 3)), R(5, 2))
    for X in (0, 1, 2, 3):
        bound = meixner_tail_mass_bound(p, X)
        brute = sum(meixner_shell_mass(p, s) for s in range(X + 1, 150))
        assert brute <= bound


def test_all_weights_positive():
    rng = random.Random(7)
    p = HahnParams((R(3, 2), R(5, 7)), R(9, 4), 5)
    assert all(v > 0 for v in weight_table(p).values)
    pk = KrawtchoukParams((R(2), R(1, 3), R(5)), 4)
    assert all(v > 0 for v in weight_table(pk).values)
    pm = MeixnerParams((R(1, 3), R(1, 5)), R(7, 3))
    assert all(v > 0 for v in weight_table(pm, xmax=8).values)
    assert rng  # seeded but unused draws keep the instance generic


@pytest.mark.parametrize(
    "params, xmax",
    [
        (HahnParams((R(3, 2), R(5, 7)), R(9, 4), 5), None),
        (KrawtchoukParams((R(2), R(1, 3)), 5), None),
        (MeixnerParams((R(1, 3), R(1, 5)), R(7, 3)), 8),
    ],
)
def test_weight_ratio_identity(params, xmax):
    # W(x+e_j)/W(x) = B_j(x)/D_j(x+e_j), cross-multiplied to stay exact
    w = weight_table(params, xmax=xmax)
    lat = w.lattice
    for x in lat.points:
        for j in range(params.n):
            y = x[:j] + (x[j] + 1,) + x[j + 1 :]
            if y not in lat.index:
                continue
            assert w(y) * form_down_rate(params, y, j) == w(x) * form_up_rate(params, x, j)


def test_inner_product_examples():
    p = HahnParams((R(1), R(2), R(3)), R(2), 4)
    w = weight_table(p)
    lat = w.lattice

    def t(i):
        # degree-one sector polynomial a_{>i} x_i - a_i x_{>i}
        def val(x):
            return p.a_tail(i) * x[i - 1] - p.a[i - 1] * sum(x[i:])

        return table_of(lat, val)

    G = gram_matrix([table_of(lat, lambda x: R(1)), t(1), t(2)], w)
    assert G[0][0] == 1
    assert G[1][2] == G[2][1] == 0
    assert G[1][1] > 0 and G[2][2] > 0


def test_inner_product_rejects_mismatched_lattices():
    p = HahnParams((R(1), R(2)), R(2), 4)
    w = weight_table(p)
    other = family_lattice(HahnParams((R(1), R(2)), R(2), 5))
    f = table_of(other, lambda x: R(1))
    with pytest.raises(ValueError):
        gram_matrix([f], w)
    with pytest.raises(ValueError):
        gram_matrix([table_of(w.lattice, lambda x: R(1)), f], w)


def test_inner_product_rejects_undefined_entries():
    # a table is its integer form, so a table with an undefined entry
    # cannot be built and never reaches the inner product
    p = MeixnerParams((R(1, 4), R(1, 4)), R(2))
    w = weight_table(p, xmax=4)
    nums = [1] * w.lattice.size
    nums[-1] = None
    with pytest.raises(TypeError):
        LatticeFunction(w.lattice, nums, 1)
    with pytest.raises(AttributeError):
        table_of(w.lattice, lambda x: None if sum(x) == 4 else R(1))


def test_meixner_origin_weight_is_normalization_constant():
    p = MeixnerParams((R(1, 8), R(1, 8), R(1, 4)), R(3))
    assert meixner_weight((0, 0, 0), p) == (1 - p.a_total) ** 3


def fraction_inner_product(f, g, w):
    """Reference: the plain rational sum loop the integer kernel must equal."""
    total = R(0)
    for fv, gv, wv in zip(f.values, g.values, w.values):
        total += fv * gv * wv
    return total


signed_rational = st.integers(-30, 30).flatmap(
    lambda p: st.integers(1, 40).map(lambda q: R(p, q))
)


@given(st.sampled_from(["hahn", "krawtchouk", "meixner"]), st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_integer_inner_product_matches_fraction_loop(family, data):
    a = (data.draw(small_pos), data.draw(small_pos))
    if family == "hahn":
        params = HahnParams(a, data.draw(small_pos), 3)
    elif family == "krawtchouk":
        params = KrawtchoukParams(a, 3)
    else:
        params = MeixnerParams(tuple(v / 25 for v in a), data.draw(small_pos))
    w = weight_table(params, xmax=3)
    size = w.lattice.size
    tables = [
        LatticeFunction(w.lattice, *integer_scaled([data.draw(signed_rational)
                                                     for _ in range(size)]))
        for _ in range(3)
    ]
    G = gram_matrix(tables, w)
    for i, f in enumerate(tables):
        for j, g in enumerate(tables):
            assert G[i][j] == fraction_inner_product(f, g, w)


def test_rising_over_factorial_coeffs():
    for beta in range(1, 6):
        coeffs = rising_over_factorial_coeffs(beta)
        assert len(coeffs) == beta
        for s in range(10):
            want = R(math.comb(s + beta - 1, beta - 1))
            assert sum(c * s**d for d, c in enumerate(coeffs)) == want


@given(st.integers(1, 11).flatmap(lambda p: st.integers(p + 1, 12).map(lambda q: R(p, q))),
       st.integers(1, 5), st.integers(1, 12), st.integers(1, 4), st.integers(0, 8))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_meixner_tail_mass_bound_dominates_deep_shell_sums(A, split, p, q, extra):
    """For random rational 0 < |a| < 1 and beta > 0, integral or not, the bound
    is at least the 40 shells beyond the box, a lower bound of the true tail."""
    beta = R(p, q)
    params = MeixnerParams((A * split / 6, A * (6 - split) / 6), beta)
    # the smallest X whose shell ratio A (beta + X + 1) / (X + 2) is below 1
    X = max(0, math.floor((A * (beta + 1) - 2) / (1 - A)) + 1) + extra
    shell = R(1)  # (beta)_s A^s / s!, from s = 0 up
    partial = R(0)
    for s in range(1, X + 41):
        shell *= (beta + s - 1) * A / s
        if s > X:
            partial += shell
    norm = (1 - A) ** beta if params.integral_beta else 1
    assert meixner_tail_mass_bound(params, X) >= norm * partial
