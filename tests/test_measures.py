import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvortho import (
    R,
    HahnParams,
    KrawtchoukParams,
    LatticeFunction,
    MeixnerParams,
    gram_matrix,
    hahn_weight,
    inner_product,
    krawtchouk_weight,
    meixner_tail_mass_bound,
    meixner_weight,
    weight_table,
)
from mvortho.core import family_lattice
from mvortho.measures import (
    meixner_shell_mass,
    rising_over_factorial_coeffs,
    tail_power_sum,
)

small_pos = st.integers(1, 12).flatmap(
    lambda p: st.integers(1, 12).map(lambda q: R(p, q))
)


def test_hahn_weight_hand_values():
    # hand evaluation of the n=2, N=1, a=(1,1), b=1 weight: all three
    # points carry 1/3.  N > n forbids that bundle, so evaluate the raw
    # formula; the bundled path is then checked on N=3.
    from mvortho.core import multinomial, rising_factorial

    def w(x, a, b, N):
        rest = N - sum(x)
        out = R(multinomial(N, x))
        for ai, xi in zip(a, x):
            out *= rising_factorial(ai, xi)
        out *= rising_factorial(b, rest)
        return out / rising_factorial(sum(a, R(0)) + b, N)

    assert w((0, 0), (R(1), R(1)), R(1), 1) == R(1, 3)
    assert w((1, 0), (R(1), R(1)), R(1), 1) == R(1, 3)
    assert w((0, 1), (R(1), R(1)), R(1), 1) == R(1, 3)

    p = HahnParams((R(1), R(1)), R(1), 3)
    assert hahn_weight((0, 0), p) == w((0, 0), p.a, p.b, 3)


@given(st.integers(2, 3), st.integers(0, 3), st.data())
@settings(max_examples=25, deadline=None)
def test_hahn_weight_normalizes(n, extra, data):
    a = tuple(data.draw(small_pos) for _ in range(n))
    b = data.draw(small_pos)
    params = HahnParams(a, b, n + 1 + extra)
    assert weight_table(params).total == 1


def test_krawtchouk_weight_hand_values():
    # N=2 hand value embedded via the raw formula (params need N > n)
    from mvortho.core import multinomial

    def w(x, a, N):
        out = R(multinomial(N, x))
        for ai, xi in zip(a, x):
            out *= R(ai) ** xi
        return out / (1 + sum(a, R(0))) ** N

    assert w((1, 1), (R(1), R(2)), 2) == R(1, 4)
    assert w((0, 0), (R(1), R(1)), 1) == R(1, 3)


@given(st.integers(2, 3), st.integers(0, 3), st.data())
@settings(max_examples=25, deadline=None)
def test_krawtchouk_weight_normalizes(n, extra, data):
    a = tuple(data.draw(small_pos) for _ in range(n))
    params = KrawtchoukParams(a, n + 1 + extra)
    assert weight_table(params).total == 1


def test_weight_rejects_overfull_point():
    p = HahnParams((R(1), R(2)), R(3), 4)
    with pytest.raises(ValueError):
        hahn_weight((3, 2), p)
    pk = KrawtchoukParams((R(1), R(2)), 4)
    with pytest.raises(ValueError):
        krawtchouk_weight((3, 2), pk)


def test_meixner_weight_hand_values():
    p = MeixnerParams((R(1, 4), R(1, 4)), R(2))
    assert meixner_weight((0, 0), p) == R(1, 4)  # (1-1/2)^2
    assert meixner_weight((1, 0), p) == R(1, 8)  # (2)_1 * 1/4 * (1/2)^2
    # unnormalized value on request
    assert meixner_weight((1, 0), p, normalized=False) == R(1, 2)


def test_meixner_non_integer_beta_unnormalized():
    p = MeixnerParams((R(1, 4), R(1, 4)), R(3, 2))
    w = weight_table(p, xmax=6)
    assert not w.normalized
    assert meixner_weight((0, 0), p) == 1
    with pytest.raises(ValueError):
        meixner_weight((0, 0), p, normalized=True)


def test_meixner_partial_sums_increase_toward_one():
    p = MeixnerParams((R(1, 4), R(1, 4)), R(2))
    totals = [weight_table(p, xmax=x).total for x in (4, 8, 12, 16)]
    assert all(t0 < t1 for t0, t1 in zip(totals, totals[1:]))
    assert all(t < 1 for t in totals)
    w = weight_table(p, xmax=16)
    assert 1 - w.total <= w.tail_bound


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
    bound = meixner_tail_mass_bound(p, X, normalized=False)
    brute = sum(meixner_shell_mass(p, s) for s in range(X + 1, 500))
    assert brute <= bound
    # for integral beta the bound is the exact tail (up to the cut at 500)
    assert bound - brute < R(1, 10**100)


def test_meixner_tail_mass_bound_geometric_for_rational_beta():
    p = MeixnerParams((R(1, 4), R(1, 4)), R(3, 2))
    X = 10
    bound = meixner_tail_mass_bound(p, X, normalized=False)
    brute = sum(meixner_shell_mass(p, s) for s in range(X + 1, 500))
    assert brute <= bound


def test_meixner_tail_mass_bound_on_boxes_below_the_geometric_regime():
    # the term ratio |a| (beta+s)/(s+1) is 7/6 at s = 1 and 1 at s = 2
    p = MeixnerParams((R(1, 3), R(1, 3)), R(5, 2))
    for X in (0, 1, 2, 3):
        bound = meixner_tail_mass_bound(p, X, normalized=False)
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
            assert w(y) * params.down_rate(y, j) == w(x) * params.up_rate(x, j)


def test_inner_product_examples():
    p = HahnParams((R(1), R(2), R(3)), R(2), 4)
    w = weight_table(p)
    lat = w.lattice
    one = LatticeFunction.constant(lat, 1)
    assert inner_product(one, one, w) == 1

    def t(i):
        # degree-one sector polynomial a_{>i} x_i - a_i x_{>i}
        def val(x):
            return p.a_tail(i) * x[i - 1] - p.a[i - 1] * sum(x[i:])

        return LatticeFunction.from_callable(lat, val)

    t1, t2 = t(1), t(2)
    assert inner_product(t1, t2, w) == 0
    assert inner_product(t1, t2, w) == inner_product(t2, t1, w)


def test_inner_product_rejects_mismatched_lattices():
    p = HahnParams((R(1), R(2)), R(2), 4)
    w = weight_table(p)
    other = family_lattice(HahnParams((R(1), R(2)), R(2), 5))
    f = LatticeFunction.constant(other, 1)
    with pytest.raises(ValueError):
        inner_product(f, f, w)
    with pytest.raises(ValueError):
        gram_matrix([LatticeFunction.constant(w.lattice, 1), f], w)


def test_inner_product_rejects_undefined_entries():
    p = MeixnerParams((R(1, 4), R(1, 4)), R(2))
    w = weight_table(p, xmax=4)
    vals = [R(1)] * w.lattice.size
    vals[-1] = None
    f = LatticeFunction(w.lattice, tuple(vals))
    with pytest.raises(ValueError):
        inner_product(f, f, w)
    with pytest.raises(ValueError):
        gram_matrix([f], w)


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
        LatticeFunction(w.lattice, tuple(data.draw(signed_rational) for _ in range(size)))
        for _ in range(3)
    ]
    G = gram_matrix(tables, w)
    for i, f in enumerate(tables):
        for j, g in enumerate(tables):
            want = fraction_inner_product(f, g, w)
            assert inner_product(f, g, w) == want
            assert G[i][j] == want


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
    assert meixner_tail_mass_bound(params, X, normalized=False) >= partial
    norm = (1 - A) ** beta if params.integral_beta else 1
    assert meixner_tail_mass_bound(params, X) >= norm * partial
