import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvortho import (R, LatticeFunction, enumerate_lattice, rising_factorial, tail_param,
                     tail_sum)
from mvortho._backend import integer_scaled
from mvortho.core import Lattice, term_row
from mvortho.families import HahnParams, KrawtchoukParams, MeixnerParams


def multinomial(N, x):
    """N! / (x_1! ... x_n! (N - |x|)!) for a lattice point with |x| <= N: the
    coefficient of the closed-form weights in ``test_measures``."""
    if N < 0 or any(c < 0 for c in x):
        raise ValueError("multinomial needs N >= 0 and x >= 0")
    rest = N - sum(x)
    if rest < 0:
        raise ValueError(f"|x| = {sum(x)} exceeds N = {N}")
    return math.factorial(N) // (math.prod(map(math.factorial, x)) * math.factorial(rest))


def table_of(lattice, fn):
    """The table of fn(x) over the lattice, one call per point, through the
    values' integer form."""
    return LatticeFunction(lattice, *integer_scaled([fn(x) for x in lattice.points]))


rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=12
).map(lambda f: R(f.numerator, f.denominator))


@pytest.mark.parametrize(
    "a, k, expected",
    [
        (R(7, 3), 0, R(1)),
        (2, 3, R(24)),
        (R(1, 2), 2, R(3, 4)),
        (R(-3), 2, R(6)),
    ],
)
def test_rising_factorial_values(a, k, expected):
    assert rising_factorial(a, k) == expected


@given(rationals, st.integers(0, 6), st.integers(0, 6))
def test_rising_factorial_splits(a, j, k):
    lhs = rising_factorial(a, j + k)
    rhs = rising_factorial(a, j) * rising_factorial(R(a) + j, k)
    assert lhs == rhs


def test_rising_factorial_rejects_negative_k():
    with pytest.raises(ValueError):
        rising_factorial(R(1), -1)


@pytest.mark.parametrize(
    "N, x, expected",
    [
        (1, (0, 0), 1),
        (2, (1, 1), 2),
        (4, (2, 1), 12),
        (3, (0, 0, 0), 1),
    ],
)
def test_multinomial_values(N, x, expected):
    assert multinomial(N, x) == expected


def test_multinomial_rejects_overfull():
    with pytest.raises(ValueError):
        multinomial(2, (2, 1))


@given(st.integers(2, 4), st.integers(0, 7))
@settings(max_examples=40)
def test_multinomial_theorem(n, N):
    # sum over the simplex of the multinomial coefficients is (n+1)^N
    total = sum(multinomial(N, x) for x in enumerate_lattice(n, N))
    assert total == (n + 1) ** N


@given(rationals, st.integers(0, 6))
def test_term_row_is_the_rising_factorial_row(a, bound):
    assert term_row(bound, lambda k: a + k - 1) == [rising_factorial(a, k)
                                                    for k in range(bound + 1)]


def test_enumerate_lattice_small():
    assert enumerate_lattice(2, 1) == ((0, 0), (0, 1), (1, 0))


@pytest.mark.parametrize("n, N", [(2, 2), (3, 4), (2, 6)])
def test_enumerate_lattice_count(n, N):
    pts = enumerate_lattice(n, N)
    assert len(pts) == math.comb(N + n, n)


@given(st.integers(1, 4), st.integers(0, 6))
@settings(max_examples=40)
def test_enumerate_lattice_order(n, N):
    pts = enumerate_lattice(n, N)
    keys = [(sum(p), p) for p in pts]
    assert keys == sorted(keys)
    assert len(set(pts)) == len(pts)


@pytest.mark.parametrize(
    "x, i, expected",
    [((1, 2, 3), 1, 5), ((1, 2, 3), 2, 3), ((4, 0), 1, 0)],
)
def test_tail_sum(x, i, expected):
    assert tail_sum(x, i) == expected


def test_tail_param():
    assert tail_param((R(1, 2), R(1), R(2)), 1) == R(3)
    assert tail_param((R(1, 2), R(1), R(2)), 2) == R(2)


@pytest.mark.parametrize("i", [0, 3, -1])
def test_tail_sum_rejects_bad_index(i):
    with pytest.raises(ValueError):
        tail_sum((1, 2, 3), i)


def test_lattice_index_round_trip():
    lat = Lattice(3, 4)
    assert lat.size == math.comb(7, 3)
    for k, p in enumerate(lat.points):
        assert lat.index[p] == k


def test_params_validation():
    with pytest.raises(ValueError):
        HahnParams((R(1), R(-1)), R(1), 4)
    with pytest.raises(ValueError):
        HahnParams((R(1), R(1)), R(1), 2)  # N must exceed n
    with pytest.raises(ValueError):
        KrawtchoukParams((R(1),), 4)  # n >= 2
    with pytest.raises(ValueError):
        MeixnerParams((R(1, 2), R(1, 2)), R(1))  # |a| < 1


def test_params_accept_strings_and_expose_tails():
    p = HahnParams(("1/2", "3/2", "2"), "5/4", 5)
    assert p.a_total == R(4)
    assert p.a_tail(1) == R(7, 2)
    assert p.n == 3


def test_tables_from_integers_form_their_values_on_first_read():
    """A table keeps only its integer form until ``values`` is read; then
    the values are nums[i] / den at every point."""
    from mvortho import eigenpoly_tables
    from mvortho.core import family_lattice

    params = HahnParams((R(1), R(2), R(1, 2)), R(2), 4)
    lattice = family_lattice(params)
    tables = eigenpoly_tables([(0, 0, 0), (1, 0, 1), (0, 2, 1)], params, lattice)
    tables.append(LatticeFunction(lattice, range(lattice.size), 6))
    forms = [table.integer_form() for table in tables]
    assert all("values" not in vars(table) for table in tables)
    for table, (nums, den) in zip(tables, forms):
        assert table.values == tuple(R(v, den) for v in nums)
        assert table.values is table.values and table.integer_form() == (nums, den)


@given(st.integers(1, 3), st.integers(0, 3),
       st.lists(rationals, min_size=20, max_size=20), st.integers(1, 10**12))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_a_table_stores_its_canonical_integer_form(n, bound, values, k):
    lattice = Lattice(n, bound)
    values = values[:lattice.size]
    table = LatticeFunction(lattice, *integer_scaled(values))
    nums, den = table.integer_form()
    # the form is reduced, so a common factor of the pair changes nothing
    assert LatticeFunction(lattice, [k * v for v in nums], k * den) == table
    # it is the lcm form of the values, the route of the integer kernels
    assert (list(nums), den) == integer_scaled(values)
    assert table.values == tuple(values)
    assert all(table.values[i] == Fraction(nums[i], den) for i in range(lattice.size))
    assert all(table(x) == v for x, v in zip(lattice.points, values))
