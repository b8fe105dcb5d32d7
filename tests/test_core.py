import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvortho import (FamilyParams, R, LatticeFunction, OperatorMatrix, eigenpoly,
                     enumerate_lattice, rising_factorial)
from mvortho._backend import integer_scaled
from mvortho.core import Lattice, family_lattice, term_row
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
    [((1, 2, 3), 1, 5), ((1, 2, 3), 2, 3), ((4, 1), 1, 1)],
)
def test_tail_sum(x, i, expected):
    assert FamilyParams(x).a_tail(i) == expected


def test_tail_param():
    assert FamilyParams((R(1, 2), R(1), R(2))).a_tail(1) == R(3)
    assert FamilyParams((R(1, 2), R(1), R(2))).a_tail(2) == R(2)


@pytest.mark.parametrize("i", [0, 3, -1])
def test_tail_sum_rejects_bad_index(i):
    with pytest.raises(ValueError):
        FamilyParams((1, 2, 3)).a_tail(i)


def test_lattice_index_round_trip():
    lat = Lattice(3, 4)
    assert lat.size == math.comb(7, 3)
    for k, p in enumerate(lat.points):
        assert lat.index[p] == k


def test_family_lattice_shares_one_lattice_per_shape():
    """Equal shapes give the one lattice of the process, whatever the family;
    a different n, bound or truncation gives another.  A lattice built
    directly is equal to the shared one but not it, and the shared views
    are immutable."""
    lattice = family_lattice(HahnParams((R(1), R(2), R(3)), R(2), 5))
    assert family_lattice(KrawtchoukParams((R(1, 2), R(1, 3), R(2)), 5)) is lattice
    assert enumerate_lattice(3, 5) is lattice.points
    others = [family_lattice(HahnParams((R(1), R(2)), R(2), 5)),
              family_lattice(HahnParams((R(1), R(2), R(3)), R(2), 6)),
              family_lattice(MeixnerParams((R(1, 5), R(1, 5), R(1, 5)), R(2)), xmax=5)]
    assert [(o.n, o.bound, o.truncated) for o in others] == [(2, 5, False), (3, 6, False),
                                                            (3, 5, True)]
    assert len({id(o) for o in [lattice, *others]}) == 4
    assert Lattice(3, 5) == lattice and Lattice(3, 5) is not lattice
    views = [lattice.points, lattice.sizes, lattice.pair_coords, *lattice.pair_coords,
             lattice.steps, *lattice.steps, *(axis for side in lattice.steps for axis in side)]
    assert all(type(view) is tuple for view in views)
    assert lattice.sizes == tuple(sum(x) for x in lattice.points)
    assert lattice.pair_coords == tuple(tuple((x[j - 1], sum(x[j:])) for x in lattice.points)
                                        for j in (1, 2))
    with pytest.raises(TypeError):
        lattice.index[(9, 9, 9)] = 0


def test_params_validation():
    with pytest.raises(ValueError):
        HahnParams((R(1), R(-1)), R(1), 4)
    with pytest.raises(ValueError):
        HahnParams((R(1), R(1)), R(1), 2)  # N must exceed n
    with pytest.raises(ValueError):
        KrawtchoukParams((R(1),), 4)  # n >= 2
    with pytest.raises(ValueError):
        MeixnerParams((R(1, 2), R(1, 2)), R(1))  # |a| < 1


HAHN_123 = HahnParams((1, 2, 3), 2, 5)


@pytest.mark.parametrize("d", [Fraction(3, 2), 1.9])
def test_a_non_integral_degree_is_refused_by_name(d):
    """A degree is never truncated: P_(3/2, 0, 0) is no P_(1, 0, 0)."""
    p = HAHN_123
    for call in (lambda: p.degree_index((d, 0, 0)), lambda: eigenpoly((d, 0, 0), (1, 0, 0), p)):
        with pytest.raises(ValueError, match=f"^degree {d} is not an integer$"):
            call()


def test_integral_degrees_pass_as_ints():
    m = HAHN_123.degree_index((Fraction(2), 1.0, 0))
    assert m == (2, 1, 0) and all(type(d) is int for d in m)


@pytest.mark.parametrize("call, value", [
    (lambda: R(0.5), "0.5"),
    (lambda: HahnParams((0.5, 1), 2, 5), "0.5"),
    (lambda: eigenpoly((1, 0, 0), (1.0, 0, 0), HAHN_123), "1.0"),  # through as_integer
], ids=["R", "params", "point"])
def test_a_float_is_refused_with_a_type_error_that_names_it(call, value):
    with pytest.raises(TypeError, match=rf"^{value} is not exact: give an int, a Fraction or 'p/q'$"):
        call()


def test_params_accept_strings_and_expose_tails():
    p = HahnParams(("1/2", "3/2", "2"), "5/4", 5)
    assert p.a_total == R(4)
    assert p.a_tail(1) == R(7, 2)
    assert p.n == 3


def test_a_bundle_formats_its_label_once(monkeypatch):
    """The three families' report labels, formatted on the first read and
    kept: a second read formats nothing, and equality ignores the kept text."""
    import mvortho.core as core_module
    import mvortho.families as families_module

    bundles = {
        "hahn n=3 N=5 a=(1,2,1/2) b=7/3": HahnParams(("1", "2", "1/2"), "7/3", 5),
        "krawtchouk n=2 N=3 a=(1/2,1/3)": KrawtchoukParams(("1/2", "1/3"), 3),
        "meixner n=2 beta=5/2 a=(1/5,1/4)": MeixnerParams(("1/5", "1/4"), "5/2"),
    }
    assert {p.label: p for p in bundles.values()} == bundles

    def no_formatting(value):
        raise AssertionError(f"{value} formatted again")

    monkeypatch.setattr(core_module, "rational_str", no_formatting)
    monkeypatch.setattr(families_module, "rational_str", no_formatting)
    for label, p in bundles.items():
        twin = type(p)(*p._values())
        assert p.label == label and p == twin and hash(p) == hash(twin)


def value_objects():
    """One object of each of the ten value classes."""
    from mvortho import CheckReport, OperatorSpec, operator_matrix, weight_table

    hahn = HahnParams((R(1), R(2)), R(2), 3)
    lattice = Lattice(2, 3)
    total = OperatorSpec(hahn, "total")
    return [lattice, LatticeFunction(lattice, [1] * lattice.size, 1), FamilyParams((1, 2)), hahn,
            KrawtchoukParams((R(1, 5), R(1, 4)), 3), MeixnerParams((R(1, 5), R(1, 4)), 3),
            weight_table(hahn), total, operator_matrix(total, family_lattice(hahn)),
            CheckReport("gram", "i", "pass")]


def test_value_classes_compare_by_class_and_fields():
    """Equality reads the class as well as the constructor fields: Krawtchouk
    and Meixner bundles with equal field tuples differ.  Equal objects hash
    alike, and the repr names the class and its fields."""
    a = (R(1, 5), R(1, 4))
    kraw, meix = KrawtchoukParams(a, 3), MeixnerParams(a, 3)
    assert kraw._values() == meix._values() and kraw != meix and not kraw == meix
    for obj in value_objects():
        twin = type(obj)(*obj._values())
        assert twin == obj and not twin != obj
        if not isinstance(obj, OperatorMatrix):  # a stencil's rows are dicts
            assert hash(twin) == hash(obj)
    assert len({HahnParams(a, 2, 3), HahnParams(a, R(2), 3), HahnParams(a, 3, 3)}) == 2
    assert Lattice(2, 3) != Lattice(2, 3, True) and Lattice(2, 3) != (2, 3, False)
    assert repr(HahnParams(a, 2, 3)).startswith("HahnParams(a=")
    assert repr(Lattice(2, 3)) == "Lattice(n=2, bound=3, truncated=False)"


@pytest.mark.parametrize("obj", value_objects(), ids=lambda obj: type(obj).__name__)
def test_value_objects_refuse_assignment_and_deletion(obj):
    """No field can be set or deleted after construction, and no attribute
    added; the views a cached property keeps stay readable."""
    name = obj._fields[0]
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, before)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, name) is before
    if isinstance(obj, Lattice):
        assert obj.steps is obj.steps and obj.sizes is obj.sizes


def test_value_classes_take_their_fields_by_position_or_keyword():
    from mvortho import CheckReport, OperatorSpec

    lattice = Lattice(n=2, bound=3, truncated=True)
    assert lattice == Lattice(2, 3, True) and Lattice(2, 3) == Lattice(2, 3, truncated=False)
    params = HahnParams(a=(1, 2, 3), b=2, N=4)
    assert params == HahnParams((1, 2, 3), 2, 4)
    assert OperatorSpec(params=params, kind="exchange", index=2) == OperatorSpec(params,
                                                                                "exchange", 2)
    assert OperatorSpec(params, "total").index is None
    report = CheckReport(name="gram", instance="i", status="pass", max_defect=None,
                         wall_time=0.0, detail="")
    assert report == CheckReport("gram", "i", "pass")
    assert (report.max_defect, report.wall_time, report.detail) == (None, 0.0, "")


def test_tables_from_integers_form_their_values_on_first_read():
    """A table keeps only its integer form until ``values`` is read; then
    the values are nums[i] / den at every point."""
    from mvortho import eigenpoly_tables

    params = HahnParams((R(1), R(2), R(1, 2)), R(2), 4)
    lattice = family_lattice(params)
    tables = eigenpoly_tables([(0, 0, 0), (1, 0, 1), (0, 2, 1)], params, lattice)
    tables.append(LatticeFunction(lattice, range(lattice.size), 6))
    forms = [table.integer_form() for table in tables]
    assert all("values" not in vars(table) for table in tables)
    for table, (nums, den) in zip(tables, forms):
        assert table.values == tuple(R(v, den) for v in nums)
        assert table.values is table.values and table.integer_form() == (nums, den)


@given(st.integers(1, 3), st.integers(0, 3), st.data(), st.integers(1, 10**12))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_a_table_stores_its_canonical_integer_form(n, bound, data, k):
    lattice = Lattice(n, bound)
    values = data.draw(st.lists(rationals, min_size=lattice.size, max_size=lattice.size))
    table = LatticeFunction(lattice, *integer_scaled(values))
    nums, den = table.integer_form()
    # the form is reduced, so a common factor of the pair changes nothing
    assert LatticeFunction(lattice, [k * v for v in nums], k * den) == table
    # it is the lcm form of the values, the route of the integer kernels
    assert (list(nums), den) == integer_scaled(values)
    assert table.values == tuple(values)
    assert all(table.values[i] == Fraction(nums[i], den) for i in range(lattice.size))
    assert all(table(x) == v for x, v in zip(lattice.points, values))
