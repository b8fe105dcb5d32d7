"""The JSON writer against the stdlib encoder it replaces, and the export
writers against the generic writers.

``json_text(p)`` must be exactly ``json.dumps(p, indent=2,
sort_keys=True) + "\\n"``, the stdlib call being the oracle.  The point
blocks, rendered once per lattice and indent, must be the stdlib's text
of the points; the stencil writers, which walk the rows once, must print
what ``json_text`` and ``csv_text`` print for the list of triplets.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from mvortho import R, serialize
from mvortho.core import shared_lattice
from mvortho.families import HahnParams, KrawtchoukParams, MeixnerParams
from mvortho.operators import OperatorSpec, operator_matrix
from mvortho.serialize import (csv_text, json_text, matrix_csv, matrix_json, points_json,
                               value_str)

# the characters the writer's fast paths key on, escapes, and non-ASCII
SPECIAL = '",\\[]{}:\x00\x1f\n\t é€\U0001f600'
texts = st.text(alphabet=st.one_of(st.sampled_from(SPECIAL), st.characters()), max_size=6)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-9, 9), st.integers(-10**40, 10**40),
    st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
    texts, st.sampled_from(["1/2", "-3", "0", "12/7"]),
)
# lists of equal-length rows, the shape of ``points`` and ``triplets``
rows = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(scalars, min_size=k, max_size=k), max_size=5))
payloads = st.recursive(
    st.one_of(scalars, rows, st.lists(scalars, max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(texts, inner, max_size=4)),
    max_leaves=25,
)
EXPORT_LIKE = {"family": "hahn", "m": [1, 0], "points": [[0, 0], [0, 1], [1, 0]],
               "values": ["1", "-1/2", "3"], "triplets": [[0, 1, "-2/3"], [1, 1, "4"]],
               "valid_rows": [True, False, True]}


def stdlib(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def check_writer():
    @given(payloads)
    @example(EXPORT_LIKE)
    @example([[1, "a,b"], [2, "]"]])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              phases=(Phase.explicit, Phase.generate))
    def check(payload):
        assert json_text(payload) == stdlib(payload)

    check()


def test_json_text_matches_the_stdlib_encoder():
    check_writer()


def test_a_row_path_that_drops_a_newline_fails(monkeypatch):
    rows_text = serialize._rows

    def broken(o, nl):
        text = rows_text(o, nl)
        return text and text.replace("],\n", "],", 1)

    monkeypatch.setattr(serialize, "_rows", broken)
    with pytest.raises(AssertionError):
        check_writer()


@pytest.mark.parametrize("payload", [
    {2: "b", 1: "a"}, {True: 1, False: 0}, {None: [1]}, {1.5: 0, float("nan"): 1},
    ({"b": (1, 2), "a": ()}), [(0, 1), (2, 3)], {"": {}}, "", -0.0, 10**60,
])
def test_keys_tuples_and_top_level_scalars(payload):
    assert json_text(payload) == stdlib(payload)


@pytest.mark.parametrize("payload", [
    {1, 2}, Fraction(1, 2), [object()], {"a": 1j}, {(1, 2): 0}, {"a": 1, 2: 0},
])
def test_unsupported_types_raise_type_error_like_json(payload):
    with pytest.raises(TypeError) as expected:
        stdlib(payload)
    with pytest.raises(TypeError) as got:
        json_text(payload)
    assert str(got.value) == str(expected.value)


SHAPES = [(2, 0, False), (2, 3, True), (3, 4, False), (4, 2, False)]


@pytest.mark.parametrize("shape", SHAPES)
def test_a_point_block_is_the_stdlib_text_of_the_points_at_each_indent(shape):
    """The block is rendered at the one indent the writers place it at, a
    top-level field's."""
    lattice = shared_lattice(*shape)
    oracle = json.dumps([list(x) for x in lattice.points], indent=2).replace("\n", "\n  ")
    for _ in range(2):  # the second round reads the cache
        assert points_json(lattice) == oracle


def test_a_repeated_point_block_is_a_cache_hit():
    lattice = shared_lattice(3, 2, False)
    text = points_json(lattice)
    before = points_json.cache_info()
    assert points_json(lattice) is text
    after = points_json.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_the_point_block_cache_is_bounded():
    maxsize = points_json.cache_info().maxsize
    assert maxsize is not None
    shapes = [(n, bound, truncated) for n in (2, 3) for bound in range(maxsize // 4 + 2)
              for truncated in (False, True)]
    assert len(shapes) > maxsize
    for shape in shapes:
        points_json(shared_lattice(*shape))
    assert points_json.cache_info().currsize == maxsize


A = (R(1), R(2), R(1, 2))
MEIXNER = MeixnerParams((R(1, 5), R(1, 4)), R(2))
STENCILS = [
    (HahnParams(A, R(2), 4), shared_lattice(3, 4, False), ("total", None)),
    (HahnParams(A, R(2), 4), shared_lattice(3, 4, False), ("exchange", 2)),
    (KrawtchoukParams(A, 4), shared_lattice(3, 4, False), ("single", None)),
    # the frontier rows of the box are invalid and empty
    (MEIXNER, shared_lattice(2, 3, True), ("total", None)),
    # every row of the one-point box is: no triplet at all
    (MEIXNER, shared_lattice(2, 0, True), ("total", None)),
]


@pytest.mark.parametrize("params,lattice,op", STENCILS)
@pytest.mark.parametrize("as_float", [False, True])
def test_the_stencil_writers_print_the_triplet_lists_text(params, lattice, op, as_float):
    M = operator_matrix(OperatorSpec(params, *op), lattice)
    triplets = [[i, j, value_str(R(row[j], M.den), as_float)]
                for i, row in enumerate(M.rows) for j in sorted(row)]
    assert matrix_json(M, as_float) == json_text({
        "operator": M.op.label, "family": params.family, "size": M.size,
        "valid_rows": list(M.valid_rows), "triplets": triplets})
    assert matrix_csv(M, as_float) == csv_text(["row", "col", "value"], triplets)
