"""The JSON writer against the stdlib encoder it replaces.

``json_text(p)`` must be exactly ``json.dumps(p, indent=2,
sort_keys=True) + "\\n"``, the stdlib call being the oracle.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from mvortho import serialize
from mvortho.serialize import json_text

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
