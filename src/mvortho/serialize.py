"""Exact serialization of rationals, tables, and matrices.

Rationals cross every file boundary as exact strings "p/q" (or "p" for
integers) -- never as decimals.  Floats are opt-in for plotting
convenience and clearly labeled by the caller; a value with integer form
num/den is written as ``repr(num / den)``, which is its ``float``.

:func:`json_text` writes the bytes of ``json.dumps(payload, indent=2,
sort_keys=True) + "\n"`` for an acyclic payload of str, int, bool, None,
float, list, tuple and dict (keys str, int, float, bool or None), and
raises TypeError on any other type, as ``json.dumps`` does.  It lays out
the containers itself and leaves the scalars to json's compact C
encoder; a list of scalars, or of equal-length lists of scalars, is
encoded whole and re-indented by ``str.replace``.

The export writers return their documents' text.  They write the blocks
they can without ``json_text``, byte for byte as it would: each lattice's
``points`` block is rendered once per process (:func:`points_json`, a
bounded cache of family-free text), and a
stencil's triplets are written by :func:`matrix_triplets`, which formats
each distinct numerator once and then walks the rows once, each in column
order, for the JSON document and the CSV rows alike.  ``json_text``
keeps the contract above: these writers only place such blocks in the
layout it writes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache
from itertools import chain

from ._backend import R


def rational_str(q) -> str:
    q = R(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def sci_str(q) -> str:
    """``f"{float(q):.3e}"``, also for rationals too large for a float.

    Beyond the float range the 4-digit mantissa is rounded exactly, half
    to even.
    """
    try:
        return f"{float(q):.3e}"
    except OverflowError:
        pass
    q = R(q)
    sign = "-" if q < 0 else ""
    q = abs(q)
    # floor(log10 q) from a float estimate, corrected exactly
    exp = math.floor(math.log10(q.numerator) - math.log10(q.denominator))
    while R(10) ** exp > q:
        exp -= 1
    while R(10) ** (exp + 1) <= q:
        exp += 1
    mantissa = round(q / R(10) ** (exp - 3))
    if mantissa == 10**4:
        mantissa //= 10
        exp += 1
    text = str(mantissa)
    return f"{sign}{text[0]}.{text[1:]}e{exp:+03d}"


def parse_rational(s: str, what: str = "a rational"):
    """Parse 'p/q' or an integer string; decimals and q = 0 are refused with
    a message that names ``what`` and the text."""
    num, slash, den = s.strip().partition("/")
    try:
        return R(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what} must be an integer or p/q with q != 0, got {s!r}") from None


def value_str(q, as_float: bool = False) -> str:
    return repr(float(R(q))) if as_float else rational_str(q)


def value_strs(nums, den: int, as_float: bool = False) -> list[str]:
    """The values nums[i] / den (den > 0) as :func:`value_str` writes them,
    from their integers: one gcd or one division per value, no rational."""
    if as_float:
        return [repr(num / den) for num in nums]
    out = []
    for num in nums:
        g = math.gcd(num, den)
        out.append(str(num // g) if g == den else f"{num // g}/{den // g}")
    return out


_FIELD = "\n  "  # the line break and indent of a top-level field


@lru_cache(maxsize=64)
def points_json(lattice) -> str:
    """The JSON text of the lattice's points at a top-level field's indent,
    as :func:`json_text` writes a list of coordinate lists; rendered once
    per lattice shape, as it holds no family data."""
    return _json(lattice.points, _FIELD)


def _document(fields: dict, key: str, block: str) -> str:
    """``json_text`` of ``fields`` (str keys) plus the entry ``key``, whose
    value's text at a top-level field's indent is ``block``."""
    texts = {k: _json(v, _FIELD) for k, v in fields.items()}
    texts[key] = block
    return "{" + _FIELD + ("," + _FIELD).join(
        [_ESCAPE(k) + ": " + texts[k] for k in sorted(texts)]) + "\n}\n"


def lattice_json(fields: dict, lattice) -> str:
    """``json_text`` of ``fields`` plus the lattice's points under "points"."""
    return _document(fields, "points", points_json(lattice))


def table_csv(points, values, column: str) -> str:
    """A table as CSV: the coordinates x1..xn of each point, then its value."""
    header = [f"x{i+1}" for i in range(len(points[0]))] + [column]
    return csv_text(header, [[*map(str, x), v] for x, v in zip(points, values)])


def weight_table_csv(w, as_float: bool = False) -> str:
    return table_csv(w.lattice.points, value_strs(*w.integer_form(), as_float), "weight")


def weight_table_json(w, as_float: bool = False) -> str:
    fields = {
        "family": w.params.family,
        "n": w.lattice.n,
        "bound": w.lattice.bound,
        "truncated": w.lattice.truncated,
        "normalized": w.normalized,
        "weights": value_strs(*w.integer_form(), as_float),
    }
    if w.tail_bound is not None:
        fields["tail_bound"] = value_str(w.tail_bound, as_float)
    return lattice_json(fields, w.lattice)


# (row prefix, text between column and value, text after the value,
# separator) of one stored entry, in the JSON document and in the CSV rows
_TRIPLET_JSON = ("[\n      {},\n      ", ',\n      "', '"\n    ]', ",\n    ")
_TRIPLET_CSV = ("{},", ",", "\n", "")


def matrix_triplets(M, as_float: bool = False, layout: tuple = _TRIPLET_CSV) -> str:
    """The stored entries (row, col, value) of an OperatorMatrix as text in
    ``layout``, row by row and each row in column order.  The distinct
    numerators are gathered and written once each by :func:`value_strs`;
    then one walk over the rows writes the entries, each row's index once."""
    nums = list({v for row in M.rows for v in row.values()})
    text = dict(zip(nums, value_strs(nums, M.den, as_float)))
    row_form, mid, end, sep = layout
    parts = []
    for i, row in enumerate(M.rows):
        start = row_form.format(i)
        parts += [f"{start}{j}{mid}{text[row[j]]}{end}" for j in sorted(row)]
    return sep.join(parts)


def matrix_csv(M, as_float: bool = False) -> str:
    return "row,col,value\n" + matrix_triplets(M, as_float)


def matrix_json(M, as_float: bool = False) -> str:
    body = matrix_triplets(M, as_float, _TRIPLET_JSON)
    fields = {"operator": M.op.label, "family": M.op.params.family, "size": M.size,
              "valid_rows": M.valid_rows}
    return _document(fields, "triplets", f"[\n    {body}\n  ]" if body else "[]")


def gram_csv(degrees, G, as_float: bool = False) -> str:
    header = ["m_row", "m_col", "value"]
    rows = []
    for i, mi in enumerate(degrees):
        for j, mj in enumerate(degrees):
            rows.append(
                [",".join(map(str, mi)), ",".join(map(str, mj)),
                 value_str(G[i][j], as_float)]
            )
    return csv_text(header, rows)


def gram_json(degrees, G, as_float: bool = False) -> str:
    return json_text({
        "degrees": [list(m) for m in degrees],
        "gram": [[value_str(v, as_float) for v in row] for row in G],
    })


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def json_text(payload) -> str:
    return _json(payload, "\n") + "\n"


_ESCAPE = json.encoder.encode_basestring_ascii
_COMPACT = json.JSONEncoder(separators=(",", ":")).encode
_SCALAR_TYPES = {str, int, float, bool, type(None)}


def _key(k) -> str:
    if not isinstance(k, (str, int, float)) and k is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
    return _ESCAPE(k if isinstance(k, str) else _COMPACT(k))


def _json(o, nl: str) -> str:
    """The indented JSON text of ``o``, after the line break and indent ``nl``."""
    if not isinstance(o, (list, tuple, dict)):
        return _COMPACT(o)
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return _rows(o, nl) or (
            "[" + inner + ("," + inner).join([_json(v, inner) for v in o]) + nl + "]")
    if not o:
        return "{}"
    return "{" + inner + ("," + inner).join(
        [_key(k) + ": " + _json(v, inner) for k, v in sorted(o.items())]) + nl + "}"


def _rows(o, nl: str):
    """The indented text of a non-empty list of scalars, or of equal-length
    non-empty lists of scalars, from its compact C encoding; None for any
    other list, or when a string in it holds one of ``,[]``."""
    inner, kinds = nl + "  ", set(map(type, o))
    if kinds <= _SCALAR_TYPES:
        text = _COMPACT(o)
        if text.count(",") == len(o) - 1 and text.count("[") == text.count("]") == 1:
            return "[" + inner + text[1:-1].replace(",", "," + inner) + nl + "]"
    elif (kinds <= {list, tuple} and len(width := set(map(len, o))) == 1 and 0 not in width
          and set(map(type, chain.from_iterable(o))) <= _SCALAR_TYPES):
        text, rows, item = _COMPACT(o), len(o), inner + "  "
        if (text.count(",") == rows * width.pop() - 1
                and text.count("[") == text.count("]") == rows + 1):
            body = (text[2:-2].replace("],[", "\0").replace(",", "," + item)
                    .replace("\0", inner + "]," + inner + "[" + item))
            return "[" + inner + "[" + item + body + inner + "]" + nl + "]"
    return None


def parse_weight_csv(text: str):
    """Round-trip reader for the weight-table CSV: (points, values)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    ncoords = len(header) - 1
    points, values = [], []
    for row in reader:
        points.append(tuple(int(c) for c in row[:ncoords]))
        values.append(parse_rational(row[ncoords]))
    return points, values
