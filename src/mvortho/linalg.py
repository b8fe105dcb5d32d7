"""Exact sparse kernels in integer arithmetic.

Matrices are sparse rows ``{column: value}``.  Degree questions use
Newton interpolation on the principal lattice {|x| <= K} (Chung and Yao,
SIAM J. Numer. Anal. 14, 1977): every function there is uniquely
Sum_{|alpha| <= K} D^alpha f(0) prod_i C(x_i, alpha_i), so it has total
degree <= M exactly when every D^alpha f(0) with |alpha| > M vanishes.

Slot packing (Kronecker substitution) stores small integers v_0 .. v_{c-1}
as the one integer V = sum_t v_t 2^(W t), W bits per slot, so that one
big-int multiply-add does the work of a whole row or of a whole set of
monomials.  Sums and integer multiples of packed integers are the packed
sums and multiples, slot by slot, so any integer-linear map (a stencil,
a Newton difference) runs on them unchanged.  If every slot of the
result has |v_t| < 2^(W-1), that is |v_t| <= bound with
W = :func:`slot_width` (bound), the result is 0 exactly when every slot
is 0, and :func:`unpack` recovers each slot.  This module holds the
primitives only: each caller proves its bound beside its kernel (the
stencil kernels of :mod:`mvortho.operators`).

A sparse row of slots is packed by :func:`pack`; T whole tables of L
values each, one packed integer per column, by :func:`pack_columns`.  The
flat sum_t v_t 2^(W t), added one slot at a time, rewrites a partial sum
of up to T W bits at each of its T steps: O(T^2 W) bit operations per
column.  :func:`pack_columns` instead combines neighbouring tables a, b
into a + b 2^w, with w = W at the first level and doubled at each next
one.  By associativity and distributivity of integer + and *, whatever
the signs of the slots, the result is the same integer, and each of the
ceil(log2 T) levels touches every bit of the column a bounded number of
times: O(T W log T) per column.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import add, lshift

from .core import shared_lattice

def slot_width(bound: int) -> int:
    """The slot width W = bound.bit_length() + 1, the least W with
    bound < 2^(W-1): every integer v with |v| <= bound fits a slot.

    Why that suffices: let V = sum_{t < c} v_t 2^(W t) with every
    |v_t| <= 2^(W-1) - 1.  If some v_t != 0 and T is the largest such t,
    the lower slots add up to at most
    (2^(W-1) - 1)(2^(W T) - 1)/(2^W - 1) < 2^(W T - 1) in absolute value,
    less than |v_T 2^(W T)| >= 2^(W T); so V != 0, and
    2^(W T - 1) < |V| < 2^(W (T+1) - 1).  Hence V = 0 exactly when every
    slot is 0, and V determines its slots (:func:`unpack`).
    """
    return bound.bit_length() + 1


def pack(slots, W: int) -> int:
    """sum_t v_t 2^(W t) for the slots {t: v_t}, W bits each.

    The slots are shifted relative to the lowest one and the sum shifted
    once, so no intermediate is longer than the slot span."""
    if not slots:
        return 0
    lo = min(slots)
    return sum(v << (W * (t - lo)) for t, v in slots.items()) << (W * lo)


def pack_columns(tables, W: int) -> list:
    """[sum_t tables[t][j] 2^(W t) for each column j]: T >= 1 tables, iterables
    of equal length, packed column by column, W bits per slot.

    Neighbouring entries of a level are combined as a + (b << w), a whole
    table at a time; w starts at W and doubles with each level.  Entry k
    of level l then holds tables k 2^l .. (k+1) 2^l - 1 as
    sum_t v_t 2^(W (t - k 2^l)): true at l = 0, and a + (b << W 2^l) for
    the entries 2k and 2k+1 of level l is that sum for entry k of level
    l+1; an odd entry out starts at table 2k 2^l = k 2^(l+1) already.  So
    the last level's one entry is the flat sum, for any signs, in
    O(T W log T) bit operations per column (module docstring)."""
    level, w = list(tables), W
    while len(level) > 1:
        odd = level[-1:] if len(level) % 2 else []
        level = [list(map(add, a, map(lshift, b, repeat(w))))
                 for a, b in zip(level[::2], level[1::2])] + odd
        w *= 2
    return list(level[0])


def unpack(value: int, W: int, count: int) -> list:
    """The slots v_0 .. v_{count-1} of value = sum_t v_t 2^(W t), each
    in the balanced range [-2^(W-1), 2^(W-1)).

    Why they are the packed slots when every |v_t| < 2^(W-1)
    (:func:`slot_width`): adding the bias sum_t 2^(W-1) 2^(W t) turns
    slot t into v_t + 2^(W-1), a digit in [0, 2^W), so the biased value
    lies in [0, 2^(W count)) and its binary digits, W at a time, are the
    shifted slots; conversely every integer in that range is such a
    biased value, so a value outside it, one with slots beyond
    ``count``, raises ValueError.
    """
    half, top = 1 << (W - 1), W * count
    biased = value + half * (((1 << top) - 1) // ((1 << W) - 1))
    if not 0 <= biased < 1 << top:
        raise ValueError(f"value holds more than {count} slots of {W} bits")
    digits = format(biased, "b").zfill(top)
    return [int(digits[i:i + W], 2) - half for i in range(top - W, -1, -W)]


@lru_cache(maxsize=64)
def _newton_plan(n: int, K: int) -> tuple:
    """(size, steps) of the simplex {|x| <= K}: the index pairs (x, x - e_a)
    of f(x) -= f(x - e_a), pass k = 1..K along each axis a in turn over the
    points with x_a >= k, from the shared lattice's down steps, in reverse
    graded-lex order: a pass reads f(x - e_a) before it changes it."""
    simplex = shared_lattice(n, K, False)
    points, downs = simplex.points, simplex.steps[1]
    return simplex.size, tuple((i, downs[a][i]) for a in range(n) for k in range(1, K + 1)
                               for i in range(simplex.size - 1, -1, -1) if points[i][a] >= k)


def newton_differences(nums, n: int, K: int) -> list:
    """Newton coefficients D^alpha f(0), |alpha| <= K, of an integer table on
    {|x| <= K}, listed as f is in the graded-lex order of
    ``enumerate_lattice(n, K)``, alpha in place of x.  After the K passes
    along an axis, the t-th entry of each line of the simplex on that axis
    holds the t-th difference of the line's values at its start."""
    size, steps = _newton_plan(n, K)
    if len(nums) != size:
        raise ValueError(f"need {size} values on the simplex |x| <= {K}")
    out = list(nums)
    for i, j in steps:
        out[i] -= out[j]
    return out
