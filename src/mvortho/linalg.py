"""Exact sparse kernels in integer arithmetic.

Matrices are sparse rows ``{column: value}``.  Degree questions use
Newton interpolation on the principal lattice {|x| <= K} (Chung and Yao,
SIAM J. Numer. Anal. 14, 1977): every function there is uniquely
Sum_{|alpha| <= K} D^alpha f(0) prod_i C(x_i, alpha_i), so it has total
degree <= M exactly when every D^alpha f(0) with |alpha| > M vanishes.
"""

from __future__ import annotations

from functools import lru_cache

from .core import enumerate_lattice

def sparse_product(A, B) -> list[dict]:
    """Rows of A B for matrices given as sparse rows {column: value}."""
    out = []
    for row in A:
        acc: dict = {}
        for k, a in row.items():
            for j, b in B[k].items():
                acc[j] = acc.get(j, 0) + a * b
        out.append(acc)
    return out


@lru_cache(maxsize=64)
def _newton_plan(n: int, K: int) -> tuple:
    """(size, steps) of the simplex {|x| <= K}: the steps (x, x - e_a) of
    f(x) -= f(x - e_a), pass k = 1..K along each axis a in turn over the
    points with x_a >= k."""
    points = enumerate_lattice(n, K)
    index = {p: i for i, p in enumerate(points)}
    steps = []
    for a in range(n):
        # largest x_a first: a pass reads f(x - e_a) before it changes it
        down = sorted(points, key=lambda x: -x[a])
        for k in range(1, K + 1):
            steps += [(index[x], index[x[:a] + (x[a] - 1,) + x[a + 1:]])
                      for x in down if x[a] >= k]
    return len(points), tuple(steps)


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
