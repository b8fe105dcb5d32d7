"""Exact sparse kernels in integer arithmetic.

Matrices are sparse rows ``{column: value}``.  Degree questions use
Newton interpolation on the principal lattice {|x| <= K} (Chung and Yao,
SIAM J. Numer. Anal. 14, 1977): every function there is uniquely
Sum_{|alpha| <= K} D^alpha f(0) prod_i C(x_i, alpha_i), so it has total
degree <= M exactly when every D^alpha f(0) with |alpha| > M vanishes.
"""

from __future__ import annotations

from ._backend import R, integer_scaled
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


def forward_differences(values, n: int, K: int) -> list:
    """Newton coefficients D^alpha f(0), |alpha| <= K, of a table on {|x| <= K}.

    ``values`` lists f in the graded-lex order of ``enumerate_lattice(n, K)``
    and the coefficients come back in the same order, alpha in place of
    x.  Differences are taken in place, axis by axis along each line of
    the simplex, on integer numerators over the table's lcm denominator.
    """
    points = enumerate_lattice(n, K)
    if len(values) != len(points):
        raise ValueError(f"need {len(points)} values on the simplex |x| <= {K}")
    index = {p: i for i, p in enumerate(points)}
    num, den = integer_scaled(values)
    for axis in range(n):
        for x in points:
            if x[axis]:
                continue
            line = [index[x[:axis] + (t,) + x[axis + 1:]]
                    for t in range(K - sum(x) + 1)]
            for k in range(1, len(line)):
                for t in range(len(line) - 1, k - 1, -1):
                    num[line[t]] -= num[line[t - 1]]
    return [R(v, den) for v in num]
