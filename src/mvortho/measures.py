"""Orthogonality weights and the weighted inner product.

Hahn and Krawtchouk weights are probability distributions on the
simplex |x| <= N and sum to 1 exactly.  The Meixner weight lives on all
of N_0^n; tabulating it on a box |x| <= xmax leaves an exactly bounded
tail.  The square root of the weight is deliberately never formed:
every identity that involves it is verified through a rational
equivalent (weight ratios, weighted self-adjointness).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from ._backend import R, ZERO, ONE, as_integer, integer_scaled
from .core import Lattice, LatticeFunction, family_lattice, multinomial, rising_factorial


def hahn_weight(x, params):
    """Hypergeometric multinomial weight at x, |x| <= N.

    multinomial(N; x) * prod (a_i)_{x_i} * (b)_{N-|x|} / (|a|+b)_N
    """
    rest = params.N - sum(x)
    if rest < 0:
        raise ValueError(f"|x| = {sum(x)} exceeds N = {params.N}")
    out = R(multinomial(params.N, x))
    for ai, xi in zip(params.a, x):
        out *= rising_factorial(ai, xi)
    out *= rising_factorial(params.b, rest)
    return out / rising_factorial(params.a_total + params.b, params.N)


def krawtchouk_weight(x, params):
    """Multinomial weight at x: multinomial(N; x) * prod a_i^{x_i} / (1+|a|)^N."""
    rest = params.N - sum(x)
    if rest < 0:
        raise ValueError(f"|x| = {sum(x)} exceeds N = {params.N}")
    out = R(multinomial(params.N, x))
    for ai, xi in zip(params.a, x):
        out *= R(ai) ** xi
    return out / (1 + params.a_total) ** params.N


def meixner_normalization(params):
    """(1-|a|)^beta when beta is a non-negative integer, else None.

    For non-integer rational beta the constant is irrational, so the
    weight is used unnormalized; a global constant does not affect
    orthogonality.
    """
    if params.integral_beta:
        return (1 - params.a_total) ** as_integer(params.beta)
    return None


def meixner_weight(x, params, normalized: bool | None = None):
    """Negative multinomial weight at x: (beta)_{|x|} prod a_i^{x_i}/x_i!.

    The constant factor (1-|a|)^beta is applied when beta is integral
    (or when ``normalized=True`` is requested, which then requires an
    integral beta); otherwise the value is the unnormalized weight.
    """
    if any(c < 0 for c in x):
        raise ValueError("coordinates must be non-negative")
    out = rising_factorial(params.beta, sum(x))
    for ai, xi in zip(params.a, x):
        out *= R(ai) ** xi / math.factorial(xi)
    norm = meixner_normalization(params)
    if normalized and norm is None:
        raise ValueError("(1-|a|)^beta is irrational for non-integer beta")
    if norm is not None and normalized is not False:
        out *= norm
    return out


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
    if not 0 < q < 1:
        raise ValueError("need 0 < q < 1")
    S2 = stirling2_table(t)
    total = ZERO
    for k in range(t + 1):
        if S2[t][k] == 0:
            continue
        full = R(math.factorial(k)) * q**k / (1 - q) ** (k + 1)
        head = ZERO
        for s in range(X + 1):
            ff = ONE
            for j in range(k):
                ff *= s - j
            head += ff * q**s
        total += S2[t][k] * (full - head)
    return total


def meixner_shell_mass(params, s: int):
    """Unnormalized weight mass of the shell |x| = s: (beta)_s |a|^s / s!."""
    return rising_factorial(params.beta, s) * params.a_total**s / math.factorial(s)


def rising_over_factorial_coeffs(beta: int) -> list:
    """Coefficients c_d with (beta)_s / s! = Sum_d c_d s^d, for an integer beta >= 1.

    (beta)_s / s! = prod_{r=1}^{beta-1} (s + r) / (beta-1)!, a polynomial
    in s of degree beta-1.
    """
    coeffs = [ONE]
    for r in range(1, beta):
        nxt = [ZERO] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d] += c * r
            nxt[d + 1] += c
        coeffs = nxt
    fact = math.factorial(beta - 1)
    return [c / fact for c in coeffs]


def meixner_tail_mass_bound(params, xmax: int, normalized: bool = True):
    """Exact upper bound on the weight mass beyond |x| <= xmax.

    For integral beta, (beta)_s/s! is a polynomial in s of degree
    beta-1, so the tail Sum_{s>X} (beta)_s |a|^s / s! has an exact
    closed form.  Otherwise the term ratio |a|(beta+s)/(s+1) is bounded
    by a q < 1 (it decreases in s once beta > 1) and a geometric bound
    is returned.  Scaled by (1-|a|)^beta when the weight is normalized.
    """
    A = params.a_total
    if params.integral_beta:
        bound = sum(
            c * tail_power_sum(A, xmax, d)
            for d, c in enumerate(rising_over_factorial_coeffs(as_integer(params.beta)))
        )
    else:
        ratio_at = lambda s: A * (params.beta + s) / (s + 1)
        q = max(A, ratio_at(xmax + 1))
        if q >= 1:
            raise ValueError(f"xmax = {xmax} too small for a geometric tail bound")
        bound = meixner_shell_mass(params, xmax + 1) / (1 - q)
    if normalized:
        norm = meixner_normalization(params)
        if norm is not None:
            bound *= norm
    return bound


@dataclass(frozen=True)
class WeightTable:
    """Weight values tabulated over an enumerated lattice.

    ``normalized`` records whether the Meixner constant was applied
    (always True for Hahn/Krawtchouk).  ``tail_bound`` is the exact
    bound on the mass outside a truncated box, None for exact domains.
    """

    params: object
    lattice: Lattice
    values: tuple
    normalized: bool
    tail_bound: object = None

    def __call__(self, x):
        return self.values[self.lattice.index[tuple(x)]]

    @property
    def total(self):
        return sum(self.values, ZERO)


def weight_table(params, xmax: int | None = None) -> WeightTable:
    """Tabulate the family weight on its canonical (or truncated) lattice."""
    lattice = family_lattice(params, xmax=xmax)
    values = tuple(params.weight(x) for x in lattice.points)
    if not lattice.truncated:
        return WeightTable(params, lattice, values, True)
    normalized = params.integral_beta
    bound = meixner_tail_mass_bound(params, lattice.bound, normalized=normalized)
    return WeightTable(params, lattice, values, normalized, bound)


def _same_lattice(f: LatticeFunction, w: WeightTable, what: str) -> None:
    if f.lattice is not w.lattice and f.lattice != w.lattice:
        raise ValueError(f"{what} and weight live on different lattices")


def _integer_scaled(values) -> tuple[list, int]:
    """Integer numerators of ``values`` over their lcm denominator, and that denominator."""
    if any(v is None for v in values):
        raise ValueError("inner_product over a table with undefined entries")
    return integer_scaled(values)


def inner_product(f: LatticeFunction, g: LatticeFunction, w: WeightTable):
    """Exact weighted inner product Sum_x f(x) g(x) W(x).

    Each of f, g and W is scaled to integers over its lcm denominator;
    the sum runs in ints and one rational is formed at the end.
    """
    _same_lattice(f, w, "inner_product: f")
    _same_lattice(g, w, "inner_product: g")
    fn, df = _integer_scaled(f.values)
    gn, dg = _integer_scaled(g.values)
    wn, dw = _integer_scaled(w.values)
    return R(sum(a * b * c for a, b, c in zip(fn, gn, wn)), df * dg * dw)


def gram_matrix(tables, w: WeightTable, known=()) -> list[list]:
    """Symmetric matrix of inner_product(tables[i], tables[j], w).

    ``known`` is the Gram matrix of a leading run of ``tables``; its
    entries are kept, and only the new rows and columns are computed.
    Each table and the weight are scaled to integers once, not once per
    entry; the weight is folded into the row table before the products.
    """
    for table in tables:
        _same_lattice(table, w, "gram_matrix: table")
    wn, dw = _integer_scaled(w.values)
    scaled = [_integer_scaled(table.values) for table in tables]
    size, done = len(tables), len(known)
    G = [list(row) + [ZERO] * (size - done) for row in known]
    G += [[ZERO] * size for _ in range(size - done)]
    for i, (fn, df) in enumerate(scaled):
        fw = [a * c for a, c in zip(fn, wn)]
        for j in range(max(i, done), size):
            gn, dg = scaled[j]
            G[i][j] = G[j][i] = R(sum(map(operator.mul, fw, gn)), df * dg * dw)
    return G
