"""Orthogonality weights and the weighted inner product.

Hahn and Krawtchouk weights are probability distributions on the
simplex |x| <= N and sum to 1 exactly.  The Meixner weight lives on all
of N_0^n; tabulating it on a box |x| <= xmax leaves an exactly bounded
tail, and inner products of polynomials over all of N_0^n are exact
finite sums against its factorial moments.  The square root of the
weight is deliberately never formed: every identity that involves it
is verified through a rational equivalent (weight ratios, weighted
self-adjointness).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from ._backend import R, ZERO, as_integer, integer_scaled
from .core import (Lattice, LatticeFunction, enumerate_lattice, family_lattice, multinomial,
                   rising_factorial)
from .linalg import newton_differences


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


def meixner_weight(x, params):
    """Negative multinomial weight at x: (beta)_{|x|} prod a_i^{x_i}/x_i!.

    The constant factor (1-|a|)^beta is applied when beta is integral;
    otherwise the value is the unnormalized weight.
    """
    if any(c < 0 for c in x):
        raise ValueError("coordinates must be non-negative")
    out = rising_factorial(params.beta, sum(x))
    for ai, xi in zip(params.a, x):
        out *= R(ai) ** xi / math.factorial(xi)
    norm = meixner_normalization(params)
    if norm is not None:
        out *= norm
    return out


def meixner_shell_mass(params, s: int):
    """Unnormalized weight mass of the shell |x| = s: (beta)_s |a|^s / s!."""
    return rising_factorial(params.beta, s) * params.a_total**s / math.factorial(s)


def meixner_tail_mass_bound(params, xmax: int):
    """Exact upper bound on the weight mass beyond |x| <= xmax.

    For integral beta the bound is the exact tail: the negative binomial
    series Sum_{s>=0} (beta)_s |a|^s / s! = (1-|a|)^{-beta} less the
    shells s <= xmax.  Otherwise the term ratio |a|(beta+s)/(s+1) is
    monotone in s with limit |a| < 1: the shells are summed exactly up to
    the first s whose q = max(|a|, ratio) is below 1, and the rest is
    bounded geometrically from there.  Scaled by (1-|a|)^beta when beta
    is integral, like the weight.
    """
    A = params.a_total
    if params.integral_beta:
        bound = (1 - A) ** -as_integer(params.beta) - sum(
            meixner_shell_mass(params, s) for s in range(xmax + 1))
    else:
        bound, s = ZERO, xmax + 1
        while (q := max(A, A * (params.beta + s) / (s + 1))) >= 1:
            bound += meixner_shell_mass(params, s)
            s += 1
        bound += meixner_shell_mass(params, s) / (1 - q)
    norm = meixner_normalization(params)
    return bound if norm is None else bound * norm


def meixner_moments(params, K: int) -> list:
    """Factorial moments of the normalized Meixner weight, |alpha| <= K.

    Sum_x C(x, alpha) W(x) / Sum_x W(x) = (beta)_{|alpha|} prod_i
    c_i^{alpha_i} / alpha_i!, with c_i = a_i / (1 - |a|) and C(x, alpha) =
    prod_i C(x_i, alpha_i): the negative multinomial law (Johnson, Kotz &
    Balakrishnan, *Discrete Multivariate Distributions*, 1997, ch. 36).
    Rational for every rational beta; alpha runs in the graded-lex order
    of ``enumerate_lattice(n, K)``.
    """
    c = [ai / (1 - params.a_total) for ai in params.a]
    return [rising_factorial(params.beta, sum(alpha))
            * math.prod(ci**k / math.factorial(k) for ci, k in zip(c, alpha))
            for alpha in enumerate_lattice(params.n, K)]


def lattice_inner_product(f: LatticeFunction, g: LatticeFunction, moments):
    """Exact Sum_x f(x) g(x) W(x) / Sum_x W(x) over all of N_0^n.

    f and g are tables of polynomials with deg f + deg g <= K on the
    simplex |x| <= K, and ``moments`` is ``meixner_moments(params, K)``.
    The Newton expansion f g = Sum_alpha D^alpha(f g)(0) C(x, alpha) on
    that simplex holds on all of N_0^n, so the sum is
    Sum_alpha D^alpha(f g)(0) moments[alpha].  The differences are taken
    on the product of the tables' integer forms
    (:func:`mvortho.linalg.newton_differences`), against the moments
    scaled to integers: one rational per inner product.
    """
    if g.lattice != f.lattice:
        raise ValueError("lattice_inner_product: f and g live on different lattices")
    (fn, df), (gn, dg) = _defined(f.integer_form()), _defined(g.integer_form())
    newton = newton_differences(list(map(operator.mul, fn, gn)), f.lattice.n, f.lattice.bound)
    mn, dm = integer_scaled(moments)
    return R(sum(d * mu for d, mu in zip(newton, mn, strict=True)), df * dg * dm)


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
    bound = meixner_tail_mass_bound(params, lattice.bound)
    return WeightTable(params, lattice, values, params.integral_beta, bound)


def _defined(scaled: tuple) -> tuple:
    """``scaled``, an integer form (numerators, denominator), with every entry defined."""
    if None in scaled[0]:
        raise ValueError("inner product over a table with undefined entries")
    return scaled


def gram_matrix(tables, w: WeightTable, known=()) -> list[list]:
    """Symmetric matrix of the exact weighted inner products
    Sum_x tables[i](x) tables[j](x) W(x).

    ``known`` is the Gram matrix of a leading run of ``tables``; its
    entries are kept, and only the new rows and columns are computed.
    The tables are read in their integer form, and the weight is scaled
    to integers once, not once per entry; the weight is folded into the
    row table before the products.
    """
    if any(table.lattice != w.lattice for table in tables):
        raise ValueError("gram_matrix: a table and the weight live on different lattices")
    wn, dw = _defined(integer_scaled(w.values))
    scaled = [_defined(table.integer_form()) for table in tables]
    size, done = len(tables), len(known)
    G = [list(row) + [ZERO] * (size - done) for row in known]
    G += [[ZERO] * size for _ in range(size - done)]
    for i, (fn, df) in enumerate(scaled):
        fw = [a * c for a, c in zip(fn, wn)]
        for j in range(max(i, done), size):
            gn, dg = scaled[j]
            G[i][j] = G[j][i] = R(sum(map(operator.mul, fw, gn)), df * dg * dw)
    return G
