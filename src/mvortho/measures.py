"""Orthogonality weights and the weighted inner product.

Hahn and Krawtchouk weights are probability distributions on the
simplex |x| <= N and sum to 1 exactly.  The Meixner weight lives on all
of N_0^n; tabulating it on a box |x| <= xmax leaves an exactly bounded
tail, and inner products of polynomials over all of N_0^n are exact
finite sums against its factorial moments.  The square root of the
weight is deliberately never formed: every identity that involves it
is verified through a rational equivalent (weight ratios, weighted
self-adjointness).  Each family declares its weight as integer slot
products, W(x) = c prod_i r_i(x_i) rho(|x|) (``weight_rows``), and a
weight table stores the products' integers over one denominator; the
weight at one point is that of a table, W(x) = weight_table(params)(x).
"""

from __future__ import annotations

import math
import operator
from functools import cached_property

from ._backend import R, ZERO, as_integer, integer_scaled
from .core import LatticeFunction, enumerate_lattice, family_lattice, rising_factorial, term_row
from .linalg import newton_differences


def _weight_products(params, points, bound: int) -> tuple:
    """The weight at ``points`` as (numerators, den): the product of the family's
    rows at x_1, ..., x_n and |x|, each row scaled to integers once."""
    rows, radial, c = params.weight_rows(bound)
    (*rows, radial), dens = zip(*map(integer_scaled, [*rows, [c * v for v in radial]]))
    return [math.prod(map(operator.getitem, rows, x), start=radial[sum(x)])
            for x in points], math.prod(dens)


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
    """(beta)_{|x|} prod a_i^{x_i} / x_i! at x, times (1-|a|)^beta if beta is
    integral: one point of :func:`weight_table`.  Kept while the benchmark's
    count check reads its ``measures.meixner_weight.calls`` key."""
    x = params.lattice_point(x)
    (num,), den = _weight_products(params, [x], sum(x))
    return R(num, den)


def meixner_tail_mass_bound(params, xmax: int):
    """Exact upper bound on the weight mass beyond |x| <= xmax.

    The shell |x| = s holds the unnormalized mass (beta)_s |a|^s / s!, and
    consecutive shells have the ratio |a|(beta+s)/(s+1).  For integral beta
    the bound is the exact tail: the negative binomial series
    Sum_{s>=0} (beta)_s |a|^s / s! = (1-|a|)^{-beta} less the shells
    s <= xmax.  Otherwise the ratio is monotone in s with limit |a| < 1:
    the shells are summed exactly up to the first s whose ratio is below 1,
    and the rest is bounded geometrically from there, by q = max(|a|, ratio).
    Scaled by (1-|a|)^beta when beta is integral, like the weight.
    """
    A, beta = params.a_total, params.beta
    shells = term_row(xmax + 1, lambda s: A * (beta + s - 1) / s)
    if params.integral_beta:
        bound = (1 - A) ** -as_integer(beta) - sum(shells[:-1])
    else:
        bound, s, shell = ZERO, xmax + 1, shells[-1]
        while (ratio := A * (beta + s) / (s + 1)) >= 1:
            bound += shell
            shell *= ratio
            s += 1
        bound += shell / (1 - max(A, ratio))
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
    (fn, df), (gn, dg) = f.integer_form(), g.integer_form()
    newton = newton_differences(list(map(operator.mul, fn, gn)), f.lattice.n, f.lattice.bound)
    mn, dm = integer_scaled(moments)
    return R(sum(d * mu for d, mu in zip(newton, mn, strict=True)), df * dg * dm)


class WeightTable(LatticeFunction):
    """Weight values tabulated over an enumerated lattice, as their integer
    form, for the family bundle ``params``.

    ``normalized`` tells whether the Meixner constant was applied (always
    True on an exact domain).  ``tail_bound`` is the exact bound on the
    mass outside a truncated box, None on an exact domain.
    """

    _fields = ("lattice", "nums", "den", "params")

    def __init__(self, lattice, nums, den: int, params):
        super().__init__(lattice, nums, den)
        vars(self).update(params=params)

    @property
    def normalized(self) -> bool:
        return not self.lattice.truncated or self.params.integral_beta

    @cached_property
    def tail_bound(self):
        if not self.lattice.truncated:
            return None
        return meixner_tail_mass_bound(self.params, self.lattice.bound)

    @property
    def total(self):
        return R(sum(self.nums), self.den)


def weight_table(params, xmax: int | None = None) -> WeightTable:
    """Tabulate the family weight on its canonical (or truncated) lattice, each
    value an integer product of the family's weight rows over one denominator."""
    lattice = family_lattice(params, xmax=xmax)
    return WeightTable(lattice, *_weight_products(params, lattice.points, lattice.bound), params)


def gram_matrix(tables, w: WeightTable) -> list[list]:
    """Symmetric matrix of the exact weighted inner products
    Sum_x tables[i](x) tables[j](x) W(x).

    The tables and the weight are read in their integer forms; the
    weight is folded into the row table before the products, and each
    entry is one rational (a zero entry is the shared ``ZERO``).
    """
    if any(table.lattice != w.lattice for table in tables):
        raise ValueError("gram_matrix: a table and the weight live on different lattices")
    wn, dw = w.integer_form()
    scaled = [table.integer_form() for table in tables]
    size = len(tables)
    G = [[ZERO] * size for _ in range(size)]
    for i, (fn, df) in enumerate(scaled):
        fw = [a * c for a, c in zip(fn, wn)]
        for j in range(i, size):
            gn, dg = scaled[j]
            G[i][j] = G[j][i] = R(sum(map(operator.mul, fw, gn)), df * dg * dw)
    return G
