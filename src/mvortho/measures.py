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
weight table keeps the products' integers over one denominator.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from ._backend import R, ZERO, as_integer, integer_scaled
from .core import LatticeFunction, enumerate_lattice, family_lattice, rising_factorial
from .linalg import newton_differences


def _weight_products(params, points, bound: int) -> tuple:
    """The weight at ``points`` as (numerators, den): the product of the family's
    rows at x_1, ..., x_n and |x|, each row scaled to integers once."""
    rows, radial, c = params.weight_rows(bound)
    (*rows, radial), dens = zip(*map(integer_scaled, [*rows, [c * v for v in radial]]))
    return [math.prod(map(operator.getitem, rows, x), start=radial[sum(x)])
            for x in points], math.prod(dens)


def _weight_at(x, params):
    """The weight at one lattice point: one point of :func:`weight_table`."""
    x = params.lattice_point(x)
    (num,), den = _weight_products(params, [x], sum(x) if params.N is None else params.N)
    return R(num, den)


def hahn_weight(x, params):
    """multinomial(N; x) prod (a_i)_{x_i} (b)_{N-|x|} / (|a|+b)_N at x, |x| <= N."""
    return _weight_at(x, params)


def krawtchouk_weight(x, params):
    """multinomial(N; x) prod a_i^{x_i} / (1+|a|)^N at x, |x| <= N."""
    return _weight_at(x, params)


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
    """(beta)_{|x|} prod a_i^{x_i} / x_i! at x, times (1-|a|)^beta if beta is integral."""
    return _weight_at(x, params)


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
    (fn, df), (gn, dg) = f.integer_form(), g.integer_form()
    newton = newton_differences(list(map(operator.mul, fn, gn)), f.lattice.n, f.lattice.bound)
    mn, dm = integer_scaled(moments)
    return R(sum(d * mu for d, mu in zip(newton, mn, strict=True)), df * dg * dm)


@dataclass(frozen=True, eq=False)
class WeightTable(LatticeFunction):
    """Weight values tabulated over an enumerated lattice, built from their
    integer form (:meth:`LatticeFunction.from_integers`).

    ``normalized`` records whether the Meixner constant was applied
    (always True for Hahn/Krawtchouk).  ``tail_bound`` is the exact
    bound on the mass outside a truncated box, None for exact domains.
    """

    params: object = None
    normalized: bool = True
    tail_bound: object = None

    @property
    def total(self):
        nums, den = self.integer_form()
        return R(sum(nums), den)


def weight_table(params, xmax: int | None = None) -> WeightTable:
    """Tabulate the family weight on its canonical (or truncated) lattice, each
    value an integer product of the family's weight rows over one denominator."""
    lattice = family_lattice(params, xmax=xmax)
    nums, den = _weight_products(params, lattice.points, lattice.bound)
    if not lattice.truncated:
        return WeightTable.from_integers(lattice, nums, den, params=params)
    bound = meixner_tail_mass_bound(params, lattice.bound)
    return WeightTable.from_integers(lattice, nums, den, params=params,
                                     normalized=params.integral_beta, tail_bound=bound)


def gram_matrix(tables, w: WeightTable) -> list[list]:
    """Symmetric matrix of the exact weighted inner products
    Sum_x tables[i](x) tables[j](x) W(x).

    The tables and the weight are read in their integer forms; the
    weight is folded into the row table before the products.
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
