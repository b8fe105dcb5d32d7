"""The three families as parameter bundles that carry their own formulas.

Krawtchouk and Meixner are limits of Hahn, so the family is a parameter
of one construction: a Karlin-McGregor operator

* single:      sum_j B_j(x) (1 - E_j^+) + D_j(x) (1 - E_j^-)
* exchange(i): sum_{j != k >= i} c_{jk}(x) (1 - E_j^- E_k^+)
* total:       single + exchange(1)

and eigenpolynomials P_m(x) built as pair factors in (x_j, x_{>j}) times
a radial factor in |x|.  Each class holds its family's rates, weight,
factors and label; every other module reads the family through these
methods only.  The rates are seven constants of one form (``rate_form``,
see :class:`mvortho.core.FamilyParams`), which also fix the operators'
eigenvalues (:func:`mvortho.operators.eigenvalue`): a family declares
no eigenvalue.  Each factor is declared once, as an integer slot over a
list of arguments (``pair_slot``, ``radial_slot``), and the type-one
polynomial as a grid over the subset sums (``type_one``): what the value
tables and ``eigenpoly`` read.  Krawtchouk and Meixner share their pair polynomials.
"""

from __future__ import annotations

import math
from functools import cached_property

from ._backend import R, ONE, is_integral
from .core import FamilyParams, positive_rational, rising_factorial, term_row
from .measures import meixner_normalization
from .polynomials import hahn_grid, hahn_pair_sums, km_pair_sums, krawtchouk_grid, meixner_grid
from .serialize import rational_str


class HahnParams(FamilyParams):
    """Hahn family: positive rationals a_1..a_n, b, integer N > n >= 2.

    B_j = (N-|x|)(x_j+a_j),  D_j = x_j(N-|x|+b),  c_jk = x_j(x_k+a_k)
    """

    _fields = ("a", "b", "N")
    family = "hahn"
    pair_name = "hahn"
    hahn_checks = True

    def __init__(self, a, b, N: int):
        super().__init__(a)
        vars(self).update(b=positive_rational(b, "b"), N=N)
        self._check_bound()

    @cached_property
    def label(self) -> str:
        # the shared part through its function: super().label would store
        # that part under this name before this property stores the whole
        return f"{FamilyParams.label.func(self)} b={rational_str(self.b)}"

    @property
    def rate_form(self) -> tuple:
        return self.N, -1, 1, self.N + self.b, -1, 1, 1

    def weight_rows(self, bound: int) -> tuple:
        """([r_1, ..., r_n], rho, c) of W(x) = c prod_i r_i(x_i) rho(|x|), k, s <= bound:
        r_i(k) = (a_i)_k / k!, rho(s) = (b)_{N-s} / (N-s)!, c = N! / (|a|+b)_N."""
        rows = [term_row(bound, lambda k, ai=ai: (ai + k - 1) / k) for ai in self.a]
        radial = term_row(self.N, lambda k: (self.b + k - 1) / k)[::-1]
        c = math.factorial(self.N) / rising_factorial(self.a_total + self.b, self.N)
        return rows, radial, c

    def radial_slot(self, m0: int, s1: int, sizes) -> tuple:
        """Radial factor of P_m, with s1 = |m| - m_0, as (numerators, den) at
        the integers |x| of ``sizes``: hahn(m0, |x| - s1, |a| + 2 s1, b, N - s1)."""
        return hahn_grid(m0, self.a_total + 2 * s1, self.b, self.N - s1, [s - s1 for s in sizes])

    def pair_slot(self, j: int, mj: int, shift: int, args) -> tuple:
        """Pair factor j of degree mj, with shift = sum_{k>j} m_k, as
        (numerators, den) at the integer points (x_j, x_{>j}) = (u, t) of
        ``args``: read at (u, t - shift), with the tail slot at a_{>j} + 2 shift."""
        return hahn_pair_sums(mj, self.a[j - 1], self.a_tail(j) + 2 * shift,
                              [(u, t - shift) for u, t in args])

    def type_one(self, m: int, aJ, sums) -> tuple:
        """Degree-m polynomial in the subset sum x_J, with a_J = sum_{j in J} a_j,
        as (numerators, den) at the integers x_J of ``sums``."""
        return hahn_grid(m, aJ, self.a_total + self.b - aJ, self.N, sums)

    pair_sums = staticmethod(hahn_pair_sums)

    @staticmethod
    def pair_rate(u, alpha):
        """Coefficient of the forward shift in u: the rates carry x_j + a_j."""
        return u + alpha

    @staticmethod
    def pair_shift(m: int, alpha, gamma) -> tuple:
        """(c, d, alpha', gamma') of the pair shift relations

        P_m(u, v+1) - P_m(u+1, v) = c P_{m-1}(u, v; alpha', gamma')
        v rate(u, alpha) P_m(u, v-1; alpha', gamma')
            - u rate(v, gamma) P_m(u-1, v; alpha', gamma') = d P_{m+1}(u, v)
        """
        return R(m) * (m + alpha + gamma - 1), ONE, alpha + 1, gamma + 1


class _KMPairs:
    """The pair polynomials and death rates Krawtchouk and Meixner share."""

    pair_name = "km"

    def pair_slot(self, j: int, mj: int, shift: int, args) -> tuple:
        """As the Hahn pair slot, with the tail slot kept at a_{>j}."""
        return km_pair_sums(mj, self.a[j - 1], self.a_tail(j), [(u, t - shift) for u, t in args])

    pair_sums = staticmethod(km_pair_sums)

    @staticmethod
    def pair_rate(u, alpha):
        return alpha

    @staticmethod
    def pair_shift(m: int, alpha, gamma) -> tuple:
        return -R(m) * (alpha + gamma) / alpha, -alpha, alpha, gamma


class KrawtchoukParams(_KMPairs, FamilyParams):
    """Krawtchouk family: positive rationals a_1..a_n, integer N > n >= 2.

    B_j = (N-|x|) a_j,  D_j = x_j,  c_jk = x_j a_k
    """

    _fields = ("a", "N")
    family = "krawtchouk"

    def __init__(self, a, N: int):
        super().__init__(a)
        vars(self).update(N=N)
        self._check_bound()

    @property
    def rate_form(self) -> tuple:
        return self.N, -1, 0, 1, 0, 0, 1

    def weight_rows(self, bound: int) -> tuple:
        """r_i(k) = a_i^k / k!, rho(s) = 1 / (N-s)! and c = N! / (1+|a|)^N."""
        rows = [term_row(bound, lambda k, ai=ai: ai / k) for ai in self.a]
        radial = term_row(self.N, lambda k: R(1, k))[::-1]
        return rows, radial, math.factorial(self.N) / (1 + self.a_total) ** self.N

    def radial_slot(self, m0: int, s1: int, sizes) -> tuple:
        A = self.a_total
        return krawtchouk_grid(m0, A / (A + 1), self.N - s1, [s - s1 for s in sizes])

    def type_one(self, m: int, aJ, sums) -> tuple:
        return krawtchouk_grid(m, aJ / (1 + self.a_total), self.N, sums)

    def hahn_limit(self, t):
        """a_j -> a_j t, b = t."""
        return tuple(v * t for v in self.a), t, self.N


class MeixnerParams(_KMPairs, FamilyParams):
    """Meixner family: positive rationals a_1..a_n with |a| < 1, beta > 0.

    B_j = (beta+|x|) a_j,  D_j = x_j,  c_jk = -x_j a_k
    """

    _fields = ("a", "beta")
    family = "meixner"
    N = None

    def __init__(self, a, beta):
        super().__init__(a)
        vars(self).update(beta=positive_rational(beta, "beta"))
        if self.a_total >= 1:
            raise ValueError(f"need |a| < 1, got |a| = {self.a_total}")

    @property
    def bound_label(self) -> str:
        return f"beta={rational_str(self.beta)}"

    @property
    def integral_beta(self) -> bool:
        return is_integral(self.beta)

    @property
    def rate_form(self) -> tuple:
        return self.beta, 1, 0, 1, 0, 0, -1

    def weight_rows(self, bound: int) -> tuple:
        """r_i(k) = a_i^k / k!, rho(s) = (beta)_s, and c = (1-|a|)^beta when beta
        is integral, else 1: the weight is then unnormalized."""
        rows = [term_row(bound, lambda k, ai=ai: ai / k) for ai in self.a]
        radial = term_row(bound, lambda k: self.beta + k - 1)
        norm = meixner_normalization(self)
        return rows, radial, ONE if norm is None else norm

    def radial_slot(self, m0: int, s1: int, sizes) -> tuple:
        return meixner_grid(m0, self.a_total, self.beta + s1, [s - s1 for s in sizes])

    def type_one(self, m: int, aJ, sums) -> tuple:
        return meixner_grid(m, aJ / (1 - self.a_total + aJ), self.beta, sums)

    def hahn_limit(self, t):
        """a_j -> -a_j t, b = t, N -> -beta."""
        return tuple(-v * t for v in self.a), t, -self.beta


FAMILIES = {cls.family: cls for cls in (HahnParams, KrawtchoukParams, MeixnerParams)}
