"""Identity verification harness.

Every check is exact: a pass requires the defect to be exactly zero (no
epsilon anywhere).  On the truncated Meixner box the orthogonality
checks (``gram``, ``pair-orthogonality``) decide on the full-lattice
inner products, exact finite sums against the factorial moments of the
weight; the only tail bound left is the missing weight mass that
``normalization`` compares with :func:`mvortho.measures.meixner_tail_mass_bound`.

Every check of an instance takes one :class:`SuiteContext`.  The
context builds the lattice, the weight tables, the operator stencils,
the eigenpolynomial tables and the Gram entries on first use and hands
the same objects to every later check, so a suite builds each of them
once.  Checks only read what the context built; the context fills its
caches as checks ask, so one context serves one thread.  Nothing is
cached beyond a context: a fresh context sees patched rates or weights.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement

from ._backend import R, ZERO, ONE
from .core import LatticeFunction, enumerate_degrees, family_lattice, rising_factorial, tail_sum
from .measures import (
    gram_matrix,
    inner_product,
    lattice_inner_product,
    meixner_moments,
    weight_table,
)
from .operators import (
    OperatorMatrix,
    OperatorSpec,
    adjointness_defect,
    apply_matrix,
    commutator_defect,
    image_degree,
    operator_matrix,
)
from .polynomials import (
    eigenpoly,
    eigenpoly_tables,
    eigenvalue,
    hahn,
    hahn_pair,
    pair_backward_table,
    pair_product,
)
from .serialize import rational_str, sci_str

PASS, FAIL, SKIP = "pass", "fail", "skipped"


@dataclass
class CheckReport:
    """Outcome of one verification: name, instance, status, exact defect."""

    name: str
    instance: str
    status: str
    max_defect: object = None
    wall_time: float = 0.0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def to_dict(self, with_timing: bool = False) -> dict:
        out = {
            "name": self.name,
            "instance": self.instance,
            "status": self.status,
            "max_defect": None if self.max_defect is None else rational_str(self.max_defect),
            "detail": self.detail,
        }
        if with_timing:
            out["wall_time"] = self.wall_time
        return out

    def text_row(self) -> str:
        defect = "-" if self.max_defect is None else rational_str(self.max_defect)
        if len(defect) > 24:
            defect = f"~{sci_str(self.max_defect)}"
        return (
            f"{self.status.upper():5s} {self.name:22s} {defect:>26s} "
            f"{self.wall_time:8.3f}s  {self.instance}"
            + (f"  [{self.detail}]" if self.detail else "")
        )


def _report(name: str, instance: str, body) -> CheckReport:
    """Time ``body() -> (status, defect[, detail])`` into a report."""
    t0 = time.perf_counter()
    status, defect, *detail = body()
    return CheckReport(name, instance, status, defect, time.perf_counter() - t0, *detail)


def random_rational(rng: random.Random, max_part: int = 20):
    """Positive rational with numerator and denominator <= max_part."""
    return R(rng.randint(1, max_part), rng.randint(1, max_part))


# ---------------------------------------------------------------------------
# measure-level checks


def normalization_check(ctx: SuiteContext) -> CheckReport:
    """Bounded families: the weight sums to 1 exactly.  Meixner: partial
    sums increase with the box and the missing mass obeys the tail bound."""
    params = ctx.params

    def body():
        w = ctx.weights()
        if params.N is None:
            half = ctx.weights(ctx.xmax // 2)
            if not half.total < w.total:
                return FAIL, w.total - half.total, "partial sums not increasing"
            if w.normalized:
                missing = 1 - w.total
                if not (0 < missing <= w.tail_bound):
                    return FAIL, missing, "missing mass outside tail bound"
                return PASS, ZERO, f"1 - sum = {sci_str(missing)} <= bound {sci_str(w.tail_bound)}"
            return PASS, ZERO, "unnormalized weight (non-integer beta); monotone partial sums"
        defect = abs(w.total - 1)
        return (PASS if defect == 0 else FAIL), defect, ""

    return _report("normalization", params.label, body)


def compatibility_check(ctx: SuiteContext) -> CheckReport:
    """Weight-ratio identity and the pairwise compatibility condition.

    W(x+e_j)/W(x) = B_j(x)/D_j(x+e_j) for all interior x and j, and the
    two-step ratio B_j/D_j * B_k/D_k is invariant under swapping j,k.
    """
    params = ctx.params

    def body():
        w = ctx.weights()
        lattice = w.lattice
        n = params.n
        worst = ZERO
        for x in lattice.points:
            for j in range(n):
                yj = x[:j] + (x[j] + 1,) + x[j + 1 :]
                if yj not in lattice.index:
                    continue
                lhs = w(yj) * params.down_rate(yj, j)
                rhs = w(x) * params.up_rate(x, j)
                worst = max(worst, abs(lhs - rhs))
                for k in range(j + 1, n):
                    yk = x[:k] + (x[k] + 1,) + x[k + 1 :]
                    yjk = yj[:k] + (yj[k] + 1,) + yj[k + 1 :]
                    if yjk not in lattice.index:
                        continue
                    # B_j(x) B_k(x+e_j) / (D_j(x+e_j) D_k(x+e_j+e_k)) is
                    # symmetric in j,k; compare cross-multiplied.
                    lhs = (
                        params.up_rate(x, j)
                        * params.up_rate(yj, k)
                        * params.down_rate(yk, k)
                        * params.down_rate(yjk, j)
                    )
                    rhs = (
                        params.up_rate(x, k)
                        * params.up_rate(yk, j)
                        * params.down_rate(yj, j)
                        * params.down_rate(yjk, k)
                    )
                    worst = max(worst, abs(lhs - rhs))
        return (PASS if worst == 0 else FAIL), worst

    return _report("compatibility", params.label, body)


def boundary_safety_check(ctx: SuiteContext) -> CheckReport:
    """Every coefficient that would multiply an out-of-lattice shift is 0."""
    params = ctx.params

    def body():
        if params.N is None:
            return SKIP, None, "semi-infinite lattice; frontier entries are flagged instead"
        n = params.n
        for x in ctx.lattice.points:
            if sum(x) == params.N:
                for j in range(n):
                    if params.up_rate(x, j) != 0:
                        return FAIL, params.up_rate(x, j), f"up rate nonzero at {x}"
            for j in range(n):
                if x[j] == 0:
                    if params.down_rate(x, j) != 0:
                        return FAIL, params.down_rate(x, j), f"down rate nonzero at {x}"
                    for k in range(n):
                        if k != j and params.exchange_coeff(x, j, k) != 0:
                            return FAIL, params.exchange_coeff(x, j, k), f"exchange nonzero at {x}"
        return PASS, ZERO, ""

    return _report("boundary-safety", params.label, body)


# ---------------------------------------------------------------------------
# operator-level checks


def adjointness_check(ctx: SuiteContext) -> CheckReport:
    def body():
        w = ctx.weights()
        worst = max(adjointness_defect(H, w) for H in ctx.stencils)
        return (PASS if worst == 0 else FAIL), worst

    return _report("adjointness", ctx.params.label, body)


def commutator_check(ctx: SuiteContext) -> CheckReport:
    def body():
        worst = max(commutator_defect(M1, M2) for M1, M2 in combinations(ctx.stencils, 2))
        detail = "interior-restricted rows" if ctx.lattice.truncated else ""
        return (PASS if worst == 0 else FAIL), worst, detail

    return _report("commutators", ctx.params.label, body)


def degree_invariance_report(ctx: SuiteContext, M: int) -> CheckReport:
    def body():
        degree = image_degree(ctx.stencils, M)
        ok = degree <= M
        return (PASS if ok else FAIL), (ZERO if ok else None), f"largest image degree {degree}"

    return _report("degree-invariance", f"{ctx.params.label} M={M}", body)


# ---------------------------------------------------------------------------
# eigen checks


def residual_defect(H: OperatorMatrix, table: LatticeFunction, eig) -> tuple:
    """Max |(H f)(x) - eig * f(x)| over points with a defined image."""
    image = apply_matrix(H, table)
    worst = ZERO
    checked = 0
    for fv, gv in zip(table.values, image.values):
        if gv is None:
            continue
        checked += 1
        d = abs(gv - eig * fv)
        if d > worst:
            worst = d
    return worst, checked


def eigen_check(ctx: SuiteContext, kind: str, m, index: int | None = None) -> CheckReport:
    """Residual of the eigenvalue equation for P_m under one operator."""
    params = ctx.params

    def body():
        (table,) = ctx.tables([m])
        eig = eigenvalue(params, kind, index, m)
        worst, checked = residual_defect(ctx.stencil(kind, index), table, eig)
        detail = f"eigenvalue {rational_str(eig)} on {checked} points"
        return (PASS if worst == 0 else FAIL), worst, detail

    op_label = kind if kind != "exchange" else f"exchange{index}"
    return _report("eigen", f"{params.label} m={tuple(m)} op={op_label}", body)


def eigen_suite(ctx: SuiteContext, m_max: int) -> list[CheckReport]:
    """Eigen residuals for every |m| <= m_max and every operator."""
    params = ctx.params

    def body():
        worst = ZERO
        count = 0
        degrees = enumerate_degrees(params.n, m_max)
        for m, table in zip(degrees, ctx.tables(degrees)):
            for H in ctx.stencils:
                eig = eigenvalue(params, H.op.kind, H.op.index, m)
                defect, _ = residual_defect(H, table, eig)
                worst = max(worst, defect)
                count += 1
        return (PASS if worst == 0 else FAIL), worst, f"{count} (m, operator) pairs"

    return [_report("eigen-suite", f"{params.label} all |m|<={m_max}", body),
            eigen_degeneracy_check(ctx, m_max)]


def eigen_degeneracy_check(ctx: SuiteContext, m_max: int) -> CheckReport:
    """All P_m of equal total degree share the total-operator eigenvalue."""
    params = ctx.params

    def body():
        by_degree: dict[int, set] = {}
        for m in enumerate_degrees(params.n, m_max):
            by_degree.setdefault(sum(m), set()).add(
                eigenvalue(params, "total", None, m)
            )
        bad = [d for d, vals in by_degree.items() if len(vals) != 1]
        return (PASS if not bad else FAIL), (ZERO if not bad else None)

    return _report("eigen-degeneracy", f"{params.label} |m|<={m_max}", body)


# ---------------------------------------------------------------------------
# type-one checks


def type_one_value(params, J, m: int, x) -> object:
    """Single-variable polynomial in the subset-sum variable x_J."""
    xJ = sum(x[j - 1] for j in J)
    return params.type_one(m, xJ, sum((params.a[j - 1] for j in J), ZERO))


def type_one_check(ctx: SuiteContext, J, m: int) -> CheckReport:
    """H_total on the subset polynomial: residual must vanish exactly."""
    params = ctx.params
    J = tuple(sorted(set(J)))
    if not J or any(not 1 <= j <= params.n for j in J):
        raise ValueError(f"J must be a nonempty subset of 1..{params.n}")

    def body():
        table = LatticeFunction.from_callable(
            ctx.lattice, lambda x: type_one_value(params, J, m, x)
        )
        eig = eigenvalue(params, "total", None, (m,) + (0,) * (params.n - 1))
        worst, _ = residual_defect(ctx.stencil("total"), table, eig)
        return (PASS if worst == 0 else FAIL), worst

    return _report("type-one", f"{params.label} J={set(J)} m={m}", body)


def type_one_suite(ctx: SuiteContext, m_max: int) -> list[CheckReport]:
    """Type-one residuals for every subset J and m <= m_max."""
    sites = range(1, ctx.params.n + 1)
    reports = [type_one_check(ctx, J, m) for size in sites
               for J in combinations(sites, size) for m in range(m_max + 1)]
    reports.append(same_degree_overlap_check(ctx, max(1, min(m_max, 2))))
    return reports


def same_degree_overlap_check(ctx: SuiteContext, m: int) -> CheckReport:
    """Same-degree subset polynomials are NOT orthogonal in general.

    Records at least one pair J != J' of equal degree with a nonzero
    inner product; failing to find one on a generic instance is a FAIL.
    """
    params = ctx.params

    def body():
        w = ctx.weights()
        sites = range(1, params.n + 1)
        subsets = [J for size in sites for J in combinations(sites, size)]
        tables = {
            J: LatticeFunction.from_callable(
                ctx.lattice, lambda x, J=J: type_one_value(params, J, m, x)
            )
            for J in subsets
        }
        for J1, J2 in combinations(subsets, 2):
            if inner_product(tables[J1], tables[J2], w) != 0:
                return PASS, None, f"({set(J1)}, {set(J2)}) overlap at degree {m}"
        return FAIL, None, "all same-degree pairs orthogonal (unexpected)"

    return _report("type-one-overlap", f"{params.label} m={m}", body)


# ---------------------------------------------------------------------------
# shift and recursion identities


def sv_shift_check(a, b, N: int, deg_max: int) -> CheckReport:
    """Single-variable forward and backward shift relations.

    Forward:  H_m(x) - H_m(x+1) = m(m+a+b-1)/(aN) H_{m-1}(x; a+1, b+1, N-1)
    Backward: (N-x)(x+a) H_m(x; a+1,b+1,N-1) - x(N-x+b) H_m(x-1; a+1,b+1,N-1)
              = aN H_{m+1}(x; a, b, N)
    """
    a, b = R(a), R(b)

    def body():
        worst = ZERO
        for m in range(deg_max + 1):
            for x in range(N + 1):
                if m >= 1:
                    lhs = hahn(m, x, a, b, N) - hahn(m, x + 1, a, b, N)
                    rhs = (
                        R(m) * (m + a + b - 1) / (a * N)
                        * hahn(m - 1, x, a + 1, b + 1, N - 1)
                    )
                    worst = max(worst, abs(lhs - rhs))
                lhs = (N - x) * (x + a) * hahn(m, x, a + 1, b + 1, N - 1) - R(x) * (
                    N - x + b
                ) * hahn(m, x - 1, a + 1, b + 1, N - 1)
                rhs = a * N * hahn(m + 1, x, a, b, N)
                worst = max(worst, abs(lhs - rhs))
        return (PASS if worst == 0 else FAIL), worst

    inst = f"hahn-1v a={rational_str(a)} b={rational_str(b)} N={N} m<={deg_max}"
    return _report("sv-shifts", inst, body)


def sv_difference_equation_check(a, b, N: int, deg_max: int) -> CheckReport:
    """(N-x)(x+a)(H_m(x)-H_m(x+1)) + x(N-x+b)(H_m(x)-H_m(x-1)) = m(m+a+b-1)H_m."""
    a, b = R(a), R(b)

    def body():
        worst = ZERO
        for m in range(deg_max + 1):
            for x in range(N + 1):
                h = lambda t: hahn(m, t, a, b, N)
                lhs = (N - x) * (x + a) * (h(x) - h(x + 1)) + R(x) * (N - x + b) * (
                    h(x) - h(x - 1)
                )
                worst = max(worst, abs(lhs - R(m) * (m + a + b - 1) * h(x)))
        return (PASS if worst == 0 else FAIL), worst

    return _report("sv-difference-eq", f"hahn-1v N={N} m<={deg_max}", body)


def pair_shift_check(alpha, gamma, deg_max: int, box: int, family) -> CheckReport:
    """Forward/backward shift relations for the pair polynomials of
    ``family`` (a family class or bundle; see its ``pair_shift``)."""
    alpha, gamma = R(alpha), R(gamma)
    P, rate = family.pair_poly, family.pair_rate

    def body():
        worst = ZERO
        for m in range(deg_max + 1):
            c, d, alpha1, gamma1 = family.pair_shift(m, alpha, gamma)
            for u in range(box + 1):
                for v in range(box + 1 - u):
                    if m >= 1:
                        lhs = P(m, u, v + 1, alpha, gamma) - P(m, u + 1, v, alpha, gamma)
                        worst = max(worst, abs(lhs - c * P(m - 1, u, v, alpha1, gamma1)))
                    lhs = (v * rate(u, alpha) * P(m, u, v - 1, alpha1, gamma1)
                           - u * rate(v, gamma) * P(m, u - 1, v, alpha1, gamma1))
                    worst = max(worst, abs(lhs - d * P(m + 1, u, v, alpha, gamma)))
        return (PASS if worst == 0 else FAIL), worst

    inst = (
        f"{family.pair_name}-pair alpha={rational_str(alpha)} gamma={rational_str(gamma)} "
        f"m<={deg_max} box={box}"
    )
    return _report("pair-shifts", inst, body)


def pair_recursion_check(alpha, gamma, deg_max: int, box: int, family) -> CheckReport:
    """Forward/backward three-term recursions for the pair polynomials:
    rate(u, alpha) P(u+1, v) + rate(v, gamma) P(u, v+1) = rate(u+v+m, alpha+gamma) P
    and u P(u-1, v) + v P(u, v-1) = (u+v-m) P."""
    alpha, gamma = R(alpha), R(gamma)
    rate = family.pair_rate

    def body():
        worst = ZERO
        for m in range(deg_max + 1):
            P = lambda uu, vv: family.pair_poly(m, uu, vv, alpha, gamma)
            for u in range(box + 1):
                for v in range(box + 1 - u):
                    fwd = rate(u, alpha) * P(u + 1, v) + rate(v, gamma) * P(u, v + 1)
                    worst = max(worst, abs(fwd - rate(u + v + m, alpha + gamma) * P(u, v)))
                    bwd = R(u) * P(u - 1, v) + R(v) * P(u, v - 1)
                    worst = max(worst, abs(bwd - (R(u + v) - m) * P(u, v)))
        return (PASS if worst == 0 else FAIL), worst

    return _report("pair-recursions", f"{family.pair_name}-pair m<={deg_max} box={box}", body)


def generalized_recursion_check(ctx: SuiteContext, i: int, m) -> CheckReport:
    """Forward/backward recursions for the chained pair product.

    With R(x) the product of pair factors i..n-1 (degree-shifted), sums
    over k = i..n (1-based sites), D = sum_{k>=i} m_k and the family's
    pair rate (x_k + a_k for Hahn, a_k for Krawtchouk/Meixner):

        sum rate(x_k, a_k) R(x+e_k) = rate(sum x_k + D, sum a_k) R(x)
        sum x_k R(x-e_k)            = (sum x_k - D) R(x)
    """

    params = ctx.params

    def body():
        lattice = ctx.lattice
        n = params.n
        deg = sum(m[i:])
        a_sum = sum(params.a[i - 1 :], ZERO)
        worst = ZERO
        for x in lattice.points:
            base = pair_product(i, m, x, params)
            fwd = ZERO
            bwd = ZERO
            for k in range(i, n + 1):
                xk = x[k - 1]
                up = x[: k - 1] + (xk + 1,) + x[k:]
                dn = x[: k - 1] + (xk - 1,) + x[k:]
                fwd += params.pair_rate(xk, params.a[k - 1]) * pair_product(i, m, up, params)
                if xk:
                    bwd += xk * pair_product(i, m, dn, params)
            tailx = sum(x[i - 1 :])
            worst = max(worst, abs(fwd - params.pair_rate(tailx + deg, a_sum) * base))
            worst = max(worst, abs(bwd - (tailx - deg) * base))
        return (PASS if worst == 0 else FAIL), worst

    return _report("generalized-recursions", f"{params.label} i={i} m={tuple(m)}", body)


def rodrigues_check(m_max: int, alpha, gamma, box: int) -> CheckReport:
    """Backward-shift chain reproduces the closed-form pair polynomial."""

    def body():
        worst = ZERO
        for m in range(m_max + 1):
            built = pair_backward_table(m, alpha, gamma, box)
            for (u, v), got in zip(built.lattice.points, built.values):
                want = hahn_pair(m, u, v, alpha, gamma)
                worst = max(worst, abs(got - want))
        return (PASS if worst == 0 else FAIL), worst

    inst = f"alpha={rational_str(R(alpha))} gamma={rational_str(R(gamma))} m<={m_max} box={box}"
    return _report("rodrigues", inst, body)


def glue_check(ctx: SuiteContext, i: int, m_i: int, m_im1: int) -> CheckReport:
    """Adjacent pair factors glue into an eigenfunction of exchange(i-1).

    The lower factor is evaluated at (x_{i-1}, x_{>i-1} - m_i) and, for
    Hahn, with its tail parameter shifted to a_{>i-1} + 2 m_i; the glued
    eigenvalue adds the degrees.
    """
    params = ctx.params
    if not 2 <= i <= params.n - 1:
        raise ValueError(f"glue index i = {i} outside [2, {params.n - 1}]")

    def body():
        def value(x):
            hi = params.pair_factor(i, m_i, 0, x[i - 1], tail_sum(x, i))
            lo = params.pair_factor(i - 1, m_im1, m_i, x[i - 2], tail_sum(x, i - 1))
            return hi * lo

        table = LatticeFunction.from_callable(ctx.lattice, value)
        m = [0] * params.n
        m[i - 1], m[i] = m_im1, m_i
        eig = eigenvalue(params, "exchange", i - 1, m)
        worst, _ = residual_defect(ctx.stencil("exchange", i - 1), table, eig)
        return (PASS if worst == 0 else FAIL), worst

    return _report("glue", f"{params.label} i={i} degrees=({m_i},{m_im1})", body)


# ---------------------------------------------------------------------------
# Gram / orthogonality


def _orthogonality_defect(entries: dict, labels) -> str:
    """The first entry (i, j) of ``entries`` that breaks orthogonality, or "".

    An off-diagonal entry must be exactly 0 and a diagonal one positive.
    """
    for (i, j), value in entries.items():
        if i != j and value != 0:
            return f"off-diagonal {labels[i]},{labels[j]} nonzero"
        if i == j and value <= 0:
            return f"non-positive diagonal at {labels[i]}"
    return ""


def gram_check(ctx: SuiteContext, m_max: int) -> CheckReport:
    """Gram matrix of {P_m : |m| <= m_max} under the family weight.

    Passes when every off-diagonal entry is exactly 0 and every diagonal
    entry positive, for every family.  On the Meixner box the entries
    are the full-lattice ones, exact sums against the factorial moments.
    ``max_defect`` is the largest |off-diagonal| of the instance
    lattice's Gram: 0 on the bounded families, the truncation error of
    the box on Meixner.
    """
    params = ctx.params
    if params.N is not None and m_max > params.N:
        raise ValueError("need m_max <= N")
    degrees = enumerate_degrees(params.n, m_max)
    pairs = list(combinations_with_replacement(range(len(degrees)), 2))

    def body():
        G = ctx.gram(m_max)
        worst = max((abs(G[i][j]) for i, j in pairs if i != j), default=ZERO)
        if not ctx.lattice.truncated:
            exact, note = {(i, j): G[i][j] for i, j in pairs}, ""
        else:
            simplex = eigenpoly_tables(degrees, params, family_lattice(params, xmax=2 * m_max))
            exact = ctx.full_lattice_products(simplex, pairs)
            note = (f"exact zeros on N^{params.n} by factorial moments; "
                    f"box max |offdiag| {sci_str(worst)}")
        defect = _orthogonality_defect(exact, degrees)
        return (FAIL, worst, defect) if defect else (PASS, worst, note)

    return _report("gram", f"{params.label} |m|<={m_max}", body)


def completeness_check(ctx: SuiteContext) -> CheckReport:
    """#{m : |m| <= N} equals |lattice| and the Gram matrix is nonsingular,
    which holds once it is diagonal with positive entries.  The Gram
    entries and tables of a preceding gram check are reused."""
    params = ctx.params

    def body():
        if params.N is None:
            return SKIP, None, "unbounded degree set on the semi-infinite lattice"
        size = ctx.lattice.size
        degrees = enumerate_degrees(params.n, params.N)
        if len(degrees) != size:
            return FAIL, None, "degree count differs from lattice size"
        G = ctx.gram(params.N)
        pairs = combinations_with_replacement(range(size), 2)
        defect = _orthogonality_defect({(i, j): G[i][j] for i, j in pairs}, degrees)
        if defect:
            return FAIL, None, f"Gram matrix not diagonal with positive entries: {defect}"
        return PASS, ZERO, f"count {size}, Gram diagonal positive, full rank"

    return _report("completeness", params.label, body)


def pair_orthogonality_report(ctx: SuiteContext, m: int) -> CheckReport:
    """Literal cross-sector orthogonality of the raw pair polynomials.

    Tests (P_m in sector i, P_m in sector j) for every i < j: it passes
    when every inner product is exactly 0, under the full weight on the
    bounded families and over all of N^n, from the factorial moments, on
    Meixner.  ``max_defect`` is the largest |inner product| on the
    instance lattice, the truncation error of the box on Meixner.
    """
    params = ctx.params
    sectors = range(1, params.n)
    pairs = list(combinations(range(len(sectors)), 2))

    def body():
        def sector_tables(lattice):
            return [LatticeFunction.from_callable(
                lattice, lambda x, i=i: params.pair_factor(i, m, 0, x[i - 1], tail_sum(x, i)))
                for i in sectors]

        tables = sector_tables(ctx.lattice)
        box = {(i, j): inner_product(tables[i], tables[j], ctx.weights()) for i, j in pairs}
        worst = max(map(abs, box.values()), default=ZERO)
        if not ctx.lattice.truncated:
            exact, detail = box, "full-weight inner product"
        else:
            simplex = sector_tables(family_lattice(params, xmax=2 * m))
            exact = ctx.full_lattice_products(simplex, pairs)
            detail = "full-lattice inner product by factorial moments"
        return (FAIL if _orthogonality_defect(exact, sectors) else PASS), worst, detail

    return _report("pair-orthogonality", f"{params.label} m={m}", body)


# ---------------------------------------------------------------------------
# limit transitions


def _limit_protocol(deviations, t_values) -> tuple:
    """First-order-in-1/t guard: each step must shrink by t_{k+1}/(2 t_k)."""
    for k in range(len(deviations) - 1):
        d0, d1 = abs(deviations[k]), abs(deviations[k + 1])
        if d0 == 0 and d1 == 0:
            continue
        # |d1| <= |d0| * 2 t_k / t_{k+1}, exactly in rationals
        if d1 * R(t_values[k + 1]) > 2 * d0 * R(t_values[k]):
            return FAIL, max(abs(d) for d in deviations)
    return PASS, abs(deviations[-1])


def rescaled_hahn_limit_value(m, x, params, scale):
    """Multivariate Hahn value at the blown-up parameters of which ``params``
    is the limit (``params.hahn_limit``), rescaled per factor.

    Krawtchouk target: a_j -> a_j t, b = t; Meixner target: a_j -> -a_j t,
    b = t, N -> -beta.  Each pair factor is divided by (-1)^{m_i} (alpha_t)_{m_i},
    which keeps it finite and oriented like the limit family's factor.
    """
    a_t, b_t, N_t = params.hahn_limit(R(scale))
    s1 = sum(m[1:])
    val = ONE
    for i in range(1, len(a_t)):
        shift = sum(m[i + 1 :])
        alpha_t = a_t[i - 1]
        gamma_t = sum(a_t[i:], ZERO) + 2 * shift
        fac = hahn_pair(m[i], x[i - 1], tail_sum(x, i) - shift, alpha_t, gamma_t)
        den = rising_factorial(alpha_t, m[i])
        if m[i] % 2:
            den = -den
        val *= fac / den
    radial = hahn(m[0], sum(x) - s1, sum(a_t, ZERO) + 2 * s1, b_t, N_t - s1)
    return val * radial


def limit_check(t_values, m, x, params) -> CheckReport:
    """Hahn -> Krawtchouk or Meixner limit of P_m(x) at increasing scales t."""

    def body():
        target = eigenpoly(m, x, params)
        devs = [rescaled_hahn_limit_value(m, x, params, t) - target for t in t_values]
        return _limit_protocol(devs, t_values)

    inst = (f"{params.family}-limit n={params.n} {params.bound_label} m={tuple(m)} "
            f"x={tuple(x)} t={list(t_values)}")
    return _report("limit", inst, body)


def limit_suite(params, rng: random.Random, count: int = 3,
                t_values=(100, 10_000, 1_000_000), xmax: int = 8) -> list[CheckReport]:
    """Random (m, x) draws for the limit transition of a Krawtchouk or
    Meixner bundle: m in {0,1,2}^n redrawn until |m| <= N, x on the lattice
    (the box |x| <= xmax for Meixner)."""
    n = params.n
    bound = xmax if params.N is None else params.N
    reports = []
    for _ in range(count):
        m = _random_point(rng, n, 2, params.N)
        x = _random_point(rng, n, bound, bound)
        reports.append(limit_check(t_values, m, x, params))
    return reports


def _random_point(rng, n: int, top: int, bound: int | None):
    """n ints in [0, top], redrawn until they sum to at most ``bound`` (if any)."""
    while True:
        x = tuple(rng.randint(0, top) for _ in range(n))
        if bound is None or sum(x) <= bound:
            return x


# ---------------------------------------------------------------------------
# the registry and the suite


class SuiteContext:
    """One instance, the suite's defaults for it, and the objects its checks read.

    The defaults are resolved once: xmax 12 on the truncated Meixner box
    (which needs xmax >= 1), m_max 3 (at most N), the degrees of the
    invariance and Gram checks, the box of the pair identities, and one
    seeded stream for every random draw.  The Meixner Gram degree stays
    at min(m_max, 1): the exact entries would allow m_max, but the
    benchmark's recorded digests pin the report instances of degree 1.

    The lattice, the weight tables (one per box), the operator stencils,
    the eigenpolynomial tables (one per degree m), the Gram entries and
    the Meixner factorial moments are built on first use and kept for
    the life of the context.
    """

    def __init__(self, params, m_max: int | None = None, xmax: int | None = None,
                 seed: int = 0):
        unbounded = params.N is None
        if unbounded:
            xmax = 12 if xmax is None else xmax
            if xmax < 1:
                raise ValueError(f"the truncated Meixner box needs xmax >= 1, got {xmax}")
        self.params = params
        self.xmax = xmax
        if m_max is None:
            m_max = 3 if unbounded else min(params.N, 3)
        self.m_max = m_max
        self.invariance_degree = min(2, m_max if unbounded else params.N)
        self.gram_degree = min(m_max, 1) if unbounded else m_max
        self.box = min(xmax if unbounded else params.N, 6)
        self.rng = random.Random(seed)
        self._weights: dict = {}
        self._stencils: dict = {}
        self._tables: dict = {}
        self._gram: list = []
        self._moments: dict = {}

    @cached_property
    def lattice(self):
        return family_lattice(self.params, xmax=self.xmax)

    def weights(self, xmax: int | None = None):
        """The weight table on the instance lattice, or on the Meixner box |x| <= xmax."""
        key = self.xmax if xmax is None else xmax
        if key not in self._weights:
            self._weights[key] = weight_table(self.params, xmax=key)
        return self._weights[key]

    def full_lattice_products(self, tables, pairs) -> dict:
        """{(i, j): inner product of tables[i] and tables[j] over all of N^n}, (i, j) in pairs.

        The tables are polynomials on one simplex |x| <= K whose products
        have degree at most K; each entry is an exact finite sum against
        the Meixner factorial moments of order <= K, built once per K.
        """
        K = tables[0].lattice.bound
        if K not in self._moments:
            self._moments[K] = meixner_moments(self.params, K)
        return {(i, j): lattice_inner_product(tables[i], tables[j], self._moments[K])
                for i, j in pairs}

    def stencil(self, kind: str, index: int | None = None) -> OperatorMatrix:
        key = (kind, index)
        if key not in self._stencils:
            spec = OperatorSpec(self.params, kind, index)
            self._stencils[key] = operator_matrix(spec, self.lattice)
        return self._stencils[key]

    @property
    def stencils(self) -> list[OperatorMatrix]:
        """The n+1 operators: total, single, exchange(1) .. exchange(n-1)."""
        return [self.stencil("total"), self.stencil("single")] + [
            self.stencil("exchange", i) for i in range(1, self.params.n)]

    def tables(self, degrees) -> list[LatticeFunction]:
        """Tables of P_m for m in ``degrees``; the missing ones are built in one call."""
        degrees = [self.params.degree_index(m) for m in degrees]
        missing = [m for m in dict.fromkeys(degrees) if m not in self._tables]
        if missing:
            self._tables.update(zip(missing, eigenpoly_tables(missing, self.params, self.lattice)))
        return [self._tables[m] for m in degrees]

    def gram(self, m_max: int) -> list[list]:
        """Gram matrix of P_m, |m| <= m_max.  The degrees of a smaller m_max
        are a graded-lex prefix, so their block is kept, not recomputed."""
        degrees = enumerate_degrees(self.params.n, m_max)
        size = len(degrees)
        if size > len(self._gram):
            self._gram = gram_matrix(self.tables(degrees), self.weights(), self._gram)
        return [row[:size] for row in self._gram[:size]]


def _shifts(ctx: SuiteContext) -> list[CheckReport]:
    p = ctx.params
    deg = min(5, ctx.m_max + 2)
    reports = []
    if p.hahn_checks:
        # the backward shift references degree m+1 at bound N-1
        sv_deg = min(deg, p.N - 2)
        reports.append(sv_shift_check(p.a[0], p.b, p.N, sv_deg))
        reports.append(sv_difference_equation_check(p.a[0], p.b, p.N, sv_deg))
    reports.append(pair_shift_check(p.a[0], p.a_tail(1), deg, ctx.box, p))
    reports.append(pair_recursion_check(p.a[0], p.a_tail(1), deg, ctx.box, p))
    return reports


def _generalized_recursions(ctx: SuiteContext) -> list[CheckReport]:
    n = ctx.params.n
    reports = []
    for i in (1, n - 1):
        m = (0,) + tuple(ctx.rng.randint(0, 2) for _ in range(n - 1))
        reports.append(generalized_recursion_check(ctx, i, m))
    return reports


def _rodrigues(ctx: SuiteContext) -> list[CheckReport]:
    if not ctx.params.hahn_checks:
        return []
    deg = min(ctx.m_max + 2, 6)
    return [rodrigues_check(deg, random_rational(ctx.rng), random_rational(ctx.rng), ctx.box)
            for _ in range(3)]


def _glue(ctx: SuiteContext) -> list[CheckReport]:
    p = ctx.params
    if p.n < 3:
        return [CheckReport("glue", p.label, SKIP, None, 0.0, "adjacent sectors need n >= 3")]
    return [glue_check(ctx, 2, mi, mim1) for mi, mim1 in ((1, 1), (2, 1), (1, 2))]


# name -> fn(ctx) returning that entry's reports, in suite order.  "limits"
# is not part of the suite: it needs a Krawtchouk or Meixner bundle.
CHECKS = {
    "normalization": lambda c: [normalization_check(c)],
    "compatibility": lambda c: [compatibility_check(c)],
    "boundary": lambda c: [boundary_safety_check(c)],
    "adjointness": lambda c: [adjointness_check(c)],
    "commutators": lambda c: [commutator_check(c)],
    "degree-invariance": lambda c: [degree_invariance_report(c, c.invariance_degree)],
    "eigen": lambda c: eigen_suite(c, c.m_max),
    "type-one": lambda c: type_one_suite(c, min(c.m_max, 3)),
    "shifts": _shifts,
    "generalized-recursions": _generalized_recursions,
    "rodrigues": _rodrigues,
    "glue": _glue,
    "gram": lambda c: [gram_check(c, c.gram_degree)],
    "pair-orthogonality": lambda c: [pair_orthogonality_report(c, 1)],
    "completeness": lambda c: [completeness_check(c)],
    "limits": lambda c: limit_suite(c.params, c.rng),
}
SUITE = tuple(name for name in CHECKS if name != "limits")


def run_checks(params, names, m_max: int | None = None, xmax: int | None = None,
               seed: int = 0) -> list[CheckReport]:
    """The reports of the named registry entries, in the order given, on one context."""
    ctx = SuiteContext(params, m_max, xmax, seed)
    return [report for name in names for report in CHECKS[name](ctx)]


def run_suite(params, m_max: int | None = None, xmax: int | None = None,
              seed: int = 0) -> list[CheckReport]:
    """Run the whole battery for one parameter bundle, in a fixed order.

    Returns every report; overall failure is any report with status FAIL.
    """
    return run_checks(params, SUITE, m_max, xmax, seed)
