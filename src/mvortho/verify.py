"""Identity verification harness.

Every check is exact: a pass requires the defect to be exactly zero (no
epsilon anywhere).  On the truncated Meixner box the orthogonality checks
(``gram``, ``pair-orthogonality``) decide on the full-lattice inner
products, exact finite sums against the factorial moments of the weight;
the only tail bound left is the missing weight mass that ``normalization``
compares with :func:`mvortho.measures.meixner_tail_mass_bound`.  This
module keeps the context, the registry and the checks; the kernels they run
live in their layers (the stencil kernels in :mod:`mvortho.operators`).

Every check of an instance takes one :class:`SuiteContext`, which builds
each object a check reads (weight, stencils, tables, defects, residuals)
on first use and keeps it in one memo, so a suite builds each of them
once.  The eigenpolynomials and pair products the checks read on the
lattice are all P_m tables of the context (a pair product is P_m with the
other degrees 0).  Checks only read what the context built, save the
tables above m_max that completeness builds from the context's factor
dict and lets go; the context fills its memo as checks ask, so one
context serves one thread.  Beyond a context only the family-free caches of
:mod:`mvortho.core` are kept, so a fresh context sees patched rates,
weights or factors.  An identity check passes iff its largest
|lhs - rhs| is exactly 0 (:func:`_exact`).

The shift and recursion identities (``sv-shifts``, ``sv-difference-eq``,
``pair-shifts``, ``pair-recursions``, ``generalized-recursions``,
``rodrigues``) read every polynomial value once, as integers over one
denominator: a single-variable one on a grid of x, a pair one as a table
on a shared simplex, whose neighbours are read through
:attr:`Lattice.steps` (see :mod:`mvortho.polynomials`), the chained
products as the integer form of their context table.  Each coefficient
column, a rate over u, v or u + v, is scaled to integers once.  An
identity is then an integer combination at every point, and its largest
residual gives one rational per (identity, degree).
"""

from __future__ import annotations

import math
import random
import time
from functools import cache, cached_property
from itertools import combinations, combinations_with_replacement

from ._backend import R, ZERO, ONE, integer_scaled
from .core import (LatticeFunction, Value, enumerate_degrees, family_lattice,
                   rising_factorial, shared_lattice)
from .linalg import newton_differences
from .measures import (
    gram_matrix,
    lattice_inner_product,
    meixner_moments,
    weight_table,
)
from .operators import (
    OperatorMatrix,
    OperatorSpec,
    adjointness_defect,
    commutator_defects,
    compared_rows,
    eigenvalue,
    image_degree,
    integer_rates,
    operator_matrix,
    residual_defects,
)
from .polynomials import (
    eigenpoly,
    eigenpoly_tables,
    hahn,
    hahn_grid,
    hahn_pair,
    hahn_pair_sums,
    pair_backward_table,
)
from .serialize import rational_str, sci_str

PASS, FAIL, SKIP = "pass", "fail", "skipped"


class CheckReport(Value):
    """Outcome of one verification: name, instance, status, exact defect."""

    _fields = ("name", "instance", "status", "max_defect", "wall_time", "detail")

    def __init__(self, name: str, instance: str, status: str, max_defect=None,
                 wall_time: float = 0.0, detail: str = ""):
        vars(self).update(name=name, instance=instance, status=status, max_defect=max_defect,
                          wall_time=wall_time, detail=detail)

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


def _exact(defects, detail: str = "") -> tuple:
    """(PASS iff every defect is exactly 0, the largest |defect|, detail);
    a zero defect is skipped, so that none is copied by ``abs``."""
    worst = max((abs(d) for d in defects if d), default=ZERO)
    return (PASS if worst == 0 else FAIL), worst, detail


def random_rational(rng: random.Random):
    """Positive rational with numerator and denominator <= 20."""
    return R(rng.randint(1, 20), rng.randint(1, 20))


# ---------------------------------------------------------------------------
# measure-level checks


def normalization_check(ctx: SuiteContext) -> CheckReport:
    """Bounded families: the weight sums to 1 exactly.  Meixner: partial
    sums increase with the box and the missing mass obeys the tail bound.

    The half box |x| <= xmax // 2 is a graded-lex prefix of the box, and
    the family's weight rows give the same values at every bound, so its
    sum is that of a prefix of the box table."""
    params = ctx.params

    def body():
        w = ctx.weights()
        if params.N is None:
            half = R(sum(w.nums[:math.comb(params.n + ctx.xmax // 2, params.n)]), w.den)
            if not half < w.total:
                return FAIL, w.total - half, "partial sums not increasing"
            if w.normalized:
                missing = 1 - w.total
                if not (0 < missing <= w.tail_bound):
                    return FAIL, missing, "missing mass outside tail bound"
                return PASS, ZERO, f"1 - sum = {sci_str(missing)} <= bound {sci_str(w.tail_bound)}"
            return PASS, ZERO, "unnormalized weight (non-integer beta); monotone partial sums"
        return _exact([w.total - 1])

    return _report("normalization", params.label, body)


def compatibility_check(ctx: SuiteContext) -> CheckReport:
    """Weight-ratio identity and the pairwise compatibility condition.

    W(x+e_j)/W(x) = B_j(x)/D_j(x+e_j) for all interior x and j, and the
    two-step ratio B_j/D_j * B_k/D_k is invariant under swapping j,k.
    Both are compared cross-multiplied, in integers: the weight's integer
    form over wden and the rates of :func:`integer_rates`, B_j over D^2
    and D_j over D.  A weight-ratio residual is then an integer over
    wden D^2 and a cycle residual, two rates of each kind per side, one
    over D^6: one rational per identity.
    """
    params = ctx.params

    def body():
        wn, wden = ctx.weights().integer_form()
        lattice = ctx.lattice
        birth, death, _, D = integer_rates(params)
        B = [birth(x) for x in lattice.points]
        Dn = [death(x) for x in lattice.points]
        ups = lattice.steps[0]
        pairs = list(combinations(range(params.n), 2))
        ratio, cycle = [], []
        for i in range(lattice.size):
            for j, up in enumerate(ups):
                yj = up[i]
                if yj is not None:
                    ratio.append(wn[yj] * D * Dn[yj][j] - wn[i] * B[i][j])
            # B_j(x) B_k(x+e_j) / (D_j(x+e_j) D_k(x+e_j+e_k)) is symmetric
            # in j,k; compare cross-multiplied
            for j, k in pairs:
                yj, yk = ups[j][i], ups[k][i]
                yjk = None if yj is None else ups[k][yj]
                if yjk is not None:
                    cycle.append(B[i][j] * B[yj][k] * Dn[yk][k] * Dn[yjk][j]
                                 - B[i][k] * B[yk][j] * Dn[yj][j] * Dn[yjk][k])
        return _exact([_worst(ratio, wden * D * D), _worst(cycle, D**6)])

    return _report("compatibility", params.label, body)


def boundary_safety_check(ctx: SuiteContext) -> CheckReport:
    """Every coefficient that would multiply an out-of-lattice shift is 0.

    The rates are the integers of :func:`integer_rates`; a nonzero one
    is reported as its rational value."""
    params = ctx.params

    def body():
        if params.N is None:
            return SKIP, None, "semi-infinite lattice; frontier entries are flagged instead"
        birth, death, exchange, D = integer_rates(params)
        n = params.n
        for x in ctx.lattice.points:
            if sum(x) == params.N:
                for b in birth(x):
                    if b:
                        return FAIL, R(b, D * D), f"up rate nonzero at {x}"
            deaths = death(x)
            for j in range(n):
                if x[j] == 0:
                    if deaths[j]:
                        return FAIL, R(deaths[j], D), f"down rate nonzero at {x}"
                    for k in range(n):
                        if k != j and (c := exchange(x, j, k)):
                            return FAIL, R(c, D * D), f"exchange nonzero at {x}"
        return PASS, ZERO, ""

    return _report("boundary-safety", params.label, body)


# ---------------------------------------------------------------------------
# operator-level checks


def adjointness_check(ctx: SuiteContext) -> CheckReport:
    """Each stencil of :attr:`SuiteContext.stencils` is W-self-adjoint."""
    def body():
        return _exact(ctx.adjointness(H.op.kind, H.op.index) for H in ctx.stencils)

    return _report("adjointness", ctx.params.label, body)


def commutator_check(ctx: SuiteContext) -> CheckReport:
    """Each pair of the context's stencils commutes on its compared rows; a pair
    with none shows nothing, so unless some pair FAILs the report SKIPs and names it."""
    def body():
        result = _exact(commutator_defects(ctx.stencils),
                        "interior-restricted rows" if ctx.lattice.truncated else "")
        blind = [f"{M1.op.label}/{M2.op.label}" for M1, M2 in combinations(ctx.stencils, 2)
                 if result[0] == PASS and not any(compared_rows(M1, M2))]
        if blind:
            return SKIP, None, f"no row valid for both products of {', '.join(blind)}"
        return result

    return _report("commutators", ctx.params.label, body)


def degree_invariance_report(ctx: SuiteContext, M: int) -> CheckReport:
    """Every stencil maps degree <= M to degree <= M, by :func:`image_degree`.
    The rows with an image form a simplex |x| <= K, which shows no degree
    above K: if some stencil has K <= M, the test can see nothing (SKIP)."""
    def body():
        K = min(max(s for s, ok in zip(ctx.lattice.sizes, H.valid_rows) if ok)
                for H in ctx.stencils)
        if K <= M:
            return SKIP, None, f"images only on |x| <= {K}, so no degree above M={M} shows"
        degree = image_degree(ctx.stencils, M)
        ok = degree <= M
        return (PASS if ok else FAIL), (ZERO if ok else None), f"largest image degree {degree}"

    return _report("degree-invariance", f"{ctx.params.label} M={M}", body)


# ---------------------------------------------------------------------------
# eigen checks


def eigen_suite(ctx: SuiteContext, m_max: int) -> list[CheckReport]:
    """Eigen residuals for every |m| <= m_max under each of
    :attr:`SuiteContext.stencils`, one :func:`residual_defects` call each."""
    params = ctx.params

    def body():
        degrees = enumerate_degrees(params.n, m_max)
        stencils = ctx.stencils
        defects = [worst for H in stencils
                   for worst in ctx.eigen_residuals(H.op.kind, H.op.index, degrees)]
        return _exact(defects, f"{len(degrees) * len(stencils)} (m, operator) pairs")

    return [_report("eigen-suite", f"{params.label} all |m|<={m_max}", body),
            eigen_degeneracy_check(ctx, m_max)]


def eigen_degeneracy_check(ctx: SuiteContext, m_max: int) -> CheckReport:
    """All P_m of equal total degree d share the total-operator eigenvalue.

    The eigenvalue lambda_d is formed once per degree
    (:meth:`SuiteContext.eigenvalue`), and every P_m, |m| = d, must have
    residual 0 against it on the total stencil: the context's residuals,
    which the eigen suite has formed.
    """
    params = ctx.params

    def body():
        return _exact(ctx.eigen_residuals("total", None, enumerate_degrees(params.n, m_max)))

    return _report("eigen-degeneracy", f"{params.label} |m|<={m_max}", body)


# ---------------------------------------------------------------------------
# type-one checks


def type_one_check(ctx: SuiteContext, J, m: int) -> CheckReport:
    """H_total on the subset polynomial: residual must vanish exactly."""
    params = ctx.params
    J = tuple(sorted(set(J)))
    if not J or any(not 1 <= j <= params.n for j in J):
        raise ValueError(f"J must be a nonempty subset of 1..{params.n}")

    def body():
        return _exact(ctx.type_one_residuals([(J, m)]))

    return _report("type-one", f"{params.label} J={set(J)} m={m}", body)


def type_one_suite(ctx: SuiteContext, m_max: int) -> list[CheckReport]:
    """Type-one residuals for every subset J and m <= m_max, formed in one
    kernel call before the reports read them; the first report's time
    includes that call."""
    sites = range(1, ctx.params.n + 1)
    pairs = [(J, m) for size in sites for J in combinations(sites, size)
             for m in range(m_max + 1)]
    t0 = time.perf_counter()
    ctx.type_one_residuals(pairs)
    fill = time.perf_counter() - t0
    reports = [type_one_check(ctx, J, m) for J, m in pairs]
    first = reports[0]
    reports[0] = CheckReport(first.name, first.instance, first.status, first.max_defect,
                             first.wall_time + fill, first.detail)
    reports.append(same_degree_overlap_check(ctx, max(1, min(m_max, 2))))
    return reports


def same_degree_overlap_check(ctx: SuiteContext, m: int) -> CheckReport:
    """Same-degree subset polynomials are NOT orthogonal in general.

    Records at least one pair J != J' of equal degree with a nonzero
    inner product; failing to find one on a generic instance is a FAIL.
    """
    params = ctx.params

    def body():
        sites = range(1, params.n + 1)
        subsets = [J for size in sites for J in combinations(sites, size)]
        G = gram_matrix([ctx.type_one(J, m) for J in subsets], ctx.weights())
        for i, j in combinations(range(len(subsets)), 2):
            if G[i][j] != 0:
                return PASS, None, f"({set(subsets[i])}, {set(subsets[j])}) overlap at degree {m}"
        return FAIL, None, "all same-degree pairs orthogonal (unexpected)"

    return _report("type-one-overlap", f"{params.label} m={m}", body)


# ---------------------------------------------------------------------------
# shift and recursion identities


def _worst(residuals, den):
    """The largest |defect| of one identity whose residuals share the denominator
    den, 0 when there are none."""
    return R(max(map(abs, residuals), default=0), den)


def sv_shift_check(a, b, N: int, deg_max: int) -> CheckReport:
    """Single-variable forward and backward shift relations.

    Forward:  H_m(x) - H_m(x+1) = m(m+a+b-1)/(aN) H_{m-1}(x; a+1, b+1, N-1)
    Backward: (N-x)(x+a) H_m(x; a+1,b+1,N-1) - x(N-x+b) H_m(x-1; a+1,b+1,N-1)
              = aN H_{m+1}(x; a, b, N)
    """
    a, b = R(a), R(b)

    def defects():
        # every H read, as a grid: degrees 1..deg_max+1 at (a, b, N) on x = 0..N+1
        # (the top one on x <= N), degrees 0..deg_max one step up on x = 0..N, -1
        up, down = {}, []
        for m in range(deg_max + 1):
            down.append(hahn_grid(m, a + 1, b + 1, N - 1, [*range(N + 1), -1]))
            up[m + 1] = hahn_grid(m + 1, a, b, N, range(N + 2 if m < deg_max else N + 1))
        xs = range(N + 1)
        left, lden = integer_scaled([(N - x) * (x + a) for x in xs])
        right, rden = integer_scaled([R(x) * (N - x + b) for x in xs])
        aN = a * N
        for m in range(deg_max + 1):
            B, bden = down[m]
            if m >= 1:
                A, aden = up[m]
                c = R(m) * (m + a + b - 1) / aN
                C, cden = down[m - 1]
                s, t = c.denominator * cden, c.numerator * aden
                yield _worst([(A[x] - A[x + 1]) * s - t * C[x] for x in xs],
                             aden * cden * c.denominator)
            A, aden = up[m + 1]
            s, t = rden * aN.denominator * aden, lden * aN.denominator * aden
            w = aN.numerator * lden * rden * bden
            yield _worst([left[x] * s * B[x] - right[x] * t * B[x - 1] - w * A[x] for x in xs],
                         lden * rden * aN.denominator * aden * bden)

    inst = f"hahn-1v a={rational_str(a)} b={rational_str(b)} N={N} m<={deg_max}"
    return _report("sv-shifts", inst, lambda: _exact(defects()))


def sv_difference_equation_check(a, b, N: int, deg_max: int) -> CheckReport:
    """(N-x)(x+a)(H_m(x)-H_m(x+1)) + x(N-x+b)(H_m(x)-H_m(x-1)) = m(m+a+b-1)H_m."""
    a, b = R(a), R(b)

    def defects():
        xs = range(N + 1)
        left, lden = integer_scaled([(N - x) * (x + a) for x in xs])
        right, rden = integer_scaled([R(x) * (N - x + b) for x in xs])
        for m in range(deg_max + 1):
            H, hden = hahn_grid(m, a, b, N, [*range(N + 2), -1])
            eig = R(m) * (m + a + b - 1)
            s, t = rden * eig.denominator, lden * eig.denominator
            w = eig.numerator * lden * rden
            yield _worst([left[x] * s * (H[x] - H[x + 1]) + right[x] * t * (H[x] - H[x - 1])
                          - w * H[x] for x in xs], lden * rden * eig.denominator * hden)

    return _report("sv-difference-eq", f"hahn-1v N={N} m<={deg_max}", lambda: _exact(defects()))


def pair_shift_check(alpha, gamma, deg_max: int, box: int, family) -> CheckReport:
    """Forward/backward shift relations for the pair polynomials of
    ``family`` (a family class or bundle; see its ``pair_shift``)."""
    alpha, gamma = R(alpha), R(gamma)

    def defects():
        # the box is the graded-lex prefix of outer: a point has one index in both
        outer = shared_lattice(2, box + 1, False)
        table = cache(lambda m, al, ga: family.pair_sums(m, al, ga, outer.points))
        (up_u, up_v), (down_u, down_v) = outer.steps
        points = shared_lattice(2, box, False).points
        ru, ruden = integer_scaled([family.pair_rate(u, alpha) for u in range(box + 1)])
        rv, rvden = integer_scaled([family.pair_rate(v, gamma) for v in range(box + 1)])
        for m in range(deg_max + 1):
            c, d, alpha1, gamma1 = family.pair_shift(m, alpha, gamma)
            A, aden = table(m, alpha, gamma)
            if m >= 1:
                B, bden = table(m - 1, alpha1, gamma1)
                s, t = c.denominator * bden, c.numerator * aden
                yield _worst([(A[up_v[p]] - A[up_u[p]]) * s - t * B[p] for p in range(len(points))],
                             aden * bden * c.denominator)
            B, bden = table(m, alpha1, gamma1)
            C, cden = table(m + 1, alpha, gamma)
            su = [r * rvden * d.denominator * cden for r in ru]
            sv = [r * ruden * d.denominator * cden for r in rv]
            t = d.numerator * ruden * rvden * bden
            # a read at u - 1 or v - 1 has the coefficient u or v, 0 off the lattice
            yield _worst([(v and v * su[u] * B[down_v[p]]) - (u and u * sv[v] * B[down_u[p]])
                          - t * C[p] for p, (u, v) in enumerate(points)],
                         ruden * rvden * d.denominator * bden * cden)

    inst = (
        f"{family.pair_name}-pair alpha={rational_str(alpha)} gamma={rational_str(gamma)} "
        f"m<={deg_max} box={box}"
    )
    return _report("pair-shifts", inst, lambda: _exact(defects()))


def _recursion_defects(nums, den, lattice, outer, start: int, a, deg: int, rate) -> list:
    """The largest defects of the forward and backward recursions of
    :func:`generalized_recursion_check` over the sites start..n-1 (0-based),
    with their parameters ``a`` and degree ``deg``, at every point of
    ``lattice``, for the table of ``nums`` over ``den`` on ``outer``: one
    shell further out, with ``lattice`` as its graded-lex prefix, so a point
    has one index in both.  The rate columns share one denominator."""
    up, down = outer.steps
    sites = range(start, lattice.n)
    ticks, a_sum = range(lattice.bound + 1), sum(a, ZERO)
    columns = [integer_scaled([rate(t, ak) for t in ticks]) for ak in a]
    columns.append(integer_scaled([rate(t + deg, a_sum) for t in ticks]))
    scale = math.lcm(*(d for _, d in columns))
    *rates, right = [[r * (scale // d) for r in col] for col, d in columns]
    fwd, bwd = [], []
    for p, x in enumerate(lattice.points):
        base = nums[p]
        tail = sum(x[start:])
        f = -right[tail] * base
        b = -(tail - deg) * base
        for k, rate_k in zip(sites, rates):
            xk = x[k]
            f += rate_k[xk] * nums[up[k][p]]
            if xk:
                b += xk * nums[down[k][p]]
        fwd.append(f)
        bwd.append(b)
    return [_worst(fwd, scale * den), _worst(bwd, den)]


def pair_recursion_check(alpha, gamma, deg_max: int, box: int, family) -> CheckReport:
    """Forward/backward three-term recursions for the pair polynomials:
    rate(u, alpha) P(u+1, v) + rate(v, gamma) P(u, v+1) = rate(u+v+m, alpha+gamma) P
    and u P(u-1, v) + v P(u, v-1) = (u+v-m) P: the recursions of the chained
    pair product (:func:`generalized_recursion_check`) on the two sites (u, v)."""
    alpha, gamma = R(alpha), R(gamma)

    def defects():
        lattice, outer = shared_lattice(2, box, False), shared_lattice(2, box + 1, False)
        for m in range(deg_max + 1):
            A, aden = family.pair_sums(m, alpha, gamma, outer.points)
            yield from _recursion_defects(A, aden, lattice, outer, 0, (alpha, gamma), m,
                                          family.pair_rate)

    inst = f"{family.pair_name}-pair m<={deg_max} box={box}"
    return _report("pair-recursions", inst, lambda: _exact(defects()))


def generalized_recursion_check(ctx: SuiteContext, i: int, m) -> CheckReport:
    """Forward/backward recursions for the chained pair product.

    R(x), the product of the degree-shifted pair factors i..n-1, is P_m
    with m_0 .. m_{i-1} set to 0.  With sums over k = i..n (1-based
    sites), D = sum_{k>=i} m_k and the family's pair rate (x_k + a_k for
    Hahn, a_k for Krawtchouk/Meixner):

        sum rate(x_k, a_k) R(x+e_k) = rate(sum x_k + D, sum a_k) R(x)
        sum x_k R(x-e_k)            = (sum x_k - D) R(x)

    x + e_k leaves the lattice, so R is tabulated one shell further out.
    """

    params = ctx.params
    if not 1 <= i <= params.n - 1:
        raise ValueError(f"sector index i = {i} outside [1, {params.n - 1}]")

    def body():
        (chain,) = ctx.tables([(0,) * i + tuple(m[i:])], ctx.lattice.bound + 1)
        return _exact(_recursion_defects(*chain.integer_form(), ctx.lattice, chain.lattice,
                                         i - 1, params.a[i - 1:], sum(m[i:]), params.pair_rate))

    return _report("generalized-recursions", f"{params.label} i={i} m={tuple(m)}", body)


def rodrigues_check(m_max: int, alpha, gamma, box: int) -> CheckReport:
    """Backward-shift chain reproduces the closed-form pair polynomial."""
    alpha, gamma = R(alpha), R(gamma)

    def defects():
        for m in range(m_max + 1):
            built = pair_backward_table(m, alpha, gamma, box)
            nums, den = built.integer_form()
            G, gden = hahn_pair_sums(m, alpha, gamma, built.lattice.points)
            yield _worst([p * gden - g * den for p, g in zip(nums, G)], den * gden)

    inst = f"alpha={rational_str(alpha)} gamma={rational_str(gamma)} m<={m_max} box={box}"
    return _report("rodrigues", inst, lambda: _exact(defects()))


def glue_check(ctx: SuiteContext, i: int, m_i: int, m_im1: int) -> CheckReport:
    """Adjacent pair factors glue into an eigenfunction of exchange(i-1).

    The lower factor is evaluated at (x_{i-1}, x_{>i-1} - m_i) and, for
    Hahn, with its tail parameter shifted to a_{>i-1} + 2 m_i: the glued
    product is P_m with only m_{i-1} and m_i nonzero, and the glued
    eigenvalue adds the degrees.
    """
    params = ctx.params
    if not 2 <= i <= params.n - 1:
        raise ValueError(f"glue index i = {i} outside [2, {params.n - 1}]")

    def body():
        m = [0] * params.n
        m[i - 1], m[i] = m_im1, m_i
        return _exact(ctx.eigen_residuals("exchange", i - 1, [tuple(m)]))

    return _report("glue", f"{params.label} i={i} degrees=({m_i},{m_im1})", body)


# ---------------------------------------------------------------------------
# Gram / orthogonality


def _orthogonality_defect(entries: dict, labels) -> str:
    """The first entry (i, j) of ``entries`` that breaks orthogonality, or "".

    An off-diagonal entry must be exactly 0 and a diagonal one positive:
    its numerator tells, the denominator being positive.
    """
    for (i, j), value in entries.items():
        if i != j and value.numerator:
            return f"off-diagonal {labels[i]},{labels[j]} nonzero"
        if i == j and value.numerator <= 0:
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
    degrees = enumerate_degrees(params.n, m_max)

    def body():
        worst, exact = ctx.orthogonality(
            m_max, combinations_with_replacement(range(len(degrees)), 2))
        note = (f"exact zeros on N^{params.n} by factorial moments; "
                f"box max |offdiag| {sci_str(worst)}") if ctx.lattice.truncated else ""
        defect = _orthogonality_defect(exact, degrees)
        return (FAIL, worst, defect) if defect else (PASS, worst, note)

    return _report("gram", f"{params.label} |m|<={m_max}", body)


def completeness_check(ctx: SuiteContext) -> CheckReport:
    """The P_m, |m| <= N, form a basis of the functions on the lattice, by the
    paper's spectral argument.

    It holds when #{m : |m| <= N} = L, the lattice size, and each P_m is a
    nonzero common eigenvector of the context's stencils, total and exchange(1)
    .. exchange(n-1) (residual 0 on all L rows), these are self-adjoint under
    the weight W and W > 0: eigenvectors of a W-self-adjoint operator with
    different eigenvalues are W-orthogonal, so when the joint eigenvalue
    tuples are pairwise distinct the L nonzero P_m are orthogonal, hence
    independent.  The tuples are distinct for every Hahn and Krawtchouk
    bundle.  By the rate form (u0, u1, v1, d0, d1, e1, e) the eigenvalue of
    total is d (c - d1 (d - 1)) at d = |m|, c = d0 - u0 v1 - u1 |a|, and that
    of exchange(i) is S (e1 (S - 1) + e c_i) at S = S_i = m_i + ... + m_{n-1},
    c_i = a_i + ... + a_n (:func:`mvortho.operators.eigenvalue`).  Those
    bundles have c > 0, d1 <= 0, e = 1 and e1 >= 0, so the steps from d to
    d + 1, c - 2 d1 d, and from S to S + 1, c_i + 2 e1 S, are positive: both
    maps are strictly increasing.  So the tuple fixes |m| and every S_i,
    hence m; equal tuples FAIL.

    Up to m_max the tables and their residuals are the context's, which
    the eigen check formed.  Above m_max the tables of each shell come
    from one :func:`eigenpoly_tables` call on the context's factor dict,
    are checked and let go, and never enter the memo.  Each is nested:
    with p the first index of m with m_p != 0 and hat = m with m_p set to
    0, P_m is slot p of m times the held table of P_hat, which has m_0 = 0
    and |hat| < |m| (see there).  The held table of each hat is the one
    this check read, as the context's tables and the held forms come from
    the same calls.

    exchange(i) moves only the sites i..n, so along each of its moves |x|
    and x_1 .. x_{i-1} are constant, and with them any function of |x| and
    of (x_j, x_{>j}) = (x_j, |x| - x_1 - ... - x_j) for j < i; the premise
    is checked: every off-diagonal entry of each exchange(i) stencil must
    join two points of equal |x| and x_1 .. x_{i-1}.  For every i > p slot
    p is constant along the moves of exchange(i), and the eigenvalue reads
    S_i alone, equal for m and hat, so on every row (exchange(i) - lambda)
    P_m is slot p times (exchange(i) - lambda) P_hat.  By induction on the
    nonzero entries of m_0 .. m_{i-1}, P_m is then an eigenvector of
    exchange(i) when P_m' is, m' = m with m_0 .. m_{i-1} set to 0; so above
    m_max the exchange(i) residuals are formed only for the m with
    m_0 = ... = m_{i-1} = 0, and total's for every P_m.

    The residuals are formed one total degree (shell) per kernel call
    (one pack across degrees would need the slot width of the largest
    table), and the adjointness defects are reused, so at most one shell
    of tables above m_max is held at a time.
    """
    params = ctx.params

    def body():
        if params.N is None:
            return SKIP, None, "unbounded degree set on the semi-infinite lattice"
        size, n = ctx.lattice.size, params.n
        degrees = enumerate_degrees(n, params.N)
        if len(degrees) != size:
            return FAIL, None, "degree count differs from lattice size"
        if min(ctx.weights().integer_form()[0]) <= 0:
            return FAIL, None, "weight not positive at every point"
        stencils = ctx.stencils
        labels = ", ".join(H.op.label for H in stencils)
        adjoint = max(ctx.adjointness(H.op.kind, H.op.index) for H in stencils)
        if adjoint:
            return FAIL, adjoint, f"{labels} not W-self-adjoint"
        for H in stencils:
            if not all(H.valid_rows):
                return FAIL, None, f"image of {H.op.label} not defined on every row"
        for H in stencils[1:]:
            kept = [(s, x[:H.op.index - 1]) for x, s in zip(ctx.lattice.points, ctx.lattice.sizes)]
            if any(kept[j] != kept[i] for i, row in enumerate(H.rows) for j in row):
                return FAIL, None, f"{H.op.label} changes |x| or some x_k, k < {H.op.index}"
        for d in range(params.N + 1):
            shell = [m for m in degrees if sum(m) == d]
            nest = d > ctx.m_max
            tables = dict(zip(shell, eigenpoly_tables(shell, params, ctx.lattice, ctx.factors)
                              if nest else ctx.tables(shell)))
            for m, table in tables.items():
                if not any(table.nums):
                    return FAIL, None, f"P_{m} vanishes"
            for H in stencils:
                op, read = H.op, [m for m in shell if not (nest and any(m[:H.op.index or 0]))]
                worsts = (residual_defects(H, [tables[m] for m in read],
                                           [ctx.eigenvalue(op.kind, op.index, m) for m in read])
                          if nest else ctx.eigen_residuals(op.kind, op.index, read))
                for m, worst in zip(read, worsts):
                    if worst:
                        return FAIL, worst, f"P_{m} not an eigenvector of {op.label} on every row"
        # each tuple as int pairs, which hash faster than rationals
        if len({tuple(ctx.eigenvalue(H.op.kind, H.op.index, m).as_integer_ratio()
                      for H in stencils) for m in degrees}) < size:
            return FAIL, None, "joint eigenvalues not distinct"
        return PASS, ZERO, (f"count {size}, nonzero common eigenvectors of the W-self-adjoint "
                            f"{labels}, W > 0, joint eigenvalues distinct")

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
    degrees = enumerate_degrees(params.n, m)
    # the pair polynomial of sector i is P_{m e_i}
    sectors = [degrees.index(tuple(m if k == i else 0 for k in range(params.n)))
               for i in range(1, params.n)]

    def body():
        worst, exact = ctx.orthogonality(m, combinations(sectors, 2))
        detail = ("full-lattice inner product by factorial moments" if ctx.lattice.truncated
                  else "full-weight inner product")
        return (FAIL if _orthogonality_defect(exact, degrees) else PASS), worst, detail

    return _report("pair-orthogonality", f"{params.label} m={m}", body)


# ---------------------------------------------------------------------------
# limit transitions


def limit_check(m, x, params) -> CheckReport:
    """The Hahn -> Krawtchouk or Meixner limit of P_m(x), exactly.

    Along ``params.hahn_limit(t)`` = (t a', t, N_t), N_t = N or -beta, the
    Hahn pair factor i has coefficients (gamma_t + k)_{m_i - k}
    (alpha_t + m_i - k)_k of degree m_i in t, and the radial factor's term
    k, (-m_0)_k (m_0 + c_t + t - 1)_k (-X)_k / ((c_t)_k (s_1 - N_t)_k k!) with
    c_t = |a_t| + 2 s_1, times (c_t)_{m_0} is (c_t + k)_{m_0 - k} times a
    polynomial of degree k.  So A(t) = P_m(x) (c_t)_{m_0} has degree <= |m|,
    as has B(t) = prod_{i>=1} (-1)^{m_i} (alpha_{t,i})_{m_i} (c_t)_{m_0}, the
    pair rescaling times the same (c_t)_{m_0}, with leading coefficient
    prod (-a'_i)^{m_i} |a'|^{m_0} != 0.  The limit of A/B is the ratio of
    the t^{|m|} coefficients, and that of A is its |m|-th difference over
    |m|! at the |m| + 2 integers T .. T + |m| + 1, T above every root
    -(2 s_1 + j) / |a'| of (c_t)_{m_0}, the only denominators of A; the
    last sample checks the degree (Delta^{|m|+1} A = 0).  The check passes
    when the limit is P_m(x).
    """

    def body():
        d, s1 = sum(m), sum(m[1:])
        slopes = params.hahn_limit(ONE)[0]
        roots = [-(2 * s1 + j) / sum(slopes) for j in range(m[0])]
        T = math.floor(max(roots, default=ZERO)) + 1
        A = []
        for t in range(T, T + d + 2):
            a_t, b_t, N_t = params.hahn_limit(R(t))
            c_t = sum(a_t, ZERO) + 2 * s1
            value = rising_factorial(c_t, m[0]) * hahn(m[0], sum(x) - s1, c_t, b_t, N_t - s1)
            for i in range(1, len(a_t)):
                shift = sum(m[i + 1:])
                value *= hahn_pair(m[i], x[i - 1], sum(x[i:]) - shift, a_t[i - 1],
                                   sum(a_t[i:], ZERO) + 2 * shift)
            A.append(value)
        nums, den = integer_scaled(A)
        delta = newton_differences(nums, 1, d + 1)
        if delta[d + 1]:
            return FAIL, abs(R(delta[d + 1], den)), f"A(t) has degree above |m| = {d}"
        lead = math.factorial(d) * sum(slopes) ** m[0]
        lead *= math.prod((-c) ** k for c, k in zip(slopes, m[1:]))
        return _exact([R(delta[d], den) / lead - eigenpoly(m, x, params)])

    inst = f"{params.family}-limit n={params.n} {params.bound_label} m={tuple(m)} x={tuple(x)}"
    return _report("limit", inst, body)


def limit_suite(params, rng: random.Random, bound: int) -> list[CheckReport]:
    """Three random (m, x) draws for the limit transition of a Krawtchouk
    or Meixner bundle: m in {0,1,2}^n redrawn until |m| <= N, x on the
    simplex |x| <= bound, the instance lattice (N, or the Meixner box)."""
    n = params.n
    reports = []
    for _ in range(3):
        m = _random_point(rng, n, 2, params.N)
        x = _random_point(rng, n, bound, bound)
        reports.append(limit_check(m, x, params))
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
    (which needs xmax >= 1), m_max 3 (a given m_max must be at most N on a
    bounded lattice; the default is min(N, 3)), the degrees of the
    invariance and Gram checks, the box of the pair identities, and one
    seeded stream for every random draw.  The Meixner Gram degree stays
    at min(m_max, 1): the exact entries would allow m_max, but the
    benchmark's recorded digests pin the report instances of degree 1.

    Each object a check reads is built on first use and kept for the life
    of the context in one memo, whose keys lead with the kind of object
    (the lattices and stencils it reads are the process's, see
    :mod:`mvortho.core`); tables above m_max never enter the memo (the
    completeness check builds them from the factor dict, see
    :func:`completeness_check`):

        ("weights",)                           the weight table
        ("stencil", kind, index)               an operator's stencil
        ("adjointness", kind, index)           its self-adjointness defect
        ("eigenvalue", kind, index, d)         its eigenvalue at partial degree d
        ("P_m", bound, m)                      P_m on the simplex |x| <= bound
        ("factors",)                           the slot integers of every P_m, and
                                               [lattice]: the forms of its P_m, m_0 = 0
        ("subset-sums", J)                     a_J and the column of x_J, for the
                                               type-one tables of the subset J
        ("type-one", J, m)                     a type-one table
        ("moments", K)                         Meixner factorial moments, order <= K
        ("residual", table, kind, index, key)  a "P_m" or "type-one" eigen residual

    The missing tables or residuals of one request are built in one
    :func:`eigenpoly_tables` or :func:`residual_defects` call.  Every table
    is filled from the one ("factors",) dict, which holds the integers of
    each pair and radial slot per argument, so each (slot, argument) is
    evaluated once per context, and the held tables the nested tables read
    (see :func:`eigenpoly_tables`).  The eigen, degeneracy, glue and
    completeness checks share their residuals, and the adjointness and
    completeness checks their defects.  No Gram matrix is kept: each
    orthogonality check forms its own from the kept tables and weight.
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
        params.check_m_max(m_max)
        self.m_max = m_max
        self.invariance_degree = min(2, m_max if unbounded else params.N)
        self.gram_degree = min(m_max, 1) if unbounded else m_max
        self.box = min(xmax if unbounded else params.N, 6)
        self.rng = random.Random(seed)
        self._memo: dict = {}

    def _keep(self, key, build):
        """The object kept under ``key``, ``build()`` on first use."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def _keep_all(self, keys, build) -> list:
        """The objects kept under ``keys``, the missing ones from one
        ``build(missing)`` call."""
        missing = [key for key in dict.fromkeys(keys) if key not in self._memo]
        if missing:
            self._memo.update(zip(missing, build(missing)))
        return [self._memo[key] for key in keys]

    @cached_property
    def lattice(self):
        return family_lattice(self.params, xmax=self.xmax)

    def weights(self):
        """The weight table on the instance lattice."""
        return self._keep(("weights",), lambda: weight_table(self.params, xmax=self.xmax))

    def orthogonality(self, m_max: int, pairs) -> tuple:
        """(largest |off-diagonal| box entry, exact entries) of the Gram
        matrix of P_m, |m| <= m_max, at the index ``pairs``.

        The box entries are those of :func:`gram_matrix` of the instance
        tables, formed on each call.  The exact entries are the same on the
        bounded families; on the Meixner box they are the inner products
        over all of N^n, exact finite sums against the factorial moments of
        order <= K = 2 m_max of tables on the simplex |x| <= K (the moments
        are built once per K).
        """
        degrees = enumerate_degrees(self.params.n, m_max)
        G = gram_matrix(self.tables(degrees), self.weights())
        box = {(i, j): G[i][j] for i, j in pairs}
        worst = max((abs(v) for (i, j), v in box.items() if i != j and v), default=ZERO)
        if not self.lattice.truncated:
            return worst, box
        K = 2 * m_max
        moments = self._keep(("moments", K), lambda: meixner_moments(self.params, K))
        tables = self.tables(degrees, K)
        return worst, {(i, j): lattice_inner_product(tables[i], tables[j], moments)
                       for i, j in box}

    def eigenvalue(self, kind: str, index: int | None, m):
        """The operator's eigenvalue on P_m, once per operator and the partial
        degree it reads: |m| for total, S_i = m_i + ... + m_{n-1} for
        exchange(i).  single, no stencil of the checks, is refused."""
        if kind == "single":
            raise ValueError("the context keeps the eigenvalues of total and exchange(i), "
                             "the kinds its stencils serve, not single")
        return self._keep(("eigenvalue", kind, index, sum(m[index or 0:])),
                          lambda: eigenvalue(self.params, kind, index, m))

    def adjointness(self, kind: str, index: int | None = None):
        """The stencil's self-adjointness defect under the weight."""
        return self._keep(("adjointness", kind, index),
                          lambda: adjointness_defect(self.stencil(kind, index), self.weights()))

    def _residuals_of(self, name: str, H: OperatorMatrix, keys, tables, eigenvalue) -> list:
        """The residual of the ``name`` table of each key under the stencil:
        the missing keys in one :func:`residual_defects` call, over
        ``tables(missing)`` and the eigenvalue of each."""
        tag = ("residual", name, H.op.kind, H.op.index)
        return self._keep_all([(*tag, k) for k in keys], lambda missing: residual_defects(
            H, tables([key[-1] for key in missing]), [eigenvalue(key[-1]) for key in missing]))

    def eigen_residuals(self, kind: str, index: int | None, degrees) -> list:
        """The :func:`residual_defects` of P_m, m in ``degrees`` (tuples),
        under the stencil and its eigenvalue on P_m."""
        return self._residuals_of("P_m", self.stencil(kind, index), degrees, self.tables,
                                  lambda m: self.eigenvalue(kind, index, m))

    def type_one_residuals(self, pairs) -> list:
        """The :func:`residual_defects` of the type-one table of each (J, m) of
        ``pairs`` under the total stencil, with the eigenvalue of
        P_(m, 0, ..., 0)."""
        zeros = (0,) * (self.params.n - 1)
        return self._residuals_of(
            "type-one", self.stencil("total"), pairs,
            lambda missing: [self.type_one(J, m) for J, m in missing],
            lambda key: self.eigenvalue("total", None, (key[1],) + zeros))

    def stencil(self, kind: str, index: int | None = None) -> OperatorMatrix:
        return self._keep(("stencil", kind, index), lambda: operator_matrix(
            OperatorSpec(self.params, kind, index), self.lattice))

    @property
    def stencils(self) -> list[OperatorMatrix]:
        """The commuting family the checks read: total, exchange(1) .. exchange(n-1).
        single = total - exchange(1) entry by entry as rationals, with the same valid rows
        (exchange rows are all valid), so its eigen residual at lambda_total - lambda_exchange(1),
        its W-adjointness and its image degree follow from theirs; [single, X] = [total, X] -
        [exchange(1), X] for each exchange X, and [single, total] = -[exchange(1), total], on
        the Meixner box over a subset of the rows exchange(1)/total compares."""
        return [self.stencil("total")] + [
            self.stencil("exchange", i) for i in range(1, self.params.n)]

    def tables(self, degrees, bound: int | None = None) -> list[LatticeFunction]:
        """Tables of P_m for m in ``degrees`` on the instance lattice, or on the
        simplex |x| <= bound with the same truncation flag.  The missing ones
        are built in one call, from the context's factor dict."""
        lattice = self.lattice if bound is None else shared_lattice(
            self.params.n, bound, self.lattice.truncated)
        return self._keep_all(
            [("P_m", lattice.bound, self.params.degree_index(m)) for m in degrees],
            lambda missing: eigenpoly_tables([m for *_, m in missing], self.params, lattice,
                                             self.factors))

    @property
    def factors(self) -> dict:
        """The dict every table of the context is built from (see ``("factors",)``)."""
        return self._keep(("factors",), dict)

    def type_one(self, J: tuple, m: int) -> LatticeFunction:
        """Table of the degree-m type-one polynomial in x_J on the instance
        lattice, for a sorted subset J of 1..n: one integer grid over the
        sums of x_J (``params.type_one``, which reads J only through a_J),
        spread over the context's column of x_J, and reduced by the gcd of
        its integers."""
        def build() -> LatticeFunction:
            a_J, column = self._keep(("subset-sums", J), lambda: (
                sum((self.params.a[j - 1] for j in J), ZERO),
                [sum(x[j - 1] for j in J) for x in self.lattice.points]))
            by_sum, den = self.params.type_one(m, a_J, list(range(self.lattice.bound + 1)))
            return LatticeFunction(self.lattice, list(map(by_sum.__getitem__, column)), den)

        return self._keep(("type-one", J, m), build)


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
        m = (0,) + _random_point(ctx.rng, n - 1, 2, ctx.params.N)
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
    "limits": lambda c: limit_suite(c.params, c.rng, c.lattice.bound),
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
