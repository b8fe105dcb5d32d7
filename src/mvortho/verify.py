"""Identity verification harness.

Every check is exact: a pass requires the defect to be exactly zero (no
epsilon anywhere).  On the truncated Meixner box the orthogonality
checks (``gram``, ``pair-orthogonality``) decide on the full-lattice
inner products, exact finite sums against the factorial moments of the
weight; the only tail bound left is the missing weight mass that
``normalization`` compares with :func:`mvortho.measures.meixner_tail_mass_bound`.

Every check of an instance takes one :class:`SuiteContext`.  The
context builds the lattice, the weight tables, the operator stencils,
the eigenpolynomial tables, the type-one tables, the Gram entries, the
adjointness defects and the eigen residuals on first use and hands the
same objects to every later check, so a suite builds each of them once.
The eigenpolynomials and pair products the checks read on the lattice
are all P_m tables of the context (a pair product is P_m with the other
degrees 0), on the instance lattice or on another simplex, and all
tables share one dict of factor-slot integers.
A type-one polynomial depends on x only through the subset sum x_J and
on J only through a_J, so its table is filled from one integer grid per
(m, a_J) over x_J.  Checks only read what the context
built; the context fills its caches as checks ask, so one context
serves one thread.  Nothing is cached beyond a context: a fresh context
sees patched rates, weights or factors.  An identity check passes iff
its largest |lhs - rhs| is exactly 0 (:func:`_exact`).

The shift and recursion identities (``sv-shifts``, ``sv-difference-eq``,
``pair-shifts``, ``pair-recursions``, ``generalized-recursions``,
``rodrigues``) read every polynomial value once, as an integer grid over
one denominator (see :mod:`mvortho.polynomials`), the chained products
as the integer form of their context table.  Each coefficient column,
a rate over u, v or u + v, is scaled to integers once.  An identity is
then an integer combination at every point, and its largest residual
gives one rational per (identity, degree).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from operator import lshift, mul

from ._backend import R, ZERO, ONE, integer_scaled
from .core import (Lattice, LatticeFunction, enumerate_degrees, family_lattice,
                   rising_factorial, tail_sum)
from .linalg import slot_width, unpack
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
    image_degree,
    integer_rates,
    operator_matrix,
)
from .polynomials import (
    eigenpoly,
    eigenpoly_tables,
    eigenvalue,
    hahn,
    hahn_grid,
    hahn_pair,
    hahn_pair_grid,
    pair_backward_table,
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


def _exact(defects, detail: str = "") -> tuple:
    """(PASS iff every defect is exactly 0, the largest |defect|, detail)."""
    worst = max(map(abs, defects), default=ZERO)
    return (PASS if worst == 0 else FAIL), worst, detail


def random_rational(rng: random.Random):
    """Positive rational with numerator and denominator <= 20."""
    return R(rng.randint(1, 20), rng.randint(1, 20))


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
    def body():
        return _exact(ctx.adjointness(H.op.kind, H.op.index) for H in ctx.stencils)

    return _report("adjointness", ctx.params.label, body)


def commutator_check(ctx: SuiteContext) -> CheckReport:
    def body():
        detail = "interior-restricted rows" if ctx.lattice.truncated else ""
        return _exact(commutator_defects(ctx.stencils), detail)

    return _report("commutators", ctx.params.label, body)


def degree_invariance_report(ctx: SuiteContext, M: int) -> CheckReport:
    def body():
        degree = image_degree(ctx.stencils, M)
        ok = degree <= M
        return (PASS if ok else FAIL), (ZERO if ok else None), f"largest image degree {degree}"

    return _report("degree-invariance", f"{ctx.params.label} M={M}", body)


# ---------------------------------------------------------------------------
# eigen checks


def residual_defects(H: OperatorMatrix, tables, eigenvalues) -> list:
    """max |(H f)(x) - eig f(x)| over the valid rows of H, for each table f
    and its eigenvalue eig: one rational per table.

    With f = num/den and eig = p/q, row i compares q sum_j H[i][j] num_j
    with p H.den num_i, and the largest difference of a table is its one
    rational, over q H.den den.  The tables are packed into slots,
    W = ``slot_width(bound)`` bits each (:mod:`mvortho.linalg`): column j
    holds q num_j and the diagonal side p H.den num_i of every table, so
    row i is one big-int multiply-add per stored entry, and it passes for
    every table at once when sum_j H[i][j] QA[j] - PB[i] = 0.  Only a row
    that does not is unpacked, for the exact residual of each table.  The
    bound is max over the tables of (S q + |p| H.den) max |num|, S the
    largest absolute row sum.
    """
    if any(table.lattice != H.lattice for table in tables):
        raise ValueError("table and operator live on different lattices")
    if not tables:
        return []
    forms = [table.integer_form() for table in tables]
    eigs = list(map(R, eigenvalues))
    qs = [e.denominator for e in eigs]
    ps = [e.numerator * H.den for e in eigs]
    S = max((sum(map(abs, row.values())) for row in H.rows), default=0)
    W = slot_width(max((max(map(abs, nums), default=0) * (S * q + abs(p))
                        for (nums, _), q, p in zip(forms, qs, ps)), default=0))
    shifts = range(0, W * len(forms), W)
    # column j of the tables, and the diagonal side of row i, as one integer each
    QA = [sum(map(lshift, column, shifts))
          for column in zip(*([q * v for v in nums] for (nums, _), q in zip(forms, qs)))]
    PB = [sum(map(lshift, column, shifts))
          for column in zip(*([p * v for v in nums] for (nums, _), p in zip(forms, ps)))]
    worst = [0] * len(forms)
    for i in [i for i, ok in enumerate(H.valid_rows) if ok]:
        row = H.rows[i]
        d = sum(map(mul, row.values(), map(QA.__getitem__, row))) - PB[i]
        if d:
            low = ((d & -d).bit_length() - 1) // W
            slots = unpack(d >> (W * low), W, abs(d).bit_length() // W + 1 - low)
            for t, v in enumerate(slots, low):
                if abs(v) > worst[t]:
                    worst[t] = abs(v)
    return [R(w, q * H.den * den) for w, q, (_, den) in zip(worst, qs, forms)]


def eigen_suite(ctx: SuiteContext, m_max: int) -> list[CheckReport]:
    """Eigen residuals for every |m| <= m_max and every operator, one
    :func:`residual_defects` call per operator."""
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
    reports[0].wall_time += fill
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


def _triangle(box: int) -> list:
    return [(u, v) for u in range(box + 1) for v in range(box + 1 - u)]


def pair_shift_check(alpha, gamma, deg_max: int, box: int, family) -> CheckReport:
    """Forward/backward shift relations for the pair polynomials of
    ``family`` (a family class or bundle; see its ``pair_shift``)."""
    alpha, gamma = R(alpha), R(gamma)

    def defects():
        grids = {}

        def grid(m, al, ga):
            if (m, al, ga) not in grids:
                grids[m, al, ga] = family.pair_grid(m, al, ga, box)
            return grids[m, al, ga]

        points = _triangle(box)
        ru, ruden = integer_scaled([family.pair_rate(u, alpha) for u in range(box + 1)])
        rv, rvden = integer_scaled([family.pair_rate(v, gamma) for v in range(box + 1)])
        for m in range(deg_max + 1):
            c, d, alpha1, gamma1 = family.pair_shift(m, alpha, gamma)
            A, aden = grid(m, alpha, gamma)
            if m >= 1:
                B, bden = grid(m - 1, alpha1, gamma1)
                s, t = c.denominator * bden, c.numerator * aden
                yield _worst([(A[u][v + 1] - A[u + 1][v]) * s - t * B[u][v] for u, v in points],
                             aden * bden * c.denominator)
            B, bden = grid(m, alpha1, gamma1)
            C, cden = grid(m + 1, alpha, gamma)
            su = [r * rvden * d.denominator * cden for r in ru]
            sv = [r * ruden * d.denominator * cden for r in rv]
            t = d.numerator * ruden * rvden * bden
            yield _worst([v * su[u] * B[u][v - 1] - u * sv[v] * B[u - 1][v] - t * C[u][v]
                          for u, v in points], ruden * rvden * d.denominator * bden * cden)

    inst = (
        f"{family.pair_name}-pair alpha={rational_str(alpha)} gamma={rational_str(gamma)} "
        f"m<={deg_max} box={box}"
    )
    return _report("pair-shifts", inst, lambda: _exact(defects()))


def pair_recursion_check(alpha, gamma, deg_max: int, box: int, family) -> CheckReport:
    """Forward/backward three-term recursions for the pair polynomials:
    rate(u, alpha) P(u+1, v) + rate(v, gamma) P(u, v+1) = rate(u+v+m, alpha+gamma) P
    and u P(u-1, v) + v P(u, v-1) = (u+v-m) P."""
    alpha, gamma = R(alpha), R(gamma)
    rate = family.pair_rate

    def defects():
        points = _triangle(box)
        ru, ruden = integer_scaled([rate(u, alpha) for u in range(box + 1)])
        rv, rvden = integer_scaled([rate(v, gamma) for v in range(box + 1)])
        for m in range(deg_max + 1):
            A, aden = family.pair_grid(m, alpha, gamma, box)
            rs, rsden = integer_scaled([rate(s + m, alpha + gamma) for s in range(box + 1)])
            su = [r * rvden * rsden for r in ru]
            sv = [r * ruden * rsden for r in rv]
            ss = [r * ruden * rvden for r in rs]
            yield _worst([su[u] * A[u + 1][v] + sv[v] * A[u][v + 1] - ss[u + v] * A[u][v]
                          for u, v in points], ruden * rvden * rsden * aden)
            yield _worst([u * A[u - 1][v] + v * A[u][v - 1] - (u + v - m) * A[u][v]
                          for u, v in points], aden)

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
        deg = sum(m[i:])
        a_sum = sum(params.a[i - 1:], ZERO)
        bound = ctx.lattice.bound
        (chain,) = ctx.tables([(0,) * i + tuple(m[i:])], bound + 1)
        nums, den = chain.integer_form()
        # the instance lattice is a graded-lex prefix of the chain's, so a
        # point has one index in both
        up, down = chain.lattice.steps
        sites = range(i - 1, params.n)  # 0-based k - 1 for k = i..n
        # the rate columns over x_k = 0..bound and over sum x_k, on one denominator
        columns = [integer_scaled([params.pair_rate(t, params.a[k]) for t in range(bound + 1)])
                   for k in sites]
        columns.append(integer_scaled([params.pair_rate(t + deg, a_sum) for t in range(bound + 1)]))
        scale = math.lcm(*(d for _, d in columns))
        *rates, right = [[r * (scale // d) for r in col] for col, d in columns]
        fwd, bwd = [], []
        for p, x in enumerate(ctx.lattice.points):
            base = nums[p]
            tail = sum(x[i - 1:])
            f = -right[tail] * base
            b = -(tail - deg) * base
            for k, rate in zip(sites, rates):
                xk = x[k]
                f += rate[xk] * nums[up[k][p]]
                if xk:
                    b += xk * nums[down[k][p]]
            fwd.append(f)
            bwd.append(b)
        return _exact([_worst(fwd, scale * den), _worst(bwd, den)])

    return _report("generalized-recursions", f"{params.label} i={i} m={tuple(m)}", body)


def rodrigues_check(m_max: int, alpha, gamma, box: int) -> CheckReport:
    """Backward-shift chain reproduces the closed-form pair polynomial."""

    def defects():
        for m in range(m_max + 1):
            built = pair_backward_table(m, alpha, gamma, box)
            nums, den = built.integer_form()
            G, gden = hahn_pair_grid(m, alpha, gamma, box)
            points = built.lattice.points
            yield _worst([p * gden - G[u][v] * den for (u, v), p in zip(points, nums)], den * gden)

    inst = f"alpha={rational_str(R(alpha))} gamma={rational_str(R(gamma))} m<={m_max} box={box}"
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
    nonzero common eigenvector of total and exchange(1) .. exchange(n-1)
    (residual 0 on all L rows), these stencils are self-adjoint under
    the weight W and W > 0: eigenvectors of a W-self-adjoint operator with
    different eigenvalues are W-orthogonal, so when the joint eigenvalue
    tuples are pairwise distinct the L nonzero P_m are orthogonal, hence
    independent.  Those n eigenvalues fix |m| and every S_i = m_i + ... +
    m_{n-1}, so they fix m; for special parameters where tuples coincide,
    the Gram block of each such cluster must be diagonal with positive
    entries.  The residuals are formed one total degree per kernel call
    (one pack across degrees would need the slot width of the largest
    table), and those of the eigen check, |m| <= m_max, are reused, as are
    the adjointness defects.
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
        ops = [OperatorSpec(params, "total")] + [OperatorSpec(params, "exchange", i)
                                                 for i in range(1, n)]
        labels = ", ".join(op.label for op in ops)
        adjoint = max(ctx.adjointness(op.kind, op.index) for op in ops)
        if adjoint:
            return FAIL, adjoint, f"{labels} not W-self-adjoint"
        for op in ops:
            if not all(ctx.stencil(op.kind, op.index).valid_rows):
                return FAIL, None, f"image of {op.label} not defined on every row"
        for d in range(params.N + 1):
            shell = [m for m in degrees if sum(m) == d]
            for m, table in zip(shell, ctx.tables(shell)):
                if not any(table.integer_form()[0]):
                    return FAIL, None, f"P_{m} vanishes"
            for op in ops:
                for m, worst in zip(shell, ctx.eigen_residuals(op.kind, op.index, shell)):
                    if worst:
                        return FAIL, worst, f"P_{m} not an eigenvector of {op.label} on every row"
        clusters = {}
        for m in degrees:
            joint = tuple(ctx.eigenvalue(op.kind, op.index, m) for op in ops)
            clusters.setdefault(joint, []).append(m)
        clusters = [ms for ms in clusters.values() if len(ms) > 1]
        for ms in clusters:
            G = gram_matrix(ctx.tables(ms), ctx.weights())
            defect = _orthogonality_defect(
                {(i, j): G[i][j] for i, j in combinations_with_replacement(range(len(ms)), 2)}, ms)
            if defect:
                return FAIL, None, f"Gram block of equal joint eigenvalues: {defect}"
        spectrum = (f"equal joint eigenvalues in {len(clusters)} clusters, Gram blocks "
                    "diagonal positive" if clusters else "joint eigenvalues distinct")
        return PASS, ZERO, (f"count {size}, nonzero common eigenvectors of the W-self-adjoint "
                            f"{labels}, W > 0, {spectrum}")

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


def limit_suite(params, rng: random.Random) -> list[CheckReport]:
    """Three random (m, x) draws for the limit transition of a Krawtchouk
    or Meixner bundle at t = 10^2, 10^4, 10^6: m in {0,1,2}^n redrawn until
    |m| <= N, x on the lattice (the box |x| <= 8 for Meixner)."""
    n = params.n
    bound = 8 if params.N is None else params.N
    reports = []
    for _ in range(3):
        m = _random_point(rng, n, 2, params.N)
        x = _random_point(rng, n, bound, bound)
        reports.append(limit_check((100, 10_000, 1_000_000), m, x, params))
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

    The lattice, the weight tables (one per box), the operator stencils,
    the eigenpolynomial tables (one per simplex bound and degree m), the
    type-one tables (one per subset J and degree m, their values one grid
    per degree m and parameter a_J), the Gram entries, the Meixner factorial
    moments, the eigenvalues (one per operator and partial degree), the
    adjointness defects (one per stencil) and the eigen residuals (one
    rational per stencil and P_m or type-one table, the missing ones of a
    request formed in one :func:`residual_defects` call) are built on first
    use and kept for the life of the context.  So the eigen, degeneracy,
    glue and completeness checks share their residuals, and the adjointness
    and completeness checks their defects.
    Every table, on whatever simplex, is filled from one factor dict that
    holds the integers of each pair and radial slot per argument (see
    :func:`mvortho.polynomials.eigenpoly_tables`), so each (slot, argument)
    is evaluated once per context.
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
        self._weights: dict = {}
        self._stencils: dict = {}
        self._tables: dict = {}
        self._type_one: dict = {}
        self._type_one_grids: dict = {}
        self._factors: dict = {}
        self._gram: list = []
        self._moments: dict = {}
        self._eigenvalues: dict = {}
        self._adjointness: dict = {}
        self._residuals: dict = {}

    @cached_property
    def lattice(self):
        return family_lattice(self.params, xmax=self.xmax)

    def weights(self, xmax: int | None = None):
        """The weight table on the instance lattice, or on the Meixner box |x| <= xmax."""
        key = self.xmax if xmax is None else xmax
        if key not in self._weights:
            self._weights[key] = weight_table(self.params, xmax=key)
        return self._weights[key]

    def orthogonality(self, m_max: int, pairs) -> tuple:
        """(largest |off-diagonal| box entry, exact entries) of the Gram
        matrix of P_m, |m| <= m_max, at the index ``pairs``.

        The box entries are those of :meth:`gram` on the instance lattice.
        The exact entries are the same on the bounded families; on the
        Meixner box they are the inner products over all of N^n, exact
        finite sums against the factorial moments of order <= K = 2 m_max
        of tables on the simplex |x| <= K (the moments are built once per K).
        """
        G = self.gram(m_max)
        box = {(i, j): G[i][j] for i, j in pairs}
        worst = max((abs(v) for (i, j), v in box.items() if i != j and v), default=ZERO)
        if not self.lattice.truncated:
            return worst, box
        K = 2 * m_max
        if K not in self._moments:
            self._moments[K] = meixner_moments(self.params, K)
        tables = self.tables(enumerate_degrees(self.params.n, m_max), K)
        return worst, {(i, j): lattice_inner_product(tables[i], tables[j], self._moments[K])
                       for i, j in box}

    def eigenvalue(self, kind: str, index: int | None, m):
        """The operator's eigenvalue on P_m, formed once per operator and
        partial degree: the eigenvalue reads m only through |m| (total),
        S_index = m_index + ... + m_{n-1} (exchange) or both |m| and S_1
        (single), see :func:`mvortho.polynomials.eigenvalue`."""
        total, tail = sum(m), sum(m[index or 1:])
        key = (kind, index, total if kind == "total" else
               tail if kind == "exchange" else (total, tail))
        if key not in self._eigenvalues:
            self._eigenvalues[key] = eigenvalue(self.params, kind, index, m)
        return self._eigenvalues[key]

    def adjointness(self, kind: str, index: int | None = None):
        """The stencil's self-adjointness defect under the weight."""
        key = (kind, index)
        if key not in self._adjointness:
            self._adjointness[key] = adjointness_defect(self.stencil(kind, index), self.weights())
        return self._adjointness[key]

    def _residuals_of(self, name: str, H: OperatorMatrix, keys, tables, eigenvalue) -> list:
        """The residual of the ``name`` table of each key under the stencil:
        the missing keys in one :func:`residual_defects` call, over
        ``tables(missing)`` and the eigenvalue of each."""
        done = self._residuals.setdefault((name, H.op.kind, H.op.index), {})
        missing = [k for k in dict.fromkeys(keys) if k not in done]
        if missing:
            found = residual_defects(H, tables(missing), [eigenvalue(k) for k in missing])
            done.update(zip(missing, found))
        return [done[k] for k in keys]

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

    def tables(self, degrees, bound: int | None = None) -> list[LatticeFunction]:
        """Tables of P_m for m in ``degrees`` on the instance lattice, or on the
        simplex |x| <= bound with the same truncation flag.  The missing ones
        are built in one call, from the context's factor dict."""
        lattice = self.lattice
        if bound not in (None, lattice.bound):
            lattice = Lattice(self.params.n, bound, lattice.truncated)
        keys = [(lattice.bound, self.params.degree_index(m)) for m in degrees]
        missing = [key for key in dict.fromkeys(keys) if key not in self._tables]
        if missing:
            built = eigenpoly_tables([m for _, m in missing], self.params, lattice, self._factors)
            self._tables.update(zip(missing, built))
        return [self._tables[key] for key in keys]

    def type_one(self, J: tuple, m: int) -> LatticeFunction:
        """Table of the degree-m type-one polynomial in x_J on the instance
        lattice, for a sorted subset J of 1..n.  It depends on x only through
        x_J and on J only through a_J, so it is one integer grid per (m, a_J)
        over x_J = 0..bound (``params.type_one``); each J gets its own table,
        reduced by the gcd of its integers."""
        key = (J, m)
        if key not in self._type_one:
            params, lattice = self.params, self.lattice
            a_J = sum((params.a[j - 1] for j in J), ZERO)
            if (m, a_J) not in self._type_one_grids:
                self._type_one_grids[m, a_J] = params.type_one(m, a_J,
                                                              list(range(lattice.bound + 1)))
            by_sum, den = self._type_one_grids[m, a_J]
            self._type_one[key] = LatticeFunction(
                lattice, [by_sum[sum(x[j - 1] for j in J)] for x in lattice.points], den)
        return self._type_one[key]

    def gram(self, m_max: int) -> list[list]:
        """Gram matrix of P_m, |m| <= m_max.  The degrees of a smaller m_max
        are a graded-lex prefix, so their block is sliced from the kept
        matrix; a larger m_max builds the whole matrix again."""
        degrees = enumerate_degrees(self.params.n, m_max)
        size = len(degrees)
        if size > len(self._gram):
            self._gram = gram_matrix(self.tables(degrees), self.weights())
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
