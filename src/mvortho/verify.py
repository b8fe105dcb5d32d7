"""Identity verification harness.

Every check is exact: on the bounded families a pass requires the
defect to be exactly zero (no epsilon anywhere).  The only approximate
object in the package is the truncated Meixner box, and there the
tolerance is a rigorously computed tail bound, never an arbitrary
epsilon.  Checks are independent and share no mutable state, so they
may run concurrently.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from itertools import combinations

from ._backend import R, ZERO, ONE, as_integer
from .core import LatticeFunction, compositions, enumerate_degrees, family_lattice, tail_sum
from .measures import (
    gram_matrix,
    inner_product,
    meixner_normalization,
    meixner_weight,
    rising_over_factorial_coeffs,
    tail_power_sum,
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
    eigenpoly_table,
    eigenpoly_tables,
    eigenvalue,
    hahn,
    hahn_pair,
    pair_backward_table,
    pair_product,
    rising_factorial,
)

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
        from .serialize import rational_str

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
        from .serialize import rational_str, sci_str

        defect = "-" if self.max_defect is None else rational_str(self.max_defect)
        if len(defect) > 24:
            defect = f"~{sci_str(self.max_defect)}"
        return (
            f"{self.status.upper():5s} {self.name:22s} {defect:>26s} "
            f"{self.wall_time:8.3f}s  {self.instance}"
            + (f"  [{self.detail}]" if self.detail else "")
        )


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def random_rational(rng: random.Random, max_part: int = 20):
    """Positive rational with numerator and denominator <= max_part."""
    return R(rng.randint(1, max_part), rng.randint(1, max_part))


# ---------------------------------------------------------------------------
# measure-level checks


def normalization_check(params, xmax: int | None = None) -> CheckReport:
    """Bounded families: the weight sums to 1 exactly.  Meixner: partial
    sums increase with the box and the missing mass obeys the tail bound."""

    def body():
        if params.N is None:
            X = 12 if xmax is None else xmax
            totals = [weight_table(params, xmax=x) for x in (X // 2, X)]
            if not totals[0].total < totals[1].total:
                return FAIL, totals[1].total - totals[0].total, "partial sums not increasing"
            w = totals[1]
            if w.normalized:
                missing = 1 - w.total
                if not (0 < missing <= w.tail_bound):
                    return FAIL, missing, "missing mass outside tail bound"
                from .serialize import sci_str

                return PASS, ZERO, f"1 - sum = {sci_str(missing)} <= bound {sci_str(w.tail_bound)}"
            return PASS, ZERO, "unnormalized weight (non-integer beta); monotone partial sums"
        w = weight_table(params)
        defect = abs(w.total - 1)
        return (PASS if defect == 0 else FAIL), defect, ""

    (status, defect, detail), dt = _timed(body)
    return CheckReport("normalization", params.label, status, defect, dt, detail)


def compatibility_check(params, xmax: int | None = None) -> CheckReport:
    """Weight-ratio identity and the pairwise compatibility condition.

    W(x+e_j)/W(x) = B_j(x)/D_j(x+e_j) for all interior x and j, and the
    two-step ratio B_j/D_j * B_k/D_k is invariant under swapping j,k.
    """

    def body():
        w = weight_table(params, xmax=xmax)
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

    (status, worst), dt = _timed(body)
    return CheckReport("compatibility", params.label, status, worst, dt)


def boundary_safety_check(params) -> CheckReport:
    """Every coefficient that would multiply an out-of-lattice shift is 0."""

    def body():
        if params.N is None:
            return SKIP, None, "semi-infinite lattice; frontier entries are flagged instead"
        lattice = family_lattice(params)
        n = params.n
        for x in lattice.points:
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

    (status, defect, detail), dt = _timed(body)
    return CheckReport("boundary-safety", params.label, status, defect, dt, detail)


# ---------------------------------------------------------------------------
# operator-level checks


def all_operator_specs(params) -> list[OperatorSpec]:
    specs = [OperatorSpec(params, "total"), OperatorSpec(params, "single")]
    specs += [OperatorSpec(params, "exchange", i) for i in range(1, params.n)]
    return specs


def adjointness_check(params, xmax: int | None = None) -> CheckReport:
    def body():
        w = weight_table(params, xmax=xmax)
        worst = ZERO
        for spec in all_operator_specs(params):
            worst = max(worst, adjointness_defect(spec, w))
        return (PASS if worst == 0 else FAIL), worst

    (status, worst), dt = _timed(body)
    return CheckReport("adjointness", params.label, status, worst, dt)


def commutator_check(params, xmax: int | None = None) -> CheckReport:
    def body():
        lattice = family_lattice(params, xmax=xmax)
        specs = all_operator_specs(params)
        worst = ZERO
        for s1, s2 in combinations(specs, 2):
            worst = max(worst, commutator_defect(s1, s2, lattice))
        detail = "interior-restricted rows" if lattice.truncated else ""
        return (PASS if worst == 0 else FAIL), worst, detail

    (status, worst, detail), dt = _timed(body)
    return CheckReport("commutators", params.label, status, worst, dt, detail)


def degree_invariance_report(params, M: int, xmax: int | None = None) -> CheckReport:
    def body():
        lattice = family_lattice(params, xmax=xmax)
        specs = all_operator_specs(params)
        degree = max(image_degree(spec, M, lattice) for spec in specs)
        ok = degree <= M
        return (PASS if ok else FAIL), (ZERO if ok else None), degree

    (status, defect, degree), dt = _timed(body)
    return CheckReport(
        "degree-invariance", f"{params.label} M={M}", status, defect, dt,
        f"largest image degree {degree}",
    )


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


def eigen_check(params, kind: str, m, index: int | None = None,
                xmax: int | None = None) -> CheckReport:
    """Residual of the eigenvalue equation for P_m under one operator."""

    def body():
        lattice = family_lattice(params, xmax=xmax)
        table = eigenpoly_table(m, params, lattice)
        H = operator_matrix(OperatorSpec(params, kind, index), lattice)
        eig = eigenvalue(params, kind, index, m)
        worst, checked = residual_defect(H, table, eig)
        from .serialize import rational_str

        detail = f"eigenvalue {rational_str(eig)} on {checked} points"
        return (PASS if worst == 0 else FAIL), worst, detail

    (status, worst, detail), dt = _timed(body)
    op_label = kind if kind != "exchange" else f"exchange{index}"
    inst = f"{params.label} m={tuple(m)} op={op_label}"
    return CheckReport("eigen", inst, status, worst, dt, detail)


def eigen_suite(params, m_max: int, xmax: int | None = None) -> list[CheckReport]:
    """Eigen residuals for every |m| <= m_max and every operator."""
    reports = []
    lattice = family_lattice(params, xmax=xmax)
    t0 = time.perf_counter()
    matrices = [operator_matrix(spec, lattice) for spec in all_operator_specs(params)]
    worst = ZERO
    count = 0
    degrees = enumerate_degrees(params.n, m_max)
    for m, table in zip(degrees, eigenpoly_tables(degrees, params, lattice)):
        for H in matrices:
            eig = eigenvalue(params, H.op.kind, H.op.index, m)
            defect, _ = residual_defect(H, table, eig)
            worst = max(worst, defect)
            count += 1
    dt = time.perf_counter() - t0
    inst = f"{params.label} all |m|<={m_max}"
    reports.append(
        CheckReport(
            "eigen-suite", inst, PASS if worst == 0 else FAIL, worst, dt,
            f"{count} (m, operator) pairs",
        )
    )
    reports.append(eigen_degeneracy_check(params, m_max))
    return reports


def eigen_degeneracy_check(params, m_max: int) -> CheckReport:
    """All P_m of equal total degree share the total-operator eigenvalue."""

    def body():
        by_degree: dict[int, set] = {}
        for m in enumerate_degrees(params.n, m_max):
            by_degree.setdefault(sum(m), set()).add(
                eigenvalue(params, "total", None, m)
            )
        bad = [d for d, vals in by_degree.items() if len(vals) != 1]
        return (PASS if not bad else FAIL), (ZERO if not bad else None)

    (status, defect), dt = _timed(body)
    return CheckReport(
        "eigen-degeneracy", f"{params.label} |m|<={m_max}", status, defect, dt
    )


# ---------------------------------------------------------------------------
# type-one checks


def type_one_value(params, J, m: int, x) -> object:
    """Single-variable polynomial in the subset-sum variable x_J."""
    xJ = sum(x[j - 1] for j in J)
    return params.type_one(m, xJ, sum((params.a[j - 1] for j in J), ZERO))


def type_one_check(params, J, m: int, xmax: int | None = None) -> CheckReport:
    """H_total on the subset polynomial: residual must vanish exactly."""
    J = tuple(sorted(set(J)))
    if not J or any(not 1 <= j <= params.n for j in J):
        raise ValueError(f"J must be a nonempty subset of 1..{params.n}")
    lattice = family_lattice(params, xmax=xmax)
    return _type_one_report(operator_matrix(OperatorSpec(params, "total"), lattice), J, m)


def _type_one_report(total: OperatorMatrix, J, m: int) -> CheckReport:
    params = total.op.params

    def body():
        table = LatticeFunction.from_callable(
            total.lattice, lambda x: type_one_value(params, J, m, x)
        )
        eig = eigenvalue(params, "total", None, (m,) + (0,) * (params.n - 1))
        worst, _ = residual_defect(total, table, eig)
        return (PASS if worst == 0 else FAIL), worst

    (status, worst), dt = _timed(body)
    inst = f"{params.label} J={set(J)} m={m}"
    return CheckReport("type-one", inst, status, worst, dt)


def type_one_suite(params, m_max: int, xmax: int | None = None) -> list[CheckReport]:
    """Type-one residuals for every subset J and m <= m_max, on one stencil."""
    total = operator_matrix(OperatorSpec(params, "total"), family_lattice(params, xmax=xmax))
    sites = range(1, params.n + 1)
    reports = [_type_one_report(total, J, m) for size in sites
               for J in combinations(sites, size) for m in range(m_max + 1)]
    reports.append(same_degree_overlap_check(params, max(1, min(m_max, 2)), xmax=xmax))
    return reports


def same_degree_overlap_check(params, m: int, xmax: int | None = None) -> CheckReport:
    """Same-degree subset polynomials are NOT orthogonal in general.

    Records at least one pair J != J' of equal degree with a nonzero
    inner product; failing to find one on a generic instance is a FAIL.
    """

    def body():
        w = weight_table(params, xmax=xmax)
        lattice = w.lattice
        sites = range(1, params.n + 1)
        subsets = [J for size in sites for J in combinations(sites, size)]
        tables = {
            J: LatticeFunction.from_callable(
                lattice, lambda x, J=J: type_one_value(params, J, m, x)
            )
            for J in subsets
        }
        for J1, J2 in combinations(subsets, 2):
            if inner_product(tables[J1], tables[J2], w) != 0:
                return PASS, f"({set(J1)}, {set(J2)}) overlap at degree {m}"
        return FAIL, "all same-degree pairs orthogonal (unexpected)"

    (status, detail), dt = _timed(body)
    return CheckReport(
        "type-one-overlap", f"{params.label} m={m}", status, None, dt, detail
    )


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

    (status, worst), dt = _timed(body)
    from .serialize import rational_str

    inst = f"hahn-1v a={rational_str(a)} b={rational_str(b)} N={N} m<={deg_max}"
    return CheckReport("sv-shifts", inst, status, worst, dt)


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

    (status, worst), dt = _timed(body)
    return CheckReport("sv-difference-eq", f"hahn-1v N={N} m<={deg_max}", status, worst, dt)


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

    (status, worst), dt = _timed(body)
    from .serialize import rational_str

    inst = (
        f"{family.pair_name}-pair alpha={rational_str(alpha)} gamma={rational_str(gamma)} "
        f"m<={deg_max} box={box}"
    )
    return CheckReport("pair-shifts", inst, status, worst, dt)


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

    (status, worst), dt = _timed(body)
    inst = f"{family.pair_name}-pair m<={deg_max} box={box}"
    return CheckReport("pair-recursions", inst, status, worst, dt)


def generalized_recursion_check(params, i: int, m, xmax: int | None = None) -> CheckReport:
    """Forward/backward recursions for the chained pair product.

    With R(x) the product of pair factors i..n-1 (degree-shifted), sums
    over k = i..n (1-based sites), D = sum_{k>=i} m_k and the family's
    pair rate (x_k + a_k for Hahn, a_k for Krawtchouk/Meixner):

        sum rate(x_k, a_k) R(x+e_k) = rate(sum x_k + D, sum a_k) R(x)
        sum x_k R(x-e_k)            = (sum x_k - D) R(x)
    """

    def body():
        lattice = family_lattice(params, xmax=xmax)
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

    (status, worst), dt = _timed(body)
    inst = f"{params.label} i={i} m={tuple(m)}"
    return CheckReport("generalized-recursions", inst, status, worst, dt)


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

    (status, worst), dt = _timed(body)
    from .serialize import rational_str

    inst = f"alpha={rational_str(R(alpha))} gamma={rational_str(R(gamma))} m<={m_max} box={box}"
    return CheckReport("rodrigues", inst, status, worst, dt)


def glue_check(params, i: int, m_i: int, m_im1: int, xmax: int | None = None) -> CheckReport:
    """Adjacent pair factors glue into an eigenfunction of exchange(i-1).

    The lower factor is evaluated at (x_{i-1}, x_{>i-1} - m_i) and, for
    Hahn, with its tail parameter shifted to a_{>i-1} + 2 m_i; the glued
    eigenvalue adds the degrees.
    """
    if not 2 <= i <= params.n - 1:
        raise ValueError(f"glue index i = {i} outside [2, {params.n - 1}]")
    lattice = family_lattice(params, xmax=xmax)
    return _glue_report(operator_matrix(OperatorSpec(params, "exchange", i - 1), lattice),
                        i, m_i, m_im1)


def _glue_report(exchange: OperatorMatrix, i: int, m_i: int, m_im1: int) -> CheckReport:
    params = exchange.op.params

    def body():
        def value(x):
            hi = params.pair_factor(i, m_i, 0, x[i - 1], tail_sum(x, i))
            lo = params.pair_factor(i - 1, m_im1, m_i, x[i - 2], tail_sum(x, i - 1))
            return hi * lo

        table = LatticeFunction.from_callable(exchange.lattice, value)
        m = [0] * params.n
        m[i - 1], m[i] = m_im1, m_i
        eig = eigenvalue(params, "exchange", i - 1, m)
        worst, _ = residual_defect(exchange, table, eig)
        return (PASS if worst == 0 else FAIL), worst

    (status, worst), dt = _timed(body)
    inst = f"{params.label} i={i} degrees=({m_i},{m_im1})"
    return CheckReport("glue", inst, status, worst, dt)


# ---------------------------------------------------------------------------
# Gram / orthogonality


def _uni_coeffs(values):
    """Monomial coefficients of the poly through (0, v0) .. (d, vd)."""
    d = len(values) - 1
    dd = [R(v) for v in values]
    # divided differences on nodes 0..d (in place)
    for level in range(1, d + 1):
        for idx in range(d, level - 1, -1):
            dd[idx] = (dd[idx] - dd[idx - 1]) / level
    coeffs = [dd[d]]
    for k in range(d - 1, -1, -1):
        # multiply by (x - k), then add dd[k]
        coeffs = [ZERO] + coeffs
        coeffs = [c - k * nxt for c, nxt in zip(coeffs, coeffs[1:] + [ZERO])]
        coeffs[0] += dd[k]
    return coeffs


def poly_coefficients(fn, nvars: int, deg: int) -> dict:
    """Exact monomial coefficients of a polynomial evaluator.

    Interpolates on the grid {0..deg}^nvars, one variable at a time.
    """
    if nvars == 1:
        cs = _uni_coeffs([fn((t,)) for t in range(deg + 1)])
        return {(e,): c for e, c in enumerate(cs) if c != 0}
    slices = [
        poly_coefficients(lambda rest, t=t: fn((t,) + rest), nvars - 1, deg)
        for t in range(deg + 1)
    ]
    keys = set()
    for s in slices:
        keys.update(s.keys())
    out = {}
    for key in keys:
        for e, c in enumerate(_uni_coeffs([s.get(key, ZERO) for s in slices])):
            if c != 0:
                out[(e,) + key] = c
    return out


def coeff_degree_sums(coeffs: dict, deg: int):
    """C_j = sum of |coefficients| of total degree j, for j = 0..deg."""
    out = [ZERO] * (deg + 1)
    for exps, c in coeffs.items():
        out[sum(exps)] += abs(c)
    return out


def meixner_product_tail_bound(params, coeff_p: dict, coeff_q: dict,
                               xmax: int, extend: int = 40):
    """Rigorous bound on |sum_{|x| > xmax} p(x) q(x) W(x)|.

    Exact shell sums of |p q| W are accumulated for xmax < s <= xmax+extend;
    beyond that the product is dominated by sum_j C_j s^j (C_j from the
    absolute coefficients of p*q) and the remaining series has an exact
    closed form for integral beta, or a geometric bound otherwise.
    """
    n = params.n
    # |p*q| coefficient degree sums
    prod: dict = {}
    for e1, c1 in coeff_p.items():
        for e2, c2 in coeff_q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            prod[key] = prod.get(key, ZERO) + c1 * c2
    deg = max((sum(e) for e in prod), default=0)
    Cj = coeff_degree_sums(prod, deg)

    head = ZERO
    for s in range(xmax + 1, xmax + extend + 1):
        for x in compositions(s, n):
            pv = _eval_coeffs(coeff_p, x)
            qv = _eval_coeffs(coeff_q, x)
            head += abs(pv * qv) * meixner_weight(x, params)

    S = xmax + extend
    A = params.a_total
    tail = ZERO
    if params.integral_beta:
        poly = rising_over_factorial_coeffs(as_integer(params.beta))
        for j, C in enumerate(Cj):
            if C == 0:
                continue
            for d, c in enumerate(poly):
                tail += C * c * tail_power_sum(A, S, j + d)
    else:
        for j, C in enumerate(Cj):
            if C == 0:
                continue
            # term ratio <= |a| * max(1, (beta+s)/(s+1)) * ((s+1)/s)^j, decreasing
            q = A * max(ONE, (params.beta + S + 1) / (S + 2)) * (R(S + 2) / (S + 1)) ** j
            if q >= 1:
                raise ValueError("extension too small for a geometric tail bound")
            first = (
                rising_factorial(params.beta, S + 1)
                * A ** (S + 1)
                / math.factorial(S + 1)
                * R(S + 1) ** j
            )
            tail += C * first / (1 - q)
    norm = ONE
    if params.integral_beta:
        norm = meixner_normalization(params)
    return head + tail * norm


def _eval_coeffs(coeffs: dict, x):
    out = ZERO
    for exps, c in coeffs.items():
        term = c
        for xi, e in zip(x, exps):
            term *= R(xi) ** e
        out += term
    return out


@dataclass
class GramResult:
    degrees: tuple
    matrix: list
    report: CheckReport
    tolerance: object = None
    bounds: list = field(default_factory=list)


def gram_check(params, m_max: int, xmax: int | None = None,
               extend: int = 40) -> GramResult:
    """Gram matrix of {P_m : |m| <= m_max} under the family weight.

    Bounded families: every off-diagonal entry must be exactly zero and
    every diagonal positive.  Meixner: off-diagonal entries must lie
    within their per-pair truncation-tail bounds; the reported tolerance
    is the largest such bound.
    """
    t0 = time.perf_counter()
    if params.N is not None and m_max > params.N:
        raise ValueError("need m_max <= N")
    w = weight_table(params, xmax=xmax)
    lattice = w.lattice
    degrees = enumerate_degrees(params.n, m_max)
    G = gram_matrix(eigenpoly_tables(degrees, params, lattice), w)
    size = len(degrees)

    status = PASS
    detail = ""
    tolerance = None
    bounds: list = []
    worst = ZERO
    if lattice.truncated:
        coeffs = [
            poly_coefficients(lambda x, m=m: eigenpoly(m, x, params), params.n, m_max)
            for m in degrees
        ]
        tolerance = ZERO
        for i in range(size):
            for j in range(i + 1, size):
                bound = meixner_product_tail_bound(
                    params, coeffs[i], coeffs[j], lattice.bound, extend
                )
                bounds.append(((degrees[i], degrees[j]), bound))
                tolerance = max(tolerance, bound)
                worst = max(worst, abs(G[i][j]))
                if abs(G[i][j]) > bound:
                    status = FAIL
                    detail = f"off-diagonal {degrees[i]},{degrees[j]} beyond tail bound"
        if status == PASS:
            from .serialize import sci_str

            detail = f"max |offdiag| {sci_str(worst)} within tolerance {sci_str(tolerance)}"
    else:
        for i in range(size):
            for j in range(size):
                if i != j and G[i][j] != 0:
                    status = FAIL
                    worst = max(worst, abs(G[i][j]))
    for i in range(size):
        if G[i][i] <= 0:
            status = FAIL
            detail = f"non-positive diagonal at {degrees[i]}"
    dt = time.perf_counter() - t0
    report = CheckReport(
        "gram", f"{params.label} |m|<={m_max}", status, worst, dt, detail
    )
    return GramResult(degrees, G, report, tolerance, bounds)


def completeness_check(params, xmax: int | None = None) -> CheckReport:
    """#{m : |m| <= N} equals |lattice| and the Gram matrix is nonsingular,
    which holds once ``gram_check`` finds it diagonal with positive entries."""

    def body():
        if params.N is None:
            return SKIP, None, "unbounded degree set on the semi-infinite lattice"
        lattice = family_lattice(params)
        degrees = enumerate_degrees(params.n, params.N)
        if len(degrees) != lattice.size:
            return FAIL, None, "degree count differs from lattice size"
        if gram_check(params, params.N).report.status != PASS:
            return FAIL, None, "Gram matrix not diagonal with positive entries"
        return PASS, ZERO, f"count {lattice.size}, Gram diagonal positive, full rank"

    (status, defect, detail), dt = _timed(body)
    return CheckReport("completeness", params.label, status, defect, dt, detail)


def pair_orthogonality_report(params, m: int, xmax: int | None = None) -> CheckReport:
    """Literal cross-sector orthogonality of the raw pair polynomials.

    Tests (P_m in sector i, P_m in sector j) under the full weight for
    every i < j and reports the outcome.
    """

    def body():
        w = weight_table(params, xmax=xmax)
        lattice = w.lattice

        def sector_value(i, x):
            return params.pair_factor(i, m, 0, x[i - 1], tail_sum(x, i))

        tables = {
            i: LatticeFunction.from_callable(lattice, lambda x, i=i: sector_value(i, x))
            for i in range(1, params.n)
        }
        worst = ZERO
        status = PASS
        for i, j in combinations(range(1, params.n), 2):
            val = abs(inner_product(tables[i], tables[j], w))
            worst = max(worst, val)
            if lattice.truncated:
                coeff_i = poly_coefficients(
                    lambda pt, i=i: sector_value(i, pt), params.n, m
                )
                coeff_j = poly_coefficients(
                    lambda pt, j=j: sector_value(j, pt), params.n, m
                )
                bound = meixner_product_tail_bound(
                    params, coeff_i, coeff_j, lattice.bound
                )
                if val > bound:
                    status = FAIL
            elif val != 0:
                status = FAIL
        detail = (
            "within truncation tail bounds" if lattice.truncated else "full-weight inner product"
        )
        return status, worst, detail

    (status, worst, detail), dt = _timed(body)
    return CheckReport(
        "pair-orthogonality", f"{params.label} m={m}", status, worst, dt, detail
    )


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

    (status, worst), dt = _timed(body)
    inst = (f"{params.family}-limit n={params.n} {params.bound_label} m={tuple(m)} "
            f"x={tuple(x)} t={list(t_values)}")
    return CheckReport("limit", inst, status, worst, dt)


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
    """The suite's defaults for one bundle, resolved once: xmax 12 on the
    truncated Meixner box, m_max 3 (at most N), the degrees of the
    invariance and Gram checks (smaller on the Meixner box, where every
    Gram entry needs its own tail bound), the box of the pair identities,
    and one seeded stream for every random draw."""

    def __init__(self, params, m_max: int | None = None, xmax: int | None = None,
                 seed: int = 0):
        unbounded = params.N is None
        self.params = params
        self.xmax = 12 if unbounded and xmax is None else xmax
        if m_max is None:
            m_max = 3 if unbounded else min(params.N, 3)
        self.m_max = m_max
        self.invariance_degree = min(2, m_max if unbounded else params.N)
        self.gram_degree = min(m_max, 1) if unbounded else m_max
        self.box = min(self.xmax if unbounded else params.N, 6)
        self.rng = random.Random(seed)


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
    p = ctx.params
    reports = []
    for i in (1, p.n - 1):
        m = (0,) + tuple(ctx.rng.randint(0, 2) for _ in range(p.n - 1))
        reports.append(generalized_recursion_check(p, i, m, xmax=ctx.xmax))
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
    exchange = operator_matrix(OperatorSpec(p, "exchange", 1), family_lattice(p, xmax=ctx.xmax))
    return [_glue_report(exchange, 2, mi, mim1) for mi, mim1 in ((1, 1), (2, 1), (1, 2))]


# name -> fn(ctx) returning that entry's reports, in suite order.  "limits"
# is not part of the suite: it needs a Krawtchouk or Meixner bundle.
CHECKS = {
    "normalization": lambda c: [normalization_check(c.params, xmax=c.xmax)],
    "compatibility": lambda c: [compatibility_check(c.params, xmax=c.xmax)],
    "boundary": lambda c: [boundary_safety_check(c.params)],
    "adjointness": lambda c: [adjointness_check(c.params, xmax=c.xmax)],
    "commutators": lambda c: [commutator_check(c.params, xmax=c.xmax)],
    "degree-invariance": lambda c: [
        degree_invariance_report(c.params, c.invariance_degree, xmax=c.xmax)],
    "eigen": lambda c: eigen_suite(c.params, c.m_max, xmax=c.xmax),
    "type-one": lambda c: type_one_suite(c.params, min(c.m_max, 3), xmax=c.xmax),
    "shifts": _shifts,
    "generalized-recursions": _generalized_recursions,
    "rodrigues": _rodrigues,
    "glue": _glue,
    "gram": lambda c: [gram_check(c.params, c.gram_degree, xmax=c.xmax).report],
    "pair-orthogonality": lambda c: [pair_orthogonality_report(c.params, 1, xmax=c.xmax)],
    "completeness": lambda c: [completeness_check(c.params)],
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
