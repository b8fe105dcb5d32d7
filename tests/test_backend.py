"""The rational boundary: ``R`` hands a ``Fraction`` back as it is, a zero
defect or a zero Gram entry is the shared ``ZERO``, and a nonzero one is the
same reduced rational as the per-entry oracles form."""

import math
from fractions import Fraction

import pytest

from mvortho import R, HahnParams, KrawtchoukParams, MeixnerParams, gram_matrix, weight_table
from mvortho import verify as V
from mvortho._backend import ZERO
from mvortho.core import enumerate_degrees, family_lattice
from mvortho.operators import (adjointness_defect, commutator_defects, eigenvalue,
                               operator_matrix, residual_defects)
from mvortho.polynomials import eigenpoly_tables
from mvortho.serialize import rational_str
from test_operators import (dense_adjointness_defect, dense_commutator_defect,
                            oracle_residual_defect, perturb_birth_rate, specs_of)

CASES = [
    (HahnParams((R(1), R(2), R(3)), R(2), 4), None),
    (KrawtchoukParams((R(1, 2), R(1, 3), R(2)), 4), None),
    (MeixnerParams((R(1, 5), R(1, 4)), R(2)), 4),
]
IDS = ["hahn", "krawtchouk", "meixner-box"]


class Ratio:
    """A numbers.Rational-like value that is no Fraction."""
    numerator, denominator = 6, -4


def test_a_fraction_is_returned_as_it_is():
    q = Fraction(6, 4)
    assert R(q) is q and R(ZERO) is ZERO


@pytest.mark.parametrize("args, expected", [
    ((3,), (3, 1)),
    ((6, 4), (3, 2)),
    ((6, -4), (-3, 2)),
    ((" -6/4 ",), (-3, 2)),
    (("5",), (5, 1)),
    ((Ratio(),), (-3, 2)),
    ((Fraction(1, 2), 3), (1, 6)),
], ids=["int", "pair", "negative-den", "string", "int-string", "rational-like", "over-int"])
def test_r_still_builds_a_reduced_fraction_from_ints_strings_and_rational_likes(args, expected):
    q = R(*args)
    assert type(q) is Fraction and q.as_integer_ratio() == expected


def test_zero_over_a_nonzero_denominator_is_the_shared_zero():
    assert R(0, 7) is ZERO and R(0, -3) is ZERO and R(ZERO, 5) is ZERO
    for num in (0, 1):
        with pytest.raises(ZeroDivisionError):
            R(num, 0)


def passing_defects(params, xmax) -> list:
    """Every defect the four kernels give on one bundle whose identities hold."""
    lattice = family_lattice(params, xmax=xmax)
    stencils = [operator_matrix(spec, lattice) for spec in specs_of(params)]
    degrees = enumerate_degrees(params.n, 2)
    tables = eigenpoly_tables(degrees, params, lattice)
    w = weight_table(params, xmax=xmax)
    defects = [*commutator_defects(stencils), *(adjointness_defect(H, w) for H in stencils)]
    for H in stencils:
        defects += residual_defects(
            H, tables, [eigenvalue(params, H.op.kind, H.op.index, m) for m in degrees])
    return defects + [V._worst([0, 0, 0], 12), V._worst([], 12)]


@pytest.mark.parametrize("params, xmax", CASES, ids=IDS)
def test_a_passing_kernel_returns_the_shared_zero(params, xmax):
    defects = passing_defects(params, xmax)
    assert len(defects) > 20 and all(d is ZERO for d in defects)
    assert {rational_str(d) for d in defects} == {"0"}
    assert V._exact(defects) == (V.PASS, ZERO, "")
    assert V._exact(defects)[1] is ZERO


def test_every_zero_defect_of_a_passing_suite_is_the_shared_zero():
    reports = V.run_suite(CASES[0][0], m_max=2)
    zeros = [r for r in reports if r.max_defect is not None and r.max_defect == 0]
    assert not any(r.status == "fail" for r in reports) and len(zeros) > 30
    assert all(r.max_defect is ZERO for r in zeros)


def reduced(q) -> tuple:
    """(numerator, denominator) of a Fraction in lowest terms."""
    assert type(q) is Fraction and math.gcd(q.numerator, q.denominator) == 1
    return q.as_integer_ratio()


@pytest.mark.parametrize("params, xmax", [
    (HahnParams((R(1), R(2)), R(3), 4), None), CASES[2]], ids=["hahn", "meixner-box"])
def test_a_nonzero_defect_is_the_same_reduced_rational(monkeypatch, params, xmax):
    """Under ``perturb_birth_rate`` every kernel FAILs with the rational the
    per-row and dense oracles form."""
    perturb_birth_rate(monkeypatch, params)
    lattice = family_lattice(params, xmax=xmax)
    specs = specs_of(params)
    stencils = [operator_matrix(spec, lattice) for spec in specs]
    w = weight_table(params, xmax=xmax)
    pairs = [(s1, s2) for k, s1 in enumerate(specs) for s2 in specs[k + 1:]]
    commutators = commutator_defects(stencils)
    assert [reduced(d) for d in commutators if d] == [
        reduced(dense_commutator_defect(s1, s2, lattice))
        for (s1, s2), d in zip(pairs, commutators) if d]
    assert any(commutators)
    total = stencils[0]
    assert reduced(adjointness_defect(total, w)) == reduced(dense_adjointness_defect(specs[0], w))
    degrees = enumerate_degrees(params.n, 2)[1:]
    tables = eigenpoly_tables(degrees, params, lattice)
    eigs = [eigenvalue(params, "total", None, m) for m in degrees]
    assert [reduced(d) for d in residual_defects(total, tables, eigs)] == [
        reduced(oracle_residual_defect(total, t, e)) for t, e in zip(tables, eigs)]
    assert reduced(V._worst([4, -10, 0], 6)) == (5, 3)


@pytest.mark.parametrize("params, xmax", CASES, ids=IDS)
def test_gram_matrix_matches_the_per_entry_oracle(params, xmax):
    """Each entry is R(sum f g w, df dg dw) over the integer forms; a zero
    entry is the shared ZERO, and the bounded families have some."""
    w = weight_table(params, xmax=xmax)
    tables = eigenpoly_tables(enumerate_degrees(params.n, 2), params, w.lattice)
    wn, dw = w.integer_form()
    forms = [table.integer_form() for table in tables]
    G = gram_matrix(tables, w)
    assert G == [[R(sum(f * g * c for f, g, c in zip(fn, gn, wn)), df * dg * dw)
                  for gn, dg in forms] for fn, df in forms]
    entries = [v for row in G for v in row]
    assert all(type(v) is Fraction for v in entries)
    assert all(v is ZERO for v in entries if v == 0)
    assert params.N is None or ZERO in entries
