"""Exact-arithmetic multivariate Hahn, Krawtchouk, and Meixner systems.

Evaluation of the eigenpolynomial families, application of the
commuting difference operators on integer lattices, orthogonality
weights, and an exact identity-verification suite.  Every scalar is an
arbitrary-precision rational, a stdlib ``fractions.Fraction`` (see
:mod:`mvortho._backend`).
"""

from ._backend import BACKEND, R
from .core import (
    FamilyParams,
    Lattice,
    LatticeFunction,
    enumerate_degrees,
    enumerate_lattice,
    family_lattice,
    rising_factorial,
)
from .families import FAMILIES, HahnParams, KrawtchoukParams, MeixnerParams
from .measures import (
    WeightTable,
    gram_matrix,
    meixner_tail_mass_bound,
    meixner_weight,
    weight_table,
)
from .operators import (
    OperatorMatrix,
    OperatorSpec,
    adjointness_defect,
    eigenvalue,
    operator_matrix,
)
from .polynomials import (
    eigenpoly,
    eigenpoly_table,
    eigenpoly_tables,
    hahn,
    hahn_pair,
    km_pair,
    krawtchouk,
    meixner,
    pair_backward_table,
)
from .verify import CheckReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "R",
    "CheckReport",
    "FAMILIES",
    "FamilyParams",
    "HahnParams",
    "KrawtchoukParams",
    "Lattice",
    "LatticeFunction",
    "MeixnerParams",
    "OperatorMatrix",
    "OperatorSpec",
    "WeightTable",
    "adjointness_defect",
    "eigenpoly",
    "eigenpoly_table",
    "eigenpoly_tables",
    "eigenvalue",
    "enumerate_degrees",
    "enumerate_lattice",
    "family_lattice",
    "gram_matrix",
    "hahn",
    "hahn_pair",
    "km_pair",
    "krawtchouk",
    "meixner",
    "meixner_tail_mass_bound",
    "meixner_weight",
    "operator_matrix",
    "pair_backward_table",
    "rising_factorial",
    "run_suite",
    "weight_table",
]
