"""Exact-arithmetic toolkit for p-adic binomial combinatorics, compact-
induction Hecke operators, level-1 modular form slopes, and supersingularity
measures.  Everything is exact and nothing is a float: integral quantities
(q-expansions, Hecke matrices, characteristic polynomials) are ints, and
Fractions appear only where a quantity is rational (slopes, masses, Lambda)."""

from .combinatorics import (
    build_interior_annihilator,
    factor_and_rank_checks,
    matrix_entries_check,
    solve_interior_system,
    vartheta,
    verify_vanishing_double_sum,
)
from .lemma_checks import integrality_checks, verify_lemma
from .measures import (
    mass_in_middle,
    is_regular,
    middle_mass_profile,
    supersingularity_measure,
    support_bound,
)
from .modforms import delta, dim_cusp, eisenstein, hecke_matrix, miller_basis, slopes
from .padic import (
    INFINITY,
    ExtendedValuation,
    NewtonPolygon,
    binomial_valuation,
    factorial_valuation,
    integer_log,
    newton_polygon,
    teichmuller_lift,
    valuation,
)
from .symhecke import (
    FormalSum,
    SurrogateParams,
    SymPoly,
    act,
    h_polys,
    hecke_T,
    verify_T_expansion,
)

__all__ = [
    "INFINITY",
    "ExtendedValuation",
    "FormalSum",
    "NewtonPolygon",
    "SurrogateParams",
    "SymPoly",
    "act",
    "binomial_valuation",
    "build_interior_annihilator",
    "delta",
    "dim_cusp",
    "eisenstein",
    "factor_and_rank_checks",
    "factorial_valuation",
    "h_polys",
    "hecke_T",
    "hecke_matrix",
    "integer_log",
    "integrality_checks",
    "is_regular",
    "mass_in_middle",
    "matrix_entries_check",
    "middle_mass_profile",
    "miller_basis",
    "newton_polygon",
    "slopes",
    "solve_interior_system",
    "supersingularity_measure",
    "support_bound",
    "teichmuller_lift",
    "valuation",
    "vartheta",
    "verify_T_expansion",
    "verify_vanishing_double_sum",
    "verify_lemma",
]

__version__ = "0.1.0"
