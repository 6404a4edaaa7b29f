"""Exact-arithmetic toolkit for p-adic binomial combinatorics, compact-
induction Hecke operators, level-1 modular form slopes, and supersingularity
measures.  Everything is computed over int/Fraction; no floating point."""

from .combinatorics import (
    build_interior_annihilator,
    build_matrix_M,
    c_constants,
    factor_and_rank_checks,
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
    generalized_binomial,
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
    coset_canonicalize,
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
    "build_matrix_M",
    "c_constants",
    "coset_canonicalize",
    "delta",
    "dim_cusp",
    "eisenstein",
    "factor_and_rank_checks",
    "factorial_valuation",
    "generalized_binomial",
    "h_polys",
    "hecke_T",
    "hecke_matrix",
    "integer_log",
    "integrality_checks",
    "is_regular",
    "mass_in_middle",
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
