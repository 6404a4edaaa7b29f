"""The triangular Lambda route, kept as an independent oracle.

Production computes Lambda tables by integer forward differences
(``combinatorics.lambda_raw_table``).  This module solves the same defining
identity the other way, by matching coefficients of Fraction polynomials,
and evaluates its residual coefficient-wise; the tests compare the routes.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from padicslopes.combinatorics import (
    _pmul_linear,
    _pscale,
    _ptrim,
    _require_prime_gt3,
    binomial_basis_polys,
)


def _padd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    return _ptrim([
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    ])


def _pzero(a: list[Fraction]) -> bool:
    return all(c == 0 for c in a)


def _target_poly(R: int) -> list[Fraction]:
    """C(R - X, R) = (R-X)(R-1-X)...(1-X) / R! as a polynomial in X."""
    poly = [Fraction(1)]
    for v in range(1, R + 1):
        poly = _pmul_linear(poly, Fraction(v), Fraction(-1))
    return _pscale(poly, Fraction(1, math.factorial(R)))


@dataclass(frozen=True)
class LambdaTable:
    """Coefficients Lambda_R(alpha, beta), beta in [alpha-R, alpha], defined by
    sum_beta Lambda_R(alpha, beta) C((p-1)X + alpha, alpha - beta) = C(R - X, R)."""

    p: int
    R: int
    alpha: int
    values: dict[int, Fraction]

    def __getitem__(self, beta: int) -> Fraction:
        return self.values[beta]


def lambda_coefficients(p: int, R: int, alpha: int) -> LambdaTable:
    """Solve the defining identity by matching coefficients of X^0..X^R.

    The system is triangular: the basis element of index m has degree
    exactly m with leading coefficient (p-1)^m / m!, never zero.
    """
    _require_prime_gt3(p)
    if R < 0 or alpha < R:
        raise ValueError(f"need 0 <= R <= alpha, got R={R}, alpha={alpha}")
    basis = binomial_basis_polys(p, alpha, R)
    residual = list(_target_poly(R))
    residual += [Fraction(0)] * (R + 1 - len(residual))
    values: dict[int, Fraction] = {}
    for m in range(R, -1, -1):
        lead = Fraction((p - 1) ** m, math.factorial(m))
        c = residual[m] / lead
        values[alpha - m] = c
        if c != 0:
            bm = basis[m]
            for u in range(len(bm)):
                residual[u] -= c * bm[u]
    if not _pzero(residual):
        raise AssertionError("triangular solve left a nonzero residual (bug)")
    return LambdaTable(p=p, R=R, alpha=alpha, values=values)


def lambda_defining_residual(table: LambdaTable) -> list[Fraction]:
    """The defining-identity residual of a Lambda table; zero iff valid."""
    basis = binomial_basis_polys(table.p, table.alpha, table.R)
    acc: list[Fraction] = [Fraction(0)]
    for beta, lam in table.values.items():
        if lam != 0:
            acc = _padd(acc, _pscale(basis[table.alpha - beta], lam))
    return _ptrim(_padd(acc, _pscale(_target_poly(table.R), Fraction(-1))))
