"""Schoolbook routes for q-expansions, kept as independent oracles.

Production (``padicslopes.modforms``) multiplies two series by one integer
multiplication (Kronecker substitution), builds Delta from Jacobi's identity,
E_4 and E_6 from their closed forms, the Miller basis from one chain of
products by J = E_4^3/Delta' = q j, and the genus of X_0(p) in integers.
This module keeps the routes they replaced: the coefficient-by-coefficient
double loop, the eta-product loop raised to the 24th power, the Bernoulli
recurrence and the general-weight E_k, the per-row Delta^i E_4^a E_6^b
basis, and the rational genus formula.  The tests compare the routes.
"""

import math
from fractions import Fraction
from functools import lru_cache

from padicslopes.modforms import QExpansion, delta, dim_cusp


def schoolbook_mul(f: QExpansion, g: QExpansion) -> QExpansion:
    """f g truncated to the smaller precision, one coefficient product at a time."""
    prec = min(f.prec, g.prec)
    out = [0] * prec
    for i, ci in enumerate(f.coeffs[:prec]):
        if ci == 0:
            continue
        for j in range(prec - i):
            cj = g.coeffs[j]
            if cj:
                out[i + j] += ci * cj
    return QExpansion(f.weight + g.weight, out, prec)


def schoolbook_pow(f: QExpansion, e: int) -> QExpansion:
    """f^e by repeated squaring with schoolbook products."""
    result = QExpansion(0, [1], f.prec)
    while e:
        if e & 1:
            result = schoolbook_mul(result, f)
        f = schoolbook_mul(f, f)
        e >>= 1
    return result


def delta_by_eta(prec: int) -> QExpansion:
    """q prod_(n >= 1) (1 - q^n)^24: the product expanded one factor at a time."""
    eta = [0] * prec
    eta[0] = 1
    for n in range(1, prec):
        for m in range(prec - 1, n - 1, -1):
            eta[m] -= eta[m - n]
    power = schoolbook_pow(QExpansion(0, eta, prec), 24)
    return QExpansion(12, [0] + power.coeffs[: prec - 1], prec)


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n by the standard recurrence (B_1 = -1/2 convention)."""
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def eisenstein_by_bernoulli(k: int, prec: int) -> QExpansion:
    """Normalized E_k = 1 - (2k/B_k) sum sigma_(k-1)(n) q^n for even k >= 4,
    with int coefficients where they are integral (k = 4, 6) and Fraction
    coefficients otherwise."""
    factor = Fraction(-2 * k) / bernoulli(k)
    coeffs = [Fraction(1)]
    for n in range(1, prec):
        coeffs.append(factor * sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0))
    if all(c.denominator == 1 for c in coeffs):
        coeffs = [int(c) for c in coeffs]
    return QExpansion(k, coeffs, prec)


def genus_gamma0_rational(p: int) -> Fraction:
    """g(X_0(p)) = 1 + mu/12 - eps2/4 - eps3/3 - eps_inf/2 over the rationals."""
    eps2 = 1 if p == 2 else (2 if p % 4 == 1 else 0)
    eps3 = 1 if p == 3 else (2 if p % 3 == 1 else 0)
    mu, eps_inf = p + 1, 2
    return Fraction(1) + Fraction(mu, 12) - Fraction(eps2, 4) - Fraction(eps3, 3) - Fraction(eps_inf, 2)


def miller_basis_by_rows(k: int, prec: int) -> list[QExpansion]:
    """The Miller basis with each row Delta^i E_4^a E_6^b built on its own from
    the Bernoulli-route E_4 and E_6, then echelonized."""
    d = dim_cusp(k)
    e4, e6, dl = eisenstein_by_bernoulli(4, prec), eisenstein_by_bernoulli(6, prec), delta(prec)
    rows = []
    dpow = QExpansion(0, [1], prec)
    for i in range(1, d + 1):
        dpow = dpow * dl
        w = k - 12 * i
        b = 0 if w % 4 == 0 else 1
        form = dpow * e4.pow((w - 6 * b) // 4)
        if b:
            form = form * e6
        rows.append(QExpansion(k, form.coeffs, prec))
    for i in range(d, 0, -1):
        fi = rows[i - 1]
        assert fi.a(i) == 1
        for j in range(i - 1, 0, -1):
            rows[j - 1] = rows[j - 1] - fi.scale(rows[j - 1].a(i))
    return rows
