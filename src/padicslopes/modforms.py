"""Level-1 modular forms via exact q-expansions.

Eisenstein series and the discriminant cusp form generate everything needed;
the echelonized monomial basis of the cusp space gives integral Hecke
matrices whose characteristic polynomials feed the Newton-polygon slope
extraction.  Coefficients are exact (int or Fraction) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactlinalg import charpoly
from .padic import INFINITY, ExtendedValuation, is_prime, newton_polygon


class QExpansion:
    """Truncated q-series sum a_n q^n, n < prec, with exact coefficients."""

    __slots__ = ("weight", "coeffs", "prec")

    def __init__(self, weight: int, coeffs, prec: int | None = None):
        coeffs = list(coeffs)
        if prec is None:
            prec = len(coeffs)
        if len(coeffs) < prec:
            coeffs += [0] * (prec - len(coeffs))
        self.weight = weight
        self.coeffs = coeffs[:prec]
        self.prec = prec

    def a(self, n: int):
        if not 0 <= n < self.prec:
            raise IndexError(f"coefficient a_{n} beyond precision {self.prec}")
        return self.coeffs[n]

    def __add__(self, other: "QExpansion") -> "QExpansion":
        if self.weight != other.weight:
            raise ValueError("cannot add forms of different weights")
        prec = min(self.prec, other.prec)
        return QExpansion(self.weight, [self.coeffs[n] + other.coeffs[n] for n in range(prec)], prec)

    def __sub__(self, other: "QExpansion") -> "QExpansion":
        return self + other.scale(-1)

    def scale(self, s) -> "QExpansion":
        return QExpansion(self.weight, [c * s for c in self.coeffs], self.prec)

    def __mul__(self, other: "QExpansion") -> "QExpansion":
        prec = min(self.prec, other.prec)
        out = [0] * prec
        for i, ci in enumerate(self.coeffs[:prec]):
            if ci == 0:
                continue
            for j in range(prec - i):
                cj = other.coeffs[j]
                if cj:
                    out[i + j] += ci * cj
        return QExpansion(self.weight + other.weight, out, prec)

    def pow(self, e: int) -> "QExpansion":
        result = QExpansion(0, [1] + [0] * (self.prec - 1), self.prec)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def shift(self, n: int) -> "QExpansion":
        """Multiply by q^n (weight unchanged: bookkeeping helper)."""
        return QExpansion(self.weight, [0] * n + self.coeffs[: self.prec - n], self.prec)

    def truncate(self, prec: int) -> "QExpansion":
        return QExpansion(self.weight, self.coeffs[:prec], min(prec, self.prec))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QExpansion)
            and self.weight == other.weight
            and self.prec == other.prec
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return f"QExpansion(weight={self.weight}, prec={self.prec}, [{head}, ...])"


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n by the standard recurrence (B_1 = -1/2 convention)."""
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def _sigma_table(k: int, prec: int) -> list[int]:
    """sigma_k(n) for n < prec via the divisor sieve."""
    out = [0] * prec
    for d in range(1, prec):
        dk = d**k
        for m in range(d, prec, d):
            out[m] += dk
    return out


def eisenstein(k: int, prec: int) -> QExpansion:
    """Normalized E_k = 1 - (2k/B_k) sum sigma_(k-1)(n) q^n, exact."""
    if k % 2 or k < 4:
        raise ValueError("k must be even and >= 4")
    factor = Fraction(-2 * k) / bernoulli(k)
    sig = _sigma_table(k - 1, prec)
    coeffs = [Fraction(1)] + [factor * sig[n] for n in range(1, prec)]
    if all(c.denominator == 1 for c in coeffs):
        coeffs = [int(c) for c in coeffs]
    return QExpansion(k, coeffs, prec)


def delta(prec: int) -> QExpansion:
    """The discriminant form q prod (1-q^n)^24, weight 12, integral."""
    if prec < 2:
        raise ValueError("prec must be >= 2")
    eta = [0] * prec
    eta[0] = 1
    for n in range(1, prec):
        # multiply by (1 - q^n)
        for m in range(prec - 1, n - 1, -1):
            eta[m] -= eta[m - n]
    f = QExpansion(0, eta, prec)
    d = f.pow(24).shift(1)
    return QExpansion(12, d.coeffs, prec)


def dim_cusp(k: int, level: int = 1) -> int:
    """dim S_k: level 1 by the floor(k/12) rule; level a prime p by the
    genus/elliptic-point/cusp formula for the index-(p+1) subgroup."""
    if k % 2:
        raise ValueError("k must be even")
    if k < 0:
        return 0
    if level == 1:
        if k < 12:
            return 0
        return k // 12 - 1 if k % 12 == 2 else k // 12
    p = level
    if not is_prime(p):
        raise ValueError("level must be 1 or a prime")
    mu = p + 1
    eps2 = 1 if p == 2 else (2 if p % 4 == 1 else 0)
    eps3 = 1 if p == 3 else (2 if p % 3 == 1 else 0)
    eps_inf = 2
    g = Fraction(1) + Fraction(mu, 12) - Fraction(eps2, 4) - Fraction(eps3, 3) - Fraction(eps_inf, 2)
    if g.denominator != 1:
        raise AssertionError("genus formula returned a non-integer (bug)")
    g = int(g)
    if k == 2:
        return g
    if k < 2:
        return 0
    d = (k - 1) * (g - 1) + (k // 4) * eps2 + (k // 3) * eps3 + (k // 2 - 1) * eps_inf
    return max(d, 0)


def miller_basis(k: int, prec: int) -> list[QExpansion]:
    """Echelon basis f_1..f_d of the level-1 weight-k cusp space:
    f_i = q^i + O(q^(d+1)), integral, built from Delta^i E_4^a E_6^b."""
    if k % 2 or k < 12:
        raise ValueError("k must be even and >= 12")
    d = dim_cusp(k)
    if d == 0:
        return []
    if prec < d + 1:
        raise ValueError(f"prec {prec} too small for dimension {d}")
    e4 = eisenstein(4, prec)
    e6 = eisenstein(6, prec)
    dl = delta(prec)
    rows: list[QExpansion] = []
    dpow = QExpansion(0, [1], prec)
    for i in range(1, d + 1):
        dpow = dpow * dl
        w = k - 12 * i
        b = 0 if w % 4 == 0 else 1
        a = (w - 6 * b) // 4
        form = dpow * e4.pow(a)
        if b:
            form = form * e6
        rows.append(QExpansion(k, form.coeffs, prec))
    # echelonize: leading coefficient of rows[i-1] at q^i is already 1
    for i in range(d, 0, -1):
        fi = rows[i - 1]
        assert fi.a(i) == 1
        for j in range(i - 1, 0, -1):
            c = rows[j - 1].a(i)
            if c:
                rows[j - 1] = rows[j - 1] - fi.scale(c)
    return rows


@dataclass(frozen=True)
class HeckeMatrix:
    """Matrix of T_p on the echelon cusp basis: entries[i][j] = a_(j+1)(T_p f_(i+1))."""

    p: int
    k: int
    d: int
    entries: tuple[tuple[int, ...], ...]

    def charpoly(self) -> list[int]:
        """det(xI - A), lowest degree first (Berkowitz, division-free)."""
        return charpoly(self.entries)

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.d))


def hecke_operator(f: QExpansion, p: int) -> QExpansion:
    """T_p on level 1: a_n(T_p f) = a_(pn)(f) + p^(k-1) a_(n/p)(f)."""
    prec = (f.prec - 1) // p + 1
    scale = p ** (f.weight - 1)
    out = []
    for n in range(prec):
        c = f.a(p * n)
        if n % p == 0:
            c += scale * f.a(n // p)
        out.append(c)
    return QExpansion(f.weight, out, prec)


def hecke_matrix(p: int, k: int) -> HeckeMatrix:
    """Integral matrix of T_p on the weight-k Miller basis."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    d = dim_cusp(k)
    if d == 0:
        return HeckeMatrix(p=p, k=k, d=0, entries=())
    prec = p * d + 1
    basis = miller_basis(k, prec)
    entries = []
    for f in basis:
        tf = hecke_operator(f, p)
        entries.append(tuple(tf.a(j) for j in range(1, d + 1)))
    return HeckeMatrix(p=p, k=k, d=d, entries=tuple(entries))


def slopes(p: int, k: int) -> list[ExtendedValuation]:
    """Multiset (ascending list) of p-adic valuations of the T_p eigenvalues
    on the weight-k level-1 cusp space: the Newton polygon slopes of the
    characteristic polynomial, with INFINITY entries for zero eigenvalues."""
    hm = hecke_matrix(p, k)
    if hm.d == 0:
        return []
    cp = hm.charpoly()
    ord0 = next(i for i, c in enumerate(cp) if c)
    out: list[ExtendedValuation] = [INFINITY] * ord0
    if ord0 == hm.d:
        return out
    np = newton_polygon(cp[ord0:], p)
    return sorted(np.slope_list()) + out
