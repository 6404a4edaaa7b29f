"""Fraction routes kept as independent oracles.

Production computes Lambda tables by integer forward differences
(``combinatorics.lambda_raw_table``).  This module solves the same defining
identity the other way, by matching coefficients of Fraction polynomials,
and evaluates its residual coefficient-wise; the tests compare the routes.
The dense Fraction polynomials (lowest degree first) live only here.

Production evaluates the annihilator path (row sums, the interior solve,
vartheta) in integers over one common denominator per cell.  The
term-by-term Fraction formulas for the same quantities are kept at the end
of this module, and the tests compare the two.

Production builds every binomial row and table by one exact ratio
recurrence (``combinatorics._binomial_row``).  The per-entry routes are kept
here: ``comb0``, one math.comb call per entry, and ``generalized_binomial``,
the falling factorial for negative and rational tops.

Production proves that every carry matrix has full rank mod p (see
``combinatorics.factor_and_rank_checks``) and checks it nowhere; the gate
checks it once per key with ``rank_mod_p``, Gaussian elimination mod p.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from padicslopes.combinatorics import (
    _forward_differences,
    ecal_of,
    interior_row_indices,
    rho_of,
)
from padicslopes.padic import _check_prime_gt3


def comb0(n: int, k: int) -> int:
    """C(n, k) for n >= 0 with the usual convention 0 outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def generalized_binomial(top: int | Fraction, w: int) -> Fraction:
    """C(top, w) by the falling factorial; top may be negative or rational.

    Satisfies the negation identity C(-m, w) = (-1)^w C(m+w-1, w).
    """
    if w < 0:
        raise ValueError("w must be nonnegative")
    if isinstance(top, int) and top >= 0:
        return Fraction(math.comb(top, w))
    num = 1
    den = 1
    if isinstance(top, Fraction):
        a, b = top.numerator, top.denominator
        for u in range(w):
            num *= a - u * b
            den *= b
    else:
        for u in range(w):
            num *= top - u
    return Fraction(num, den * math.factorial(w))


def _ptrim(c: list[Fraction]) -> list[Fraction]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _pscale(a: list[Fraction], s: Fraction) -> list[Fraction]:
    return _ptrim([c * s for c in a])


def _pmul_linear(a: list[Fraction], c0: Fraction, c1: Fraction) -> list[Fraction]:
    """a(X) * (c0 + c1 X)."""
    out = [Fraction(0)] * (len(a) + 1)
    for i, c in enumerate(a):
        out[i] += c * c0
        out[i + 1] += c * c1
    return _ptrim(out)


def _binomial_basis_polys(p: int, alpha: int, m_max: int) -> list[list[Fraction]]:
    """The polynomials C((p-1)X + alpha, m) for m = 0..m_max, built from one
    running product."""
    out = []
    prod = [Fraction(1)]
    fact = 1
    for m in range(m_max + 1):
        if m:
            prod = _pmul_linear(prod, Fraction(alpha - m + 1), Fraction(p - 1))
            fact *= m
        out.append(_pscale(prod, Fraction(1, fact)))
    return out


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
    _check_prime_gt3(p)
    if R < 0 or alpha < R:
        raise ValueError(f"need 0 <= R <= alpha, got R={R}, alpha={alpha}")
    basis = _binomial_basis_polys(p, alpha, R)
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
    basis = _binomial_basis_polys(table.p, table.alpha, table.R)
    acc: list[Fraction] = [Fraction(0)]
    for beta, lam in table.values.items():
        if lam != 0:
            acc = _padd(acc, _pscale(basis[table.alpha - beta], lam))
    return _ptrim(_padd(acc, _pscale(_target_poly(table.R), Fraction(-1))))


# ---------------------------------------------------------------------------
# the annihilator path, one Fraction term at a time
# ---------------------------------------------------------------------------


def row_sum(p: int, r: int, alpha: int, cols: dict[int, Fraction], i: int) -> Fraction:
    """sum_l C_l C(r-alpha+l, i(p-1)+l): row i of the cell's binomial system
    applied to the column constants cols = {l: C_l}."""
    return sum((c * comb0(r - alpha + l, i * (p - 1) + l) for l, c in cols.items()), Fraction(0))


def vartheta(D: dict[int, Fraction], w: int, p: int) -> Fraction:
    """sum_i D_i C(i(p-1), w) with the generalized binomial for negative i."""
    acc = Fraction(0)
    for i, d in D.items():
        if d != 0:
            acc += Fraction(d) * generalized_binomial(i * (p - 1), w)
    return acc


def theta_expansion_errors(key: tuple[int, int, int, int], D: dict[int, int]) -> list[int]:
    """The w <= alpha at which vartheta_w(D) is not what the reduction
    argument reads off p^E theta^alpha times a monomial: 0 for w < alpha and
    p^E (1-p)^alpha at w = alpha, for the key (p, alpha, E, offset) of D.
    combinatorics._theta_monomial_targets proves both for every key; this
    checks that D is that expansion."""
    p, alpha, ecal, _ = key
    at_alpha = p**ecal * (1 - p) ** alpha
    return [w for w in range(alpha + 1) if vartheta(D, w, p) != (at_alpha if w == alpha else 0)]


def interior_solution(p: int, r: int, alpha: int, targets: dict[int, Fraction]) -> dict[int, Fraction]:
    """Constants C_l with row sums equal to targets[i] on every interior row:
    forward differences of y_i = targets[i] / C(r, n_i) and Fraction
    back-substitution against the differences of C(n_i, m)."""
    rows = interior_row_indices(p, r, alpha)
    ns = [i * (p - 1) + alpha for i in rows]
    dy = _forward_differences([Fraction(targets.get(i, 0)) / comb0(r, n) for i, n in zip(rows, ns)])
    table = [_forward_differences([comb0(n, m) for n in ns[: m + 1]]) for m in range(len(rows))]
    cprime: dict[int, Fraction] = {}
    for k in range(len(rows) - 1, -1, -1):
        rest = sum(table[m][k] * c for m, c in cprime.items())
        cprime[k] = (dy[k] - rest) / (p - 1) ** k
    return {alpha - m: c * comb0(r, m) for m, c in cprime.items()}


def annihilator(p: int, r: int, alpha: int) -> tuple[dict, dict]:
    """(column_constants, row_values) of the cell's annihilator: offset 1
    below rho, offset 0 in the rho case."""
    ecal = ecal_of(p, r)
    offset = 1 if alpha < rho_of(p, r) else 0
    targets = {m + offset: Fraction(p**ecal) * (-1) ** m * math.comb(alpha, m) for m in range(alpha + 1)}
    interior = set(interior_row_indices(p, r, alpha))
    cols = interior_solution(p, r, alpha, {i: t for i, t in targets.items() if i in interior})
    for l in range(alpha - rho_of(p, r), alpha - len(interior) + 1):
        cols.setdefault(l, Fraction(0))
    return cols, targets


# ---------------------------------------------------------------------------
# the binomial rows of a cell, one math.comb call per entry
# ---------------------------------------------------------------------------


def matrix_M_entries(p: int, r: int, alpha: int) -> tuple[tuple[int, ...], ...]:
    """The entries C(r-alpha+j, i(p-1)+j) of the cell's matrix M, over its
    interior rows i and columns j in [alpha - rho, alpha]."""
    rho = rho_of(p, r)
    cols = range(alpha - rho, alpha + 1)
    return tuple(
        tuple(comb0(r - alpha + j, i * (p - 1) + j) for j in cols) for i in interior_row_indices(p, r, alpha)
    )


def diagonal_row(p: int, r: int, n: int) -> tuple[int, ...]:
    """Row n of the (p, r) diagonal table: C(r-rho+t, n-rho+t) for t = 0..rho."""
    rho = rho_of(p, r)
    return tuple(comb0(r - rho + t, n - rho + t) for t in range(rho + 1))


def carry_matrix(p: int, R: int, gamma: int) -> list[list[int]]:
    """The R x R matrix (C(i(p-1)+gamma, j)) for i, j < R."""
    return [[math.comb(i * (p - 1) + gamma, j) for j in range(R)] for i in range(R)]


def rank_mod_p(mat: list[list[int]], p: int) -> int:
    """Rank over F_p of an integer matrix, by forward Gaussian elimination
    mod p: only the rows below each pivot are reduced, since only the rank is
    read.  Gate criterion 3 reads it on every carry matrix of its grid, whose
    full rank combinatorics.factor_and_rank_checks proves."""
    rows = [[x % p for x in row] for row in mat]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def row_sum_numerators(p: int, r: int, alpha: int, nums: dict[int, int], rows) -> list[int]:
    """[sum_l N_l C(r-alpha+l, i(p-1)+l) for i in rows], a column with
    r-alpha+l < 0 being zero on every row."""
    return [
        sum(n * comb0(r - alpha + l, i * (p - 1) + l) for l, n in nums.items() if r - alpha + l >= 0)
        for i in rows
    ]
