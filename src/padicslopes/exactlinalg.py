"""Small exact linear-algebra helpers: integer determinants, ranks mod p,
Lagrange interpolation over the rationals.  No floating point anywhere."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def bareiss_det(mat: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination.

    Bareiss's algorithm: every division is exact in Z.
    """
    n = len(mat)
    if n == 0:
        return 1
    a = [list(row) for row in mat]
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for s in range(k + 1, n):
                if a[s][k] != 0:
                    a[k], a[s] = a[s], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank_mod_p(mat: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p of an integer matrix, by Gaussian elimination mod p."""
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
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def mat_mul_int(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Product of integer matrices."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def lagrange_interpolate(points: Sequence[tuple[int, Fraction]]) -> list[Fraction]:
    """Coefficients (lowest degree first) of the unique polynomial of degree
    < len(points) through the given points with distinct integer abscissae."""
    n = len(points)
    coeffs = [Fraction(0)] * max(n, 1)
    for s, (xs, ys) in enumerate(points):
        # numerator polynomial prod_{t != s} (X - x_t), built incrementally
        basis = [Fraction(1)]
        denom = Fraction(1)
        for t, (xt, _) in enumerate(points):
            if t == s:
                continue
            denom *= xs - xt
            basis = [Fraction(0)] + basis
            for u in range(len(basis) - 1):
                basis[u] -= xt * basis[u + 1]
        w = ys / denom
        for u in range(len(basis)):
            coeffs[u] += w * basis[u]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs
