"""Small exact linear-algebra helpers: integer determinants, characteristic
polynomials and products, ranks mod p.  No floating point anywhere."""

from __future__ import annotations

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


def charpoly(mat: Sequence[Sequence[int]]) -> list[int]:
    """det(xI - A) of a square integer matrix, lowest degree first.

    Berkowitz's algorithm: the coefficients of the leading (k+1) x (k+1)
    block are a lower-triangular Toeplitz matrix times those of the k x k
    block, with first column 1, -a_kk and -R A_k^j C for the new row R and
    column C.  Only ring operations on integers occur, so nothing is divided.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    poly = [1]  # highest degree first
    for k in range(n):
        row = mat[k][:k]
        col = [mat[i][k] for i in range(k)]
        toeplitz = [1, -mat[k][k]]
        for _ in range(k):
            toeplitz.append(-sum(a * b for a, b in zip(row, col)))
            col = [sum(a * b for a, b in zip(mat[i], col)) for i in range(k)]
        poly = [sum(toeplitz[i - j] * c for j, c in enumerate(poly[: i + 1])) for i in range(k + 2)]
    return poly[::-1]
