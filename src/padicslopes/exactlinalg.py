"""Small exact linear-algebra helpers for integer matrices: characteristic
polynomials (whose constant term gives the determinant) and products.  No
floating point anywhere."""

from __future__ import annotations

from typing import Sequence


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
