"""Schoolbook routes for q-expansions, kept as independent oracles.

Production (``padicslopes.modforms``) multiplies two series by one integer
multiplication (Kronecker substitution), builds Delta from Jacobi's identity
and the Miller basis from one E_4^3 ladder.  This module keeps the routes
they replaced: the coefficient-by-coefficient double loop, the eta-product
loop raised to the 24th power, and the per-row Delta^i E_4^a E_6^b basis.
The tests compare the routes.
"""

from padicslopes.modforms import QExpansion, delta, dim_cusp, eisenstein


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
    return QExpansion(12, power.shift(1).coeffs, prec)


def miller_basis_by_rows(k: int, prec: int) -> list[QExpansion]:
    """The Miller basis with each row Delta^i E_4^a E_6^b built on its own,
    then echelonized."""
    d = dim_cusp(k)
    e4, e6, dl = eisenstein(4, prec), eisenstein(6, prec), delta(prec)
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
