"""Level-1 modular forms via exact q-expansions.

Eisenstein series and the discriminant cusp form generate everything needed;
the echelonized monomial basis of the cusp space gives integral Hecke
matrices whose characteristic polynomials feed the Newton-polygon slope
extraction.  Every coefficient is an int: E_4, E_6, Delta, 1/Delta' (with
Delta' = Delta/q) and J = E_4^3/Delta' = q j are integral, and so is every
product of them.

Every product of two series is one integer multiplication (Kronecker
substitution): the coefficients are packed into fixed-width slots of one
int each, multiplied, and read back slot by slot.  A slot is as wide as
the top kept anti-diagonal needs (``_kronecker_product`` proves that no
lower one needs more), so no coefficient of the product overflows and the
result is exact.  The schoolbook double loop is kept in the tests as the
oracle.

The Miller basis rows g_i = Delta^i E_4^a_i E_6^b = q^i h_i come from one
chain h_i = h_(i+1) J, about d products for dimension d.  Every weight sweep
(``slope_table``) groups its weights by dimension once and builds J,
Delta'^d, E_4 and E_6 once per (p, d) task, shared among the weights of that
dimension; nothing is cached between calls.  The echelon basis is U^-1 g
with U = (a_j(g_i)) unitriangular, and the Hecke matrix on it is U^-1 M with
M = (a_j(T_p g_i)), 1 <= i, j <= d: one back substitution on d x d integers
(``_unitriangular_solve``), so no full row is reduced for a Hecke matrix.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .exactlinalg import charpoly
from .padic import INFINITY, ExtendedValuation, _check_prime, is_prime, newton_polygon


class QExpansion:
    """Truncated q-series sum a_n q^n, n < prec, with integer coefficients."""

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
        if self.weight != other.weight:
            raise ValueError("cannot subtract forms of different weights")
        prec = min(self.prec, other.prec)
        return QExpansion(self.weight, [a - b for a, b in zip(self.coeffs, other.coeffs)], prec)

    def scale(self, s) -> "QExpansion":
        return QExpansion(self.weight, [c * s for c in self.coeffs], self.prec)

    def __mul__(self, other: "QExpansion") -> "QExpansion":
        prec = min(self.prec, other.prec)
        out = _kronecker_product(self.coeffs, other.coeffs, prec)
        return QExpansion(self.weight + other.weight, out, prec)

    def pow(self, e: int) -> "QExpansion":
        if e < 0:
            raise ValueError(f"need an exponent e >= 0, got {e}")
        if e == 0:
            return QExpansion(0, [1], self.prec)
        result = None
        base = self
        while e:
            if e & 1:
                result = base if result is None else result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

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


def _pack(coeffs: list[int], width: int) -> int:
    """sum c_i 2^(8 width i): the positive and the negative parts are packed
    as unsigned slots by one bytes join each, and subtracted."""
    zero = bytes(width)
    pos = b"".join(c.to_bytes(width, "little") if c > 0 else zero for c in coeffs)
    neg = b"".join((-c).to_bytes(width, "little") if c < 0 else zero for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kronecker_product(a: list[int], b: list[int], n: int) -> list[int]:
    """The first n coefficients of the product of the integer series a and b.

    Slot width: only a_i, b_j with i, j < n reach a kept slot, so a and b are
    cut to n terms, and the top kept slot is top = min(n, len a + len b - 1)
    - 1.  Let A_i and B_j be the running maxima of the bit lengths of a and
    b.  Each term of c_m = sum_(i+j=m) a_i b_j is below 2^(A_i + B_j) in
    absolute value, and there are at most min(len a, len b) terms, so |c_m| <
    min(len a, len b) 2^S_m with S_m = max_(i+j=m) A_i + B_j.  A and B are
    nondecreasing, so S_m is too (a pair (i, j) on one anti-diagonal moves to
    a pair (i', j') >= (i, j) on any later one), and S_top bounds every kept
    slot; the top anti-diagonal also holds the last terms of a and b, so
    every a_i and b_j fits a slot.  One more bit holds the sign.

    Reading: slot j of the product's low n slots, read unsigned, is c_j
    minus the borrow of the slots below it (1 exactly when their sum is
    negative); adding the borrow back and reading the slot as signed gives
    c_j.  Slots above n may overflow; they are cut off before reading.
    """
    if n == 0:
        return []
    a, b = a[:n], b[:n]
    top = min(n, len(a) + len(b) - 1) - 1
    lo, hi = max(0, top - len(b) + 1), min(len(a) - 1, top)
    a_bits = list(itertools.accumulate(map(int.bit_length, map(abs, a)), max))
    b_bits = list(itertools.accumulate(map(int.bit_length, map(abs, b)), max))
    peak = max(map(operator.add, a_bits[lo : hi + 1], reversed(b_bits[top - hi : top - lo + 1])))
    width = (peak + min(len(a), len(b)).bit_length() + 8) // 8
    size = width * n
    raw = ((_pack(a, width) * _pack(b, width)) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    half = 1 << (8 * width - 1)
    base = half << 1
    out = []
    borrow = 0
    for i in range(0, size, width):
        v = int.from_bytes(raw[i : i + width], "little") + borrow
        borrow = v >= half
        out.append(v - base if borrow else v)
    return out


def _sigma_table(k: int, prec: int) -> list[int]:
    """sigma_k(n) for n < prec via the divisor sieve."""
    out = [0] * prec
    for d in range(1, prec):
        dk = d**k
        for m in range(d, prec, d):
            out[m] += dk
    return out


def eisenstein(k: int, prec: int) -> QExpansion:
    """E_4 = 1 + 240 sum sigma_3(n) q^n or E_6 = 1 - 504 sum sigma_5(n) q^n,
    the two weights the Miller basis is built from."""
    if k not in (4, 6):
        raise ValueError(f"only E_4 and E_6 are provided, got k={k}")
    factor = 240 if k == 4 else -504
    return QExpansion(k, [1] + [factor * s for s in _sigma_table(k - 1, prec)[1:]], prec)


def _delta_prime(n: int, inverse: bool = False) -> QExpansion:
    """Delta' = Delta/q = prod (1-q^m)^24 mod q^n, or 1/Delta' when ``inverse``.

    Jacobi's identity prod (1-q^m)^3 = sum_t (-1)^t (2t+1) q^(t(t+1)/2) has
    one term per triangular number below n.  Its inverse u follows from the
    same terms: u_0 = 1 and u_m = -sum_(t >= 1) (-1)^t (2t+1) u_(m - t(t+1)/2),
    about sqrt(2m) terms per coefficient.  Three squarings raise either
    series to the 8th power."""
    terms = []  # the terms with t >= 1; both series start 1 + ...
    t = 1
    while t * (t + 1) // 2 < n:
        terms.append((t * (t + 1) // 2, (-1) ** t * (2 * t + 1)))
        t += 1
    f = [1] + [0] * (n - 1)
    if inverse:
        for m in range(1, n):
            acc = 0
            for e, c in terms:
                if e > m:
                    break
                acc -= c * f[m - e]
            f[m] = acc
    else:
        for e, c in terms:
            f[e] = c
    for _ in range(3):
        f = _kronecker_product(f, f, n)
    return QExpansion(-12 if inverse else 12, f, n)


def delta(prec: int) -> QExpansion:
    """The discriminant form Delta = q Delta', weight 12, integral."""
    if prec < 2:
        raise ValueError("prec must be >= 2")
    return QExpansion(12, [0] + _delta_prime(prec - 1).coeffs, prec)


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
    # 12(g - 1) = mu - 3 eps2 - 4 eps3 - 6 eps_inf
    g_minus_1, rem = divmod(mu - 3 * eps2 - 4 * eps3 - 6 * eps_inf, 12)
    if rem:
        raise AssertionError("genus formula returned a non-integer (bug)")
    if k == 2:
        return g_minus_1 + 1
    if k < 2:
        return 0
    d = (k - 1) * g_minus_1 + (k // 4) * eps2 + (k // 3) * eps3 + (k // 2 - 1) * eps_inf
    return max(d, 0)


def miller_basis(k: int, prec: int) -> list[QExpansion]:
    """Echelon basis f_1..f_d of the level-1 weight-k cusp space:
    f_i = q^i + O(q^(d+1)), integral, built from g_i = Delta^i E_4^a_i E_6^b.

    12i is 0 mod 4, so b = [k mod 4 != 0] is the same on every row and a_i
    falls by 3 from row i to row i+1.  So g_i = q^i h_i with one chain
    h_i = h_(i+1) J from h_d = Delta'^d E_4^a_d E_6^b, where Delta' = Delta/q
    and J = E_4^3/Delta' = q j = 1 + 744q + 196884q^2 + ... is integral, so
    each row costs one product.  g_i is needed mod q^prec, so h_i only mod
    q^(prec - i); h_1 needs prec - 1 coefficients and every h_i feeds it
    through the chain, so the whole chain runs mod q^(prec - 1).  The rows
    are echelonized by ``_unitriangular_solve``, as U^-1 g."""
    if k % 2 or k < 12:
        raise ValueError("k must be even and >= 12")
    d = dim_cusp(k)
    if d == 0:
        return []
    if prec < d + 1:
        raise ValueError(f"prec {prec} too small for dimension {d}")
    rows = next(_miller_rows(d, [k], prec))
    return [QExpansion(k, f, prec) for f in _unitriangular_solve(rows, rows)]


def _q_j(n: int) -> QExpansion:
    """J = E_4^3/Delta' = q j = 1 + 744q + 196884q^2 + ... mod q^n, integral
    because 1/Delta' is."""
    return eisenstein(4, n).pow(3) * _delta_prime(n, inverse=True)


def _miller_rows(d: int, ks: list[int], prec: int):
    """Yield the rows g_1..g_d (coefficient lists mod q^prec, g_i = q^i + ...)
    of the Miller basis before echelonization, for each weight k in ks, all
    of dimension d >= 1.  J, Delta'^d, E_4 and E_6 are built once for all of
    ks, and so is each start h_d = Delta'^d E_4^a E_6^b (a <= 2, b <= 1); J
    only when d > 1, since a chain of one row has no product."""
    n = prec - 1
    e4, e6 = eisenstein(4, n), eisenstein(6, n)
    qj = _q_j(n) if d > 1 else None
    starts = {(0, 0): _delta_prime(n).pow(d)}

    def start(a: int, b: int) -> QExpansion:
        if (a, b) not in starts:
            starts[a, b] = start(a - 1, b) * e4 if a else start(a, b - 1) * e6
        return starts[a, b]

    for k in ks:
        b = 0 if k % 4 == 0 else 1
        h = start((k - 12 * d - 6 * b) // 4, b)
        chain = [h]  # h_d, h_(d-1), ..., h_1
        for _ in range(d - 1):
            chain.append(chain[-1] * qj)
        yield [[0] * i + hi.coeffs[: prec - i] for i, hi in enumerate(reversed(chain), 1)]


def _unitriangular_solve(rows: list[list[int]], rhs: list[list[int]]) -> list[list[int]]:
    """U^-1 rhs for U_ij = a_j(g_i) = rows[i-1][j] (1 <= i, j <= d), where
    rows are the Miller rows g_i = q^i + ... of one weight.

    U is upper unitriangular, so back substitution gives the solution X of
    U X = rhs with integers only: X_i = rhs_i - sum_(j > i) U_ij X_j, from
    i = d down.  The echelon basis is f = U^-1 g: a cusp form is fixed by
    a_1..a_d, and a_j(f_l) = [j = l], so g_i = sum_j a_j(g_i) f_j.  A
    leading coefficient other than 1 is a bug and raises.
    """
    d = len(rows)
    out: list[list[int]] = [[]] * d
    for i in range(d - 1, -1, -1):
        g = rows[i]
        if g[i + 1] != 1:
            raise AssertionError(f"Miller basis row {i + 1} has leading coefficient {g[i + 1]} (bug)")
        x = rhs[i]
        for j in range(i + 1, d):
            c = g[j + 1]
            if c:
                x = [s - c * t for s, t in zip(x, out[j])]
        out[i] = x
    return out


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
    _check_prime(p)
    return next(_hecke_matrices(p, [k]))


def _hecke_matrices(p: int, ks: list[int]):
    """Yield hecke_matrix(p, k) for each weight k in ks, all of one
    dimension d, from one set of Miller rows at precision p d + 1.

    With U_ij = a_j(g_i) and M_ij = a_j(T_p g_i) for 1 <= i, j <= d, the
    matrix on the echelon basis f = U^-1 g is U^-1 M: T_p is linear, so
    T_p f = U^-1 T_p g, and a_1..a_d of a cusp form are its coordinates on
    f.  So only the d x d block M is reduced, never a full row."""
    d = dim_cusp(ks[0])
    rows_by_weight = _miller_rows(d, ks, p * d + 1) if d else ([] for _ in ks)
    for k, rows in zip(ks, rows_by_weight):
        # T_p g has precision d + 1: its coefficients a_1..a_d are the row
        m = [hecke_operator(QExpansion(k, g), p).coeffs[1:] for g in rows]
        yield HeckeMatrix(p=p, k=k, d=d, entries=tuple(map(tuple, _unitriangular_solve(rows, m))))


def slopes(p: int, k: int) -> list[ExtendedValuation]:
    """Multiset (ascending list) of p-adic valuations of the T_p eigenvalues
    on the weight-k level-1 cusp space: the Newton polygon slopes of the
    characteristic polynomial, with INFINITY entries for zero eigenvalues."""
    return _slopes(hecke_matrix(p, k))


def slope_table(ps, ks, starmap=itertools.starmap) -> dict[tuple[int, int], list[ExtendedValuation]]:
    """{(p, k): slopes(p, k)} for every prime p in ps and weight k in ks.

    The weights are grouped by d = dim S_k once; one task (p, group) per prime
    and dimension goes through ``starmap`` (a process pool's starmap works
    too), and its weights share one J, Delta'^d, E_4 and E_6 (``_miller_rows``)."""
    for p in ps:
        _check_prime(p)
    groups: dict[int, list[int]] = {}
    for k in ks:
        groups.setdefault(dim_cusp(k), []).append(k)
    tasks = [(p, groups[d]) for p in ps for d in sorted(groups)]
    table = {}
    for (p, group), results in zip(tasks, starmap(_group_slopes, tasks)):
        table.update(((p, k), svals) for k, svals in zip(group, results))
    return table


def _group_slopes(p: int, ks: list[int]) -> list[list[ExtendedValuation]]:
    """[slopes(p, k) for k in ks], the weights ks all of one dimension."""
    return [_slopes(hm) for hm in _hecke_matrices(p, ks)]


def _slopes(hm: HeckeMatrix) -> list[ExtendedValuation]:
    if hm.d == 0:
        return []
    cp = hm.charpoly()
    ord0 = next(i for i, c in enumerate(cp) if c)
    out: list[ExtendedValuation] = [INFINITY] * ord0
    if ord0 == hm.d:
        return out
    np = newton_polygon(cp[ord0:], hm.p)
    return np.slope_list() + out
