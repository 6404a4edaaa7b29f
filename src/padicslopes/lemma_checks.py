"""Brute-force verification of the valuation lemmas.

Each lemma asserts strict p-adic valuation inequalities v_p(X_0) < v_p(.)
over a finite index window attached to a parameter cell.  The checks here
compute every valuation exactly from integers, never a rational number, and
record per-index witnesses, so a "holds" verdict is an exhaustive exact
computation, never an estimate.  Vacuous windows are reported as such rather
than silently passing.  The prime is validated once, at each public entry
point.

Every valuation is a sum of table lookups.  By Kummer,
(p-1) v_p(C(a+b, a)) = s_p(a) + s_p(b) - s_p(a+b), so v_p(X_0) and the
binomials of lemmas 10, 11, 13 and 14 are read from one base-p digit-sum
table (padic._digit_sums), and the column witnesses of lemmas 12 and 15 add
one such carry count to v_p(Lambda(alpha, l) p^l).  Every witness and v_p(X_0)
take -s_p(r) alike, so no margin depends on s_p(r).  The routes that build
each binomial and Lambda column numerator and divide out p, or count the
carries digit by digit, are kept in tests/lemma_oracle.py as oracles.  Lemma
9 reads no table: its largest row maximum is floor(log_p a_max) (see
sweep_lemma9), and its oracles, the row maximum in closed form, the
digit-sum rows and the valuation recurrence, are kept there too.

A raw Lambda table depends on (p, rho', alpha) only, not on r, so a sweep
meets each one on many cells.  Lemmas 12 and 15 and integrality_checks read
the valuations of its entries from one bounded memo.  The memos are
registered in _memo, which empties them per invocation, and build tables
through this module's globals lambda_raw_table and _digit_sums, so a patch
or a trace of those names sees every real build.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._memo import memo
from .combinatorics import (
    all_row_indices,
    general_rho_prime,
    lambda_raw_table,
    lambda_variant,
    rho_case_rho_prime,
    rho_of,
    rho_prime_of,
)
from .padic import (
    INFINITY,
    ExtendedValuation,
    _check_prime,
    _check_prime_gt3,
    _digit_sums,
    _vp,
    factorial_valuation,
    integer_log,
)

GENERAL_LEMMAS = (10, 11, 12)
RHO_LEMMAS = (13, 14, 15)
# Cells come sorted by (p, r, alpha) and the cells sharing a table lie a few
# r apart, so a small memo holds every reuse: at p in {5, 7, 11, 13} and
# r <= 400 a size of 64 already builds each table once (2,339 integrality
# keys, 2,163 lemma-12 keys).
TABLE_MEMO_SIZE = 256


def table_key(cell: tuple) -> tuple[int, int, int]:
    """(p, rho', alpha) of the raw Lambda table that an integrality, lemma12
    or lemma15 cell (p, r[, alpha]) reads, alpha = rho when omitted: the key
    of _lambda_table.  A rho-case cell has r - rho = rho p + 1, so rho' = rho
    there.  It only groups cells, so an invalid cell needs no check here."""
    p, r, *alpha = cell
    a = alpha[0] if alpha else rho_of(p, r)
    return p, rho_prime_of(p, r, a), a


@memo(maxsize=TABLE_MEMO_SIZE)
def _lambda_table(p: int, R: int, alpha: int) -> list[ExtendedValuation]:
    """[v_p(Lambda_R(alpha, l) p^l) for l = alpha - m, m in 0..R] over the raw
    table (n, den) = lambda_raw_table(p, R, alpha): v_p(n_m) - v_p(R!) + l,
    or INFINITY where n_m = 0 ((p-1)^R is a unit).  Built once per key while
    it stays in the memo."""
    nums, _ = lambda_raw_table(p, R, alpha)
    vden = factorial_valuation(R, p)
    return [INFINITY if n == 0 else _vp(n, p) - vden + alpha - m for m, n in enumerate(nums)]


@memo(maxsize=64)
def _digit_sum_table(p: int, bits: int) -> list[int]:
    """[s_p(n) for n < 2^bits]: the digit sums every cell with r < 2^bits
    reads, one table per prime and bit length of r."""
    return _digit_sums(p, (1 << bits) - 1)


@dataclass(frozen=True)
class LemmaReport:
    """One lemma on one cell: v_x0 = v_p(X_0) < v_other at every (index,
    v_other) witness, v_other an int or INFINITY; v_x0 and the witness kind are
    kept once.  min_margin is the least v_other - v_x0 (None for an empty
    window: "vacuous"), and the verdict is "holds" iff min_margin > 0."""

    lemma_id: int
    p: int
    r: int | None
    alpha: int | None
    rho: int | None
    rho_prime: int | None
    kind: str
    v_x0: int
    witnesses: tuple[tuple[int, ExtendedValuation], ...]
    verdict: str  # "holds" | "fails" | "vacuous"
    checked: int
    min_margin: ExtendedValuation | None


def _report(lemma_id, p, r, alpha, rho, rp, kind, v0, witnesses) -> LemmaReport:
    min_margin = min((v - v0 for _, v in witnesses), default=None)
    verdict = "vacuous" if min_margin is None else "holds" if min_margin > 0 else "fails"
    return LemmaReport(
        lemma_id=lemma_id,
        p=p,
        r=r,
        alpha=alpha,
        rho=rho,
        rho_prime=rp,
        kind=kind,
        v_x0=v0,
        witnesses=tuple(witnesses),
        verdict=verdict,
        checked=len(witnesses),
        min_margin=min_margin,
    )


def _core_valuation(sums: list[int], p: int, r: int, alpha: int, rp: int, i: int) -> ExtendedValuation:
    """v_p(C(r, n) C(rho'-i, rho')) with n = i(p-1)+alpha in [0, r], the
    common factor of X_i and X_i*, as two carry counts read from the digit
    sums s_p: C(rho'+t, rho') at i = -t <= 0, and C(i-1, rho') up to sign at
    i > rho', since a negative top has C(-m, w) = (-1)^w C(m+w-1, w).  The
    core is 0 exactly when 0 < i <= rho'.  On a valid cell no index read
    exceeds r."""
    if i <= 0:
        drop = sums[rp] + sums[-i] - sums[rp - i]
    elif i > rp:
        drop = sums[rp] + sums[i - 1 - rp] - sums[i - 1]
    else:
        return INFINITY
    n = i * (p - 1) + alpha
    return (sums[n] + sums[r - n] - sums[r] + drop) // (p - 1)


def verify_lemma(lemma_id: int, p: int, r: int, alpha: int | None = None) -> LemmaReport:
    """Check one lemma on one parameter cell over its full index window.

    Lemmas 10-12 take a general cell; lemmas 13-15 take a rho-case cell,
    with alpha = rho implicitly.  Lemmas 12 and 15 need p > 3, the others
    any prime.  Lemma 9 is checked by :func:`sweep_lemma9`.

    With core = C(r, i(p-1)+alpha) C(rho'-i, rho'), the row witnesses are
    X_i = p^(-i(p-1)) core and X_i* = p^(i(p-1)+2 alpha-r) core; the column
    witnesses are C_l p^l with C_l = Lambda(alpha, l) C(r, alpha-l).  Every
    valuation is additive: v_p(core) is two carry counts over the digit-sum
    table of p (see _core_valuation), and v_p(C_l p^l) is the memoized
    v_p(Lambda(alpha, l) p^l) of the key (p, rho', alpha) plus the carry count
    of C(r, alpha-l).  v_p(X_0) = v_p(C(r, alpha)) is one more carry count
    over the same table.
    """
    if lemma_id in (12, 15):
        _check_prime_gt3(p)
    else:
        _check_prime(p)
    rho = rho_of(p, r)
    if lemma_id in GENERAL_LEMMAS:
        if alpha is None:
            raise ValueError(f"lemma {lemma_id} needs alpha")
        rp = general_rho_prime(p, r, alpha)
    elif lemma_id in RHO_LEMMAS:
        alpha = rho if alpha is None else alpha
        rp = rho_case_rho_prime(p, r, alpha)
    else:
        raise ValueError(f"unknown lemma id {lemma_id}")

    sums = _digit_sum_table(p, r.bit_length())
    q = p - 1
    v0 = (sums[alpha] + sums[r - alpha] - sums[r]) // q
    if lemma_id in (10, 13):  # the rows below zero, from -1 down
        kind = "X_i"
        witnesses = [
            (i, _core_valuation(sums, p, r, alpha, rp, i) - i * q)
            for i in reversed(all_row_indices(p, r, alpha)) if i < 0
        ]
    elif lemma_id in (11, 14):
        kind = "X_i_star"
        lo_excl = rp * q + alpha if lemma_id == 11 else rho * p
        witnesses = [
            (i, _core_valuation(sums, p, r, alpha, rp, i) + i * q + 2 * alpha - r)
            for i in all_row_indices(p, r, alpha) if i * q + alpha > lo_excl
        ]
    else:  # 12, 15: l = alpha - m
        kind = "C_l_p^l"
        vlam, sr = _lambda_table(p, rp, alpha), sums[r]
        m_top = rp if lemma_id == 12 else alpha - 1
        witnesses = [(alpha - m, vlam[m] + (sums[m] + sums[r - m] - sr) // q) for m in range(m_top, -1, -1)]
    return _report(lemma_id, p, r, alpha, rho, rp, kind, v0, witnesses)


# ---------------------------------------------------------------------------
# Lemma 9 (carry bound) sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma9Report:
    p: int
    a_max: int
    checked: int
    verdict: str
    max_valuation_seen: int


def sweep_lemma9(p: int, a_max: int) -> Lemma9Report:
    """The carry bound v_p(C(a, b)) <= floor(log_p a) for every 0 <= b <= a
    with 1 <= a <= a_max.  a = 0 lies outside the sweep (log_p 0 is
    undefined), so a_max < 1 would check nothing and is a ValueError.
    checked counts the pairs (a, b) the bound covers, a + 1 in row a.

    The bound holds on every row, so the verdict is "holds" by this proof.
    By Kummer, v_p(C(a, b)) counts the borrows of a - b in base p.  The top
    digit position of a never borrows, since b <= a, and nor does the
    trailing run of (p-1) digits of a, whose length t is v_p(a + 1).  Every
    other position below the top borrows at once for the b whose digit at
    position t is a's plus one, whose digits above it below the top are a's
    own, and whose other digits are 0.  So the row maximum is
    max(0, floor(log_p a) - v_p(a + 1)), the max(0, .) for a = p^j - 1,
    where no b borrows.

    max_valuation_seen, the largest row maximum, is e = floor(log_p a_max),
    with no row walked.  Every row maximum is at most floor(log_p a) <= e.
    When e >= 1 the bound is reached at a = p^e <= a_max, whose row maximum
    is e since v_p(p^e + 1) = 0 (at b = 1).  When e = 0 every a <= a_max is
    below p, so every row maximum is 0 = e.  Gate criterion 1 compares the
    row closed form with two oracle rows in tests/lemma_oracle.py on every
    row of its grid: Kummer's digit-sum row and the valuation recurrence.
    """
    if a_max < 1:
        raise ValueError(f"lemma 9 sweeps 1 <= a <= a_max, got a_max={a_max}")
    _check_prime(p)
    return Lemma9Report(
        p=p,
        a_max=a_max,
        checked=a_max * (a_max + 3) // 2,  # a + 1 pairs in row a
        verdict="holds",
        max_valuation_seen=integer_log(p, a_max),
    )


# ---------------------------------------------------------------------------
# integrality of the cleared constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegralityReport:
    """c_prime_min_valuation is the least v_p(C'_l); the C''_j need no
    verdict of their own (see integrality_checks)."""

    p: int
    r: int
    alpha: int
    rho_prime: int
    variant: str
    c_prime_min_valuation: ExtendedValuation

    @property
    def holds(self) -> bool:
        return self.c_prime_min_valuation >= 0


def integrality_checks(p: int, r: int, alpha: int) -> IntegralityReport:
    """v_p(C'_l) >= 0; v_p(C''_j) >= 0 follows.

    C'_l is the Lambda value itself, n_m / den with m = alpha - l over the raw
    table (n, den = (p-1)^rho' rho'!), so v_p(C'_l) is the entry
    v_p(Lambda(alpha, l) p^l) of _lambda_table(p, rho', alpha), less l.  C''_j
    rescales it by the unit (-1)^rho' (p-1)^(alpha-j) and the integer
    rho'!/(alpha-j)!, so v_p(C''_j) = v_p(n_m) - v_p(m!) >= v_p(C'_l), as
    v_p(m!) <= v_p(rho'!) for m <= rho'.  So a C'' verdict could only fail
    where the C' verdict already fails.

    The defining identity sum_m n_m C((p-1)X + alpha, m) = den C(R - X, R),
    R = rho', holds for every table by construction, so the verdict does not
    check it.  With the degree-R polynomial
    h(s) = prod_(k=1..R) (k(p-1) + alpha - s), lambda_raw_table takes
    n_m = Delta^m h(0), the forward differences of h(0..R), so Newton's
    formula gives h(s) = sum_m n_m C(s, m) as polynomials.  At
    s = (p-1)X + alpha, h = prod_k (p-1)(k - X) = (p-1)^R R! C(R - X, R)
    = den C(R - X, R).  The cleared identity of the C''_j is rho'! times it.
    Gate criterion 7 runs the lambda-system check, an evaluation independent
    of the difference kernel, on every key of its grid.

    The verdict itself holds on every cell.  C'_l = Lambda_R(alpha, alpha-m)
    = n_m / den = Delta^m f(0) with f(s) = C(R + (alpha-s)/(p-1), R).  As
    p - 1 is a p-adic unit, (alpha-s)/(p-1) lies in Z_p for every integer s,
    and the binomial polynomial C(x + R, R) maps Z, hence its closure Z_p,
    into Z_p; so f maps Z into Z_p, and so do its forward differences.  The
    target's information is its margin, which gate criterion 7 pins at 0 at
    every prime; like lambda-system, it stays as a check of its kernels.
    """
    _check_prime_gt3(p)
    variant, rp = lambda_variant(p, r, alpha)
    c_prime = min(v - (alpha - m) for m, v in enumerate(_lambda_table(p, rp, alpha)))
    return IntegralityReport(
        p=p,
        r=r,
        alpha=alpha,
        rho_prime=rp,
        variant=variant,
        c_prime_min_valuation=c_prime,
    )
