"""Symmetric-power polynomials, coset-indexed formal sums, and the Hecke
operator attached to the double coset of diag(p, 1).

Values live in the degree-t homogeneous polynomial module twisted by
|det|^(t/2); coefficients are canonical residues mod p^M and the twist is a
formal exponent of p (never a root of p), so central scalars act exactly
trivially.  Group elements are integral: a row-major 4-tuple of int, since
every element the operator builds is a product of integer matrices.  Formal
sums are keyed by canonical coset representatives: two group elements label
the same term iff they differ by right multiplication by an integral unit
times a central power of p, and the canonical key is the column Hermite
form [[p^a, c], [0, p^d]] with 0 <= c < p^a and minimal entry valuation 0,
computed in closed form with one modular inverse.

The action of g = [[a, b], [c, d]] is also closed form: the coefficient of
x^n y^(t-n) in (a x + c y)^e (b x + d y)^(t-e) is the sum over i + j = n of
C(e, i) a^i c^(e-i) C(t-e, j) b^j d^(t-e-j).  One call costs O(t) for the
power lists mod p^M (the binomials are the _binomial_row rows of t) plus a
pass of O(t-e) per nonzero f_e and nonzero power c^(e-i): O(t-e) per f_e
when c = 0, as for every g that T makes.  The Pascal rows and the
Teichmuller lifts per (p, M) are bounded memos registered in _memo, which
empties them once per invocation.

T makes one action per (term, mu): inserting g . (k . v) under the key of
g acts once, by h k, where h is the clean-up that _coset_key returns.
This is exact because h = p^m U with U in GL_2(Z_p), so h k has the content
of k and the twists of h and k add.  p is checked once, by the public
constructors and coset_decompose: what act, T and verify_T_expansion build
from a checked p is not checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from ._memo import memo
from .combinatorics import _binomial_row
from .padic import _check_prime, _check_prime_gt3, _vp, teichmuller_lift

Matrix = tuple[int, int, int, int]  # ((a, b), (c, d)) row-major


def mat_mul(g1: Matrix, g2: Matrix) -> Matrix:
    a1, b1, c1, d1 = g1
    a2, b2, c2, d2 = g2
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
    )


IDENTITY = (1, 0, 0, 1)


def _primitive(g: Matrix, p: int) -> tuple[int, Matrix]:
    """(m, g / p^m) for the largest power p^m dividing every entry of g, for a
    p the caller has checked; math.gcd raises TypeError on a non-int entry."""
    n = math.gcd(*g)
    if g[0] * g[3] - g[1] * g[2] == 0:
        raise ZeroDivisionError("matrix must be invertible")
    m = _vp(n, p)
    return m, tuple(e // p**m for e in g) if m else tuple(g)


@dataclass(frozen=True)
class SurrogateParams:
    """Small surrogate parameters for the tower-of-p-powers constants.

    Every identity checked here is algebraic in (t, delta, alpha), so small
    values exercise them fully.  The working precision M = t + delta + 2
    leaves headroom for the p^xi factors in the expansions.
    """

    p: int
    t: int
    delta: int

    def __post_init__(self):
        _check_prime_gt3(self.p)
        if self.delta < 1:
            raise ValueError("delta must be >= 1")

    @property
    def M(self) -> int:
        return self.t + self.delta + 2


@dataclass(frozen=True)
class SymPoly:
    """Homogeneous polynomial of degree t with coefficients mod p^M.

    coeffs[e] is the coefficient of x^e y^(t-e).  ``twist`` is the formal
    exponent of p carried by the |det|^(t/2) normalization; it changes only
    under the action of group elements whose determinant is a nonunit.
    """

    degree: int
    p: int
    M: int
    coeffs: tuple[int, ...]
    twist: Fraction = Fraction(0)

    def __post_init__(self):
        _check_prime(self.p)
        if self.M < 1 or self.degree < 0:
            raise ValueError(f"need M >= 1 and degree >= 0, got M={self.M}, degree={self.degree}")
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient vector must have length degree + 1")
        q = self.p**self.M
        if any(not 0 <= c < q for c in self.coeffs):
            object.__setattr__(self, "coeffs", tuple(c % q for c in self.coeffs))

    @classmethod
    def from_dict(cls, degree: int, p: int, M: int, entries: dict[int, int],
                  twist: Fraction = Fraction(0)) -> "SymPoly":
        coeffs = [0] * (degree + 1)
        for e, c in entries.items():
            if not 0 <= e <= degree:
                raise ValueError(f"exponent {e} outside [0, {degree}]")
            coeffs[e] = c
        return cls(degree, p, M, tuple(coeffs), twist)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _compatible(self, other: "SymPoly") -> None:
        if (self.degree, self.p, self.M) != (other.degree, other.p, other.M):
            raise ValueError("mixed degree or working precision")
        if self.twist != other.twist:
            raise ValueError(f"twist mismatch: {self.twist} vs {other.twist}")

    @staticmethod
    def _of(degree: int, p: int, M: int, coeffs: tuple[int, ...], twist: Fraction) -> "SymPoly":
        """A SymPoly built without validation, for results of act, the arithmetic
        below, h_polys and the xi-sum values: p, M and degree were checked when
        a SymPoly or SurrogateParams was built, and coeffs are reduced mod p^M."""
        out = object.__new__(SymPoly)
        out.__dict__.update(degree=degree, p=p, M=M, coeffs=coeffs, twist=twist)
        return out

    def __add__(self, other: "SymPoly") -> "SymPoly":
        self._compatible(other)
        q = self.p**self.M
        coeffs = tuple((a + b) % q for a, b in zip(self.coeffs, other.coeffs))
        return SymPoly._of(self.degree, self.p, self.M, coeffs, self.twist)

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self + other.scale(-1)

    def scale(self, s: int) -> "SymPoly":
        q = self.p**self.M
        return SymPoly._of(self.degree, self.p, self.M, tuple(c * s % q for c in self.coeffs), self.twist)

    def sparse(self) -> dict[int, int]:
        return {e: c for e, c in enumerate(self.coeffs) if c}


@memo(maxsize=256)
def _pascal(t: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..t of Pascal's triangle, _pascal(t)[n][k] = C(n, k), from _binomial_row."""
    return tuple(tuple(_binomial_row(n, 0, n + 1, top_step=0)) for n in range(t + 1))


def _powers(x: int, t: int, q: int) -> list[int]:
    """[x^0, ..., x^t] mod q for 0 <= x < q."""
    if x < 2:
        return [1] + [x] * t
    out = [1]
    for _ in range(t):
        out.append(out[-1] * x % q)
    return out


def act(g: Matrix, f: SymPoly) -> SymPoly:
    """Row-substitution action: for g = [[a,b],[c,d]],
    (g.f)(x, y) = f(a x + c y, b x + d y), with the twist advanced by
    -v_p(det g_0) t/2 for g_0 = g / p^m, m the least entry valuation, so
    that the central power p^m acts trivially.

    With f = sum_e f_e x^e y^(t-e), the term f_e contributes
    C(e, i) a^i c^(e-i) C(t-e, j) b^j d^(t-e-j) f_e to the coefficient of
    x^(i+j) y^(t-i-j), read off the power lists of g_0 mod q = p^M and the
    Pascal rows of t: one pass over j per nonzero f_e and nonzero c^(e-i),
    with the sums reduced mod q once, at the end.  Cost: O(t) for the tables
    plus O(t - e) per nonzero f_e when c = 0, O((e+1)(t-e+1)) when every
    power of c is nonzero; expanding the linear forms' powers costs O(t^2).
    """
    _, g0 = _primitive(g, f.p)
    if g0 == IDENTITY:
        return f  # a central p^m: the coefficients are already reduced and the twist moves by 0
    a, b, c, d = g0
    p, t = f.p, f.degree
    q = p**f.M
    det = a * d - b * c
    twist = f.twist if det % p else f.twist - Fraction(_vp(det, p) * t, 2)
    pa, pb, pc, pd = [_powers(x % q, t, q) for x in g0]
    pc = pc[:pc.index(0)] if 0 in pc else pc  # after one power of c is 0 mod q, all are
    binom = _pascal(t)
    out = [0] * (t + 1)
    for e, fe in enumerate(f.coeffs):
        if not fe:
            continue
        r = t - e
        be, br = binom[e], binom[r]
        for k, ck in enumerate(pc[:e + 1]):
            i = e - k
            u = fe * be[i] * pa[i] * ck
            for j in range(r + 1):
                out[i + j] += u * br[j] * pb[j] * pd[r - j]
    return SymPoly._of(t, p, f.M, tuple([x % q for x in out]), twist)


class CosetRep(NamedTuple):
    """Canonical key [[p^a, c], [0, p^d]] of a coset; c in [0, p^a) and
    min(a, d, v_p(c)) = 0.  A tuple: keys hash and compare at C speed."""

    a_exp: int
    d_exp: int
    c_val: int
    p: int

    def matrix(self) -> Matrix:
        return (self.p**self.a_exp, self.c_val, 0, self.p**self.d_exp)


def coset_decompose(g: Matrix, p: int) -> tuple[CosetRep, Matrix]:
    """(canonical representative, h) with g = rep.matrix() @ h and h in KZ."""
    _check_prime(p)
    return _coset_key(g, p)


def _coset_key(g: Matrix, p: int) -> tuple[CosetRep, Matrix]:
    """coset_decompose for a p the caller has checked.  Right cosets: g1, g2
    share a key iff g2^(-1) g1 is an integral unit times a central power of
    p.  With g / p^m = [[a, b], [c, d]] primitive, the bottom row gives
    d_exp = s = min(v_p(c), v_p(d)), the determinant gives a_exp =
    v_p(ad - bc) - s, and the top entry over the bottom one of valuation s
    gives c_val; h = rep^(-1) g is then p^m times an integral unit, and
    every division below is exact.
    """
    m, (a, b, c, d) = _primitive(g, p)
    # c and d are not both 0; a zero entry never has the least valuation
    if d and (not c or _vp(d, p) <= _vp(c, p)):
        top, low = b, d
    else:
        top, low = a, c
    s = _vp(low, p)
    a_exp = _vp(a * d - b * c, p) - s
    pa, ps, pm = p**a_exp, p**s, p**m
    c_val = top * pow(low // ps, -1, pa) % pa
    pas = pa * ps
    h = (
        pm * ((ps * a - c_val * c) // pas),
        pm * ((ps * b - c_val * d) // pas),
        pm * (c // ps),
        pm * (d // ps),
    )
    return CosetRep(a_exp, s, c_val, p), h


class FormalSum:
    """Finite formal combination of (coset key, SymPoly value) terms.

    Terms are normalized on insertion: keys canonicalized (moving the KZ
    part onto the value through the action) and zero values dropped.
    Instances are immutable by convention; all operations return new sums.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict[CosetRep, SymPoly] | None = None):
        _check_prime(p)
        self.p = p
        self.terms: dict[CosetRep, SymPoly] = dict(terms or {})

    @classmethod
    def _empty(cls, p: int) -> "FormalSum":
        """An empty sum at a p checked upstream, built without validation."""
        out = object.__new__(cls)
        out.p, out.terms = p, {}
        return out

    @classmethod
    def single(cls, g, value: SymPoly) -> "FormalSum":
        out = cls._empty(value.p)
        out._insert(g, value)
        return out

    @classmethod
    def unit(cls, value: SymPoly) -> "FormalSum":
        return cls.single(IDENTITY, value)

    def _insert(self, g, value: SymPoly, k: Matrix = IDENTITY) -> None:
        """Add the term g . (k . value), as act(h k, value) under the key of g.

        _coset_key writes g = rep h with h = p^m U, U an integral unit,
        so h k = p^m (U k) has the content of k and v_p(det U k) =
        v_p(det k_0): the twists of h and k add, and act(h, act(k, value))
        = act(h k, value).  Two actions do not compose like this in
        general: act((p,0,0,1), act((1,0,0,p), v)) moves the twist by -t
        and scales the coefficients by p^t, while act((p,0,0,p), v) = v.
        """
        if value.is_zero():
            return
        rep, h = _coset_key(g, self.p)
        self._accumulate(rep, act(mat_mul(h, k), value))

    def _accumulate(self, rep: CosetRep, w: SymPoly) -> None:
        """Add w to the term under rep, dropping the term if it becomes zero."""
        if rep in self.terms:
            w = self.terms[rep] + w
        if w.is_zero():
            self.terms.pop(rep, None)
        else:
            self.terms[rep] = w

    def __add__(self, other: "FormalSum") -> "FormalSum":
        if other.p != self.p:
            raise ValueError(f"formal sums at p={self.p} and p={other.p}")
        out = FormalSum(self.p, self.terms)
        for rep, v in other.terms.items():
            out._accumulate(rep, v)
        return out

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scale(-1)

    def scale(self, s: int) -> "FormalSum":
        out = FormalSum._empty(self.p)
        for rep, v in self.terms.items():
            out._accumulate(rep, v.scale(s))
        return out

    def act(self, g: Matrix) -> "FormalSum":
        out = FormalSum._empty(self.p)
        for rep, v in self.terms.items():
            out._insert(mat_mul(g, rep.matrix()), v)
        return out

    def support(self) -> list[CosetRep]:
        return sorted(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self.p == other.p and self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)

    def dump(self) -> str:
        """One line per term, stable order: four matrix entries, twist, then
        sparse exponent:coefficient pairs."""
        lines = []
        for rep in self.support():
            v = self.terms[rep]
            entries = " ".join(map(str, rep.matrix()))
            body = " ".join(f"{e}:{c}" for e, c in sorted(v.sparse().items()))
            lines.append(f"[{entries}] twist={v.twist} | {body}")
        return "\n".join(lines)


def h_polys(sp: SurrogateParams, alpha: int) -> tuple[SymPoly, SymPoly]:
    """(h_alpha, h_alpha*) = (x^a y^(t-a) - x^(a+d) y^(t-a-d), its variable swap)."""
    t, d = sp.t, sp.delta
    if not 0 <= alpha <= d:
        raise ValueError("need 0 <= alpha <= delta")
    if alpha + d > t:
        raise ValueError("need alpha + delta <= t")
    h, hstar = [0] * (t + 1), [0] * (t + 1)
    h[alpha] = hstar[t - alpha] = 1
    h[alpha + d] = hstar[t - alpha - d] = sp.p**sp.M - 1
    return tuple(SymPoly._of(t, sp.p, sp.M, tuple(c), Fraction(0)) for c in (h, hstar))


@memo(maxsize=256)
def teichmuller_lifts(p: int, M: int) -> tuple[int, ...]:
    """The Teichmuller lifts of 0, ..., p-1 mod p^M, memoized per (p, M)."""
    return tuple([teichmuller_lift(mu, p, M) for mu in range(p)])


def hecke_T(s: FormalSum, sp: SurrogateParams) -> FormalSum:
    """The double-coset operator: each term gamma . v maps to
    sum_mu gamma [[p,[mu]],[0,1]] . ([[1,-[mu]],[0,p]] v)
          + gamma [[1,0],[0,p]] . ([[p,0],[0,1]] v).

    Each of the p + 1 images costs one act: _insert fuses the inner matrix
    with the key's clean-up h.  For gamma = 1 the fused matrix is
    [[1,-mu],[0,p]], so the Teichmuller lift cancels."""
    p, M = sp.p, sp.M
    if s.p != p:
        raise ValueError(f"formal sum at p={s.p} given to T at p={p}")
    lifts = teichmuller_lifts(p, M)
    out = FormalSum._empty(p)
    for rep, v in s.terms.items():
        gamma = rep.matrix()
        for mu in range(p):
            lift = lifts[mu]
            out._insert(mat_mul(gamma, (p, lift, 0, 1)), v, (1, -lift, 0, p))
        out._insert(mat_mul(gamma, (1, 0, 0, p)), v, (p, 0, 0, 1))
    return out


@dataclass(frozen=True)
class TExpansionReport:
    matches: bool
    first_mismatch: str | None


def _xi_sum_value(sp: SurrogateParams, alpha: int, lift: int) -> tuple[int, ...]:
    """The coefficients mod p^M of the xi-sum expansion of
    x^a (-[mu] x + p y)^(t-a) - x^(a+d) (-[mu] x + p y)^(t-a-d), with the
    coefficient of x^(t-xi) y^xi written as
    ((-[mu])^(t-a-xi) C(t-a, xi) - (-[mu])^(t-a-d-xi) C(t-a-d, xi)) p^xi."""
    p, M, t, d = sp.p, sp.M, sp.t, sp.delta
    q = p**M
    n = t - alpha
    pu, pp = _powers(-lift % q, n, q), _powers(p, n, q)
    binom = _pascal(t)
    coeffs = [0] * (t + 1)
    for xi in range(n + 1):
        c = binom[n][xi] * pu[n - xi]
        if xi <= n - d:
            c -= binom[n - d][xi] * pu[n - d - xi]
        coeffs[t - xi] = c * pp[xi] % q
    return tuple(coeffs)


def verify_T_expansion(sp: SurrogateParams, alpha: int) -> TExpansionReport:
    """Compare hecke_T(1 . h_alpha) against the independently expanded
    right-hand side: sum_mu [[p,[mu]],[0,1]] . A_mu + [[1,0],[0,p]] . A with
    A_mu the exact xi-sum and A = p^a x^a y^(t-a) - p^(a+d) x^(a+d) y^(t-a-d).

    The single-power form of A_mu, with one common power
    (-[mu])^(t-a-xi) in both binomial sums, needs no check of its own: where
    it applies it is this same FormalSum.  For mu != 0 the lift [mu] is a
    unit with [mu]^p = [mu] mod p^M, so [mu]^(p-1) = 1 mod p^M.  When
    2 | delta and (p-1) | delta, (-[mu])^delta = 1, so the powers pu of
    -[mu] in _xi_sum_value have pu[j + delta] == pu[j], and the xi-sum with
    the common power equals the exact one coefficient by coefficient.
    mu = 0 takes the exact xi-sum in both forms.  The acceptance gate checks
    the lifts' congruences once per (p, M).
    """
    p, M, t, d = sp.p, sp.M, sp.t, sp.delta
    q = p**M
    h, _ = h_polys(sp, alpha)
    lhs = hecke_T(FormalSum.unit(h), sp)

    a_coeffs = [0] * (t + 1)
    a_coeffs[alpha], a_coeffs[alpha + d] = pow(p, alpha, q), -pow(p, alpha + d, q) % q
    a_val = SymPoly._of(t, p, M, tuple(a_coeffs), Fraction(-t, 2))
    rhs = FormalSum._empty(p)
    for lift in teichmuller_lifts(p, M):  # the xi-sum values share a_val's degree, p, M and twist
        rhs._insert((p, lift, 0, 1), SymPoly._of(t, p, M, _xi_sum_value(sp, alpha, lift), a_val.twist))
    rhs._insert((1, 0, 0, p), a_val)

    matches = lhs == rhs
    mismatch = None
    if not matches:
        for rep in sorted(set(lhs.terms) | set(rhs.terms)):
            if lhs.terms.get(rep) != rhs.terms.get(rep):
                mismatch = f"coset {rep}: {lhs.terms.get(rep)} != {rhs.terms.get(rep)}"
                break
    return TExpansionReport(matches=matches, first_mismatch=mismatch)
