"""Symmetric-power polynomials, coset-indexed formal sums, and the Hecke
operator attached to the double coset of diag(p, 1).

Values live in the degree-t homogeneous polynomial module twisted by
|det|^(t/2); coefficients are canonical residues mod p^M and the twist is a
formal exponent of p (never a root of p), so central scalars act exactly
trivially.  Formal sums are keyed by canonical coset representatives: two
group elements label the same term iff they differ by right multiplication
by an integral unit times a central power of p, and the canonical key is the
column Hermite form [[p^a, c], [0, p^d]] with 0 <= c < p^a and minimal entry
valuation 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padic import INFINITY, is_prime, teichmuller_lift, valuation

Matrix = tuple[Fraction, Fraction, Fraction, Fraction]  # ((a, b), (c, d)) row-major


def mat(a, b, c, d) -> Matrix:
    return (Fraction(a), Fraction(b), Fraction(c), Fraction(d))


def mat_mul(g1: Matrix, g2: Matrix) -> Matrix:
    a1, b1, c1, d1 = g1
    a2, b2, c2, d2 = g2
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
    )


def mat_det(g: Matrix) -> Fraction:
    return g[0] * g[3] - g[1] * g[2]


def mat_inv(g: Matrix) -> Matrix:
    det = mat_det(g)
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    return (g[3] / det, -g[1] / det, -g[2] / det, g[0] / det)


IDENTITY = mat(1, 0, 0, 1)


def _rat_mod(q: Fraction, modulus: int) -> int:
    """Canonical residue of a p-integral rational mod p^M."""
    den = q.denominator
    if den == 1:
        return q.numerator % modulus
    return q.numerator * pow(den, -1, modulus) % modulus


@dataclass(frozen=True)
class SurrogateParams:
    """Small surrogate parameters for the tower-of-p-powers constants.

    Every identity checked here is algebraic in (t, delta, eta, alpha), so
    small values exercise them fully.  M defaults to t + delta + 2, enough
    headroom for the p^xi factors in the expansions.
    """

    p: int
    t: int
    delta: int
    alpha: int
    eta: int = 0
    M: int | None = None

    def __post_init__(self):
        if not is_prime(self.p) or self.p <= 3:
            raise ValueError(f"p must be a prime > 3, got {self.p}")
        if self.delta < 1:
            raise ValueError("delta must be >= 1")
        if not 0 <= self.alpha <= self.delta:
            raise ValueError("need 0 <= alpha <= delta")
        if self.alpha + self.delta > self.t:
            raise ValueError("need alpha + delta <= t")
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.M is None:
            object.__setattr__(self, "M", self.t + self.delta + 2)
        elif self.M < self.t + self.delta + 2:
            raise ValueError("need M >= t + delta + 2")


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
        return all(c == 0 for c in self.coeffs)

    def _compatible(self, other: "SymPoly") -> None:
        if (self.degree, self.p, self.M) != (other.degree, other.p, other.M):
            raise ValueError("mixed degree or working precision")
        if self.twist != other.twist:
            raise ValueError(f"twist mismatch: {self.twist} vs {other.twist}")

    def __add__(self, other: "SymPoly") -> "SymPoly":
        self._compatible(other)
        q = self.p**self.M
        return SymPoly(
            self.degree, self.p, self.M,
            tuple((a + b) % q for a, b in zip(self.coeffs, other.coeffs)),
            self.twist,
        )

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        self._compatible(other)
        q = self.p**self.M
        return SymPoly(
            self.degree, self.p, self.M,
            tuple((a - b) % q for a, b in zip(self.coeffs, other.coeffs)),
            self.twist,
        )

    def scale(self, s: int) -> "SymPoly":
        q = self.p**self.M
        return SymPoly(
            self.degree, self.p, self.M,
            tuple(c * s % q for c in self.coeffs),
            self.twist,
        )

    def sparse(self) -> dict[int, int]:
        return {e: c for e, c in enumerate(self.coeffs) if c}


def act(g, f: SymPoly) -> SymPoly:
    """Row-substitution action: for g = [[a,b],[c,d]],
    (g.f)(x, y) = f(a x + c y, b x + d y), with the twist advanced by
    -v_p(det g_0) t/2 after the central p-power of g is cancelled exactly.
    """
    g = tuple(Fraction(e) for e in g)
    det = mat_det(g)
    if det == 0:
        raise ZeroDivisionError("matrix must be invertible")
    cmin = min(valuation(e, f.p) for e in g if e != 0)
    pc = Fraction(f.p) ** cmin
    g0 = tuple(e / pc for e in g)
    v0 = valuation(det, f.p) - 2 * cmin
    q = f.p**f.M
    a, b, c, d = (_rat_mod(e, q) for e in g0)
    t = f.degree
    # powers of the two linear forms a x + c y and b x + d y
    pow1 = [[1]]
    pow2 = [[1]]
    for _ in range(t):
        prev = pow1[-1]
        nxt = [0] * (len(prev) + 1)
        for e, cf in enumerate(prev):
            nxt[e + 1] = (nxt[e + 1] + cf * a) % q
            nxt[e] = (nxt[e] + cf * c) % q
        pow1.append(nxt)
        prev = pow2[-1]
        nxt = [0] * (len(prev) + 1)
        for e, cf in enumerate(prev):
            nxt[e + 1] = (nxt[e + 1] + cf * b) % q
            nxt[e] = (nxt[e] + cf * d) % q
        pow2.append(nxt)
    out = [0] * (t + 1)
    for e, cf in enumerate(f.coeffs):
        if not cf:
            continue
        p1 = pow1[e]
        p2 = pow2[t - e]
        for e1, c1 in enumerate(p1):
            if not c1:
                continue
            c1cf = c1 * cf
            for e2, c2 in enumerate(p2):
                if c2:
                    out[e1 + e2] = (out[e1 + e2] + c1cf * c2) % q
    return SymPoly(t, f.p, f.M, tuple(out), f.twist - Fraction(v0 * t, 2))


@dataclass(frozen=True, order=True)
class CosetRep:
    """Canonical key [[p^a, c], [0, p^d]] of a coset; c in [0, p^a) and
    min(a, d, v_p(c)) = 0."""

    a_exp: int
    d_exp: int
    c_val: int
    p: int

    def matrix(self) -> Matrix:
        return mat(self.p**self.a_exp, self.c_val, 0, self.p**self.d_exp)


def coset_canonicalize(g, p: int) -> CosetRep:
    """Canonical representative of the coset of g; two elements map to the
    same key iff one is the other times an integral-unit-and-central factor."""
    return coset_decompose(g, p)[0]


def coset_decompose(g, p: int) -> tuple[CosetRep, Matrix]:
    """(canonical representative, h) with g = rep.matrix() @ h and h in KZ.

    Right cosets: g1, g2 share a key iff g2^(-1) g1 is an integral unit
    times a central power of p.  Column reduction over Z_p computes the
    Hermite form; every step is exact rational arithmetic.
    """
    g = tuple(Fraction(e) for e in g)
    if mat_det(g) == 0:
        raise ZeroDivisionError("matrix must be invertible")
    m = min(valuation(e, p) for e in g if e != 0)
    pm = Fraction(p) ** m
    g1 = tuple(e / pm for e in g)
    _, _, c, d = g1
    vc = valuation(c, p)
    vd = valuation(d, p)
    if vd <= vc:  # INFINITY compares greater than any integer
        s = vd
        u = mat(1, 0, -c / d, Fraction(p) ** s / d)
    else:
        s = vc
        u = mat(-d / c, Fraction(p) ** s / c, 1, 0)
    g2 = mat_mul(g1, u)
    assert g2[2] == 0
    x, y = g2[0], g2[1]
    a = valuation(x, p)
    u2 = mat(Fraction(p) ** a / x, 0, 0, 1)
    yred = _rat_mod(y, p**a) if a > 0 else 0
    u3 = mat(1, (yred - y) / Fraction(p) ** a, 0, 1)
    utotal = mat_mul(mat_mul(u, u2), u3)
    h = tuple(e * pm for e in mat_inv(utotal))
    rep = CosetRep(a_exp=a, d_exp=s, c_val=yred, p=p)
    return rep, h


class FormalSum:
    """Finite formal combination of (coset key, SymPoly value) terms.

    Terms are normalized on insertion: keys canonicalized (moving the KZ
    part onto the value through the action) and zero values dropped.
    Instances are immutable by convention; all operations return new sums.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict[CosetRep, SymPoly] | None = None):
        self.p = p
        self.terms: dict[CosetRep, SymPoly] = dict(terms or {})

    @classmethod
    def single(cls, g, value: SymPoly) -> "FormalSum":
        out = cls(value.p)
        out._insert(g, value)
        return out

    @classmethod
    def unit(cls, value: SymPoly) -> "FormalSum":
        return cls.single(IDENTITY, value)

    def _insert(self, g, value: SymPoly) -> None:
        if value.is_zero():
            return
        rep, h = coset_decompose(g, self.p)
        w = act(h, value)
        if rep in self.terms:
            w = self.terms[rep] + w
        if w.is_zero():
            self.terms.pop(rep, None)
        else:
            self.terms[rep] = w

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = FormalSum(self.p, self.terms)
        for rep, v in other.terms.items():
            w = out.terms[rep] + v if rep in out.terms else v
            if w.is_zero():
                out.terms.pop(rep, None)
            else:
                out.terms[rep] = w
        return out

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scale(-1)

    def scale(self, s: int) -> "FormalSum":
        out = FormalSum(self.p)
        for rep, v in self.terms.items():
            w = v.scale(s)
            if not w.is_zero():
                out.terms[rep] = w
        return out

    def act(self, g) -> "FormalSum":
        out = FormalSum(self.p)
        for rep, v in self.terms.items():
            out._insert(mat_mul(tuple(Fraction(e) for e in g), rep.matrix()), v)
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
            entries = " ".join(str(e) for e in (rep.p**rep.a_exp, rep.c_val, 0, rep.p**rep.d_exp))
            body = " ".join(f"{e}:{c}" for e, c in sorted(v.sparse().items()))
            lines.append(f"[{entries}] twist={v.twist} | {body}")
        return "\n".join(lines)


def h_polys(sp: SurrogateParams, alpha: int) -> tuple[SymPoly, SymPoly]:
    """(h_alpha, h_alpha*) = (x^a y^(t-a) - x^(a+d) y^(t-a-d), its variable swap)."""
    if not 0 <= alpha <= sp.delta:
        raise ValueError("need 0 <= alpha <= delta")
    t, d = sp.t, sp.delta
    one = 1
    minus = sp.p**sp.M - 1
    h = SymPoly.from_dict(t, sp.p, sp.M, {alpha: one, alpha + d: minus})
    hstar = SymPoly.from_dict(t, sp.p, sp.M, {t - alpha: one, t - alpha - d: minus})
    return h, hstar


def teichmuller_lifts(p: int, M: int) -> list[int]:
    return [teichmuller_lift(mu, p, M) for mu in range(p)]


def hecke_T(s: FormalSum, sp: SurrogateParams) -> FormalSum:
    """The double-coset operator: each term gamma . v maps to
    sum_mu gamma [[p,[mu]],[0,1]] . ([[1,-[mu]],[0,p]] v)
          + gamma [[1,0],[0,p]] . ([[p,0],[0,1]] v)."""
    p, M = sp.p, sp.M
    lifts = teichmuller_lifts(p, M)
    out = FormalSum(p)
    for rep, v in s.terms.items():
        gamma = rep.matrix()
        for mu in range(p):
            lift = lifts[mu]
            out._insert(mat_mul(gamma, mat(p, lift, 0, 1)), act(mat(1, -lift, 0, p), v))
        out._insert(mat_mul(gamma, mat(1, 0, 0, p)), act(mat(p, 0, 0, 1), v))
    return out


@dataclass(frozen=True)
class TExpansionReport:
    sp: SurrogateParams
    alpha: int
    matches: bool
    combined_form_applicable: bool
    combined_form_matches: bool | None
    first_mismatch: str | None


def _expansion_value(sp: SurrogateParams, alpha: int, lift: int) -> SymPoly:
    """Exact xi-sum expansion of x^a (-[mu] x + p y)^(t-a) - x^(a+d)(...)^(t-a-d):
    the coefficient of x^(t-xi) y^xi is
    (-[mu])^(t-a-xi) C(t-a, xi) p^xi - (-[mu])^(t-a-d-xi) C(t-a-d, xi) p^xi."""
    import math

    p, M, t, d = sp.p, sp.M, sp.t, sp.delta
    q = p**M
    entries: dict[int, int] = {}
    for xi in range(t - alpha + 1):
        c1 = math.comb(t - alpha, xi) * pow(-lift % q, t - alpha - xi, q)
        c2 = 0
        if xi <= t - alpha - d:
            c2 = math.comb(t - alpha - d, xi) * pow(-lift % q, t - alpha - d - xi, q)
        coeff = (c1 - c2) * pow(p, xi, q) % q
        if coeff:
            entries[t - xi] = coeff
    return SymPoly.from_dict(t, p, M, entries, twist=Fraction(-t, 2))


def _combined_form_value(sp: SurrogateParams, alpha: int, lift: int) -> SymPoly:
    """The combined form with a single common power of (-[mu]); it
    equals the exact expansion only when lcm(2, p-1) divides delta."""
    import math

    p, M, t, d = sp.p, sp.M, sp.t, sp.delta
    q = p**M
    entries: dict[int, int] = {}
    for xi in range(t - alpha + 1):
        binom = math.comb(t - alpha, xi) - (math.comb(t - alpha - d, xi) if xi <= t - alpha - d else 0)
        coeff = binom * pow(-lift % q, t - alpha - xi, q) * pow(p, xi, q) % q
        if coeff:
            entries[t - xi] = coeff
    return SymPoly.from_dict(t, p, M, entries, twist=Fraction(-t, 2))


def verify_T_expansion(sp: SurrogateParams, alpha: int) -> TExpansionReport:
    """Compare hecke_T(1 . h_alpha) against the independently expanded
    right-hand side: sum_mu [[p,[mu]],[0,1]] . A_mu + [[1,0],[0,p]] . A with
    A_mu the exact xi-sum and A = p^a x^a y^(t-a) - p^(a+d) x^(a+d) y^(t-a-d).
    """
    p, M, t, d = sp.p, sp.M, sp.t, sp.delta
    if not 0 <= alpha <= sp.delta:
        raise ValueError("need 0 <= alpha <= delta")
    q = p**M
    h, _ = h_polys(sp, alpha)
    lhs = hecke_T(FormalSum.unit(h), sp)

    lifts = teichmuller_lifts(p, M)
    rhs = FormalSum(p)
    for mu in range(p):
        rhs._insert(mat(p, lifts[mu], 0, 1), _expansion_value(sp, alpha, lifts[mu]))
    a_val = SymPoly.from_dict(
        t, p, M,
        {alpha: pow(p, alpha, q), alpha + d: -pow(p, alpha + d, q) % q},
        twist=Fraction(-t, 2),
    )
    rhs._insert(mat(1, 0, 0, p), a_val)

    matches = lhs == rhs
    mismatch = None
    if not matches:
        for rep in sorted(set(lhs.terms) | set(rhs.terms)):
            if lhs.terms.get(rep) != rhs.terms.get(rep):
                mismatch = f"coset {rep}: {lhs.terms.get(rep)} != {rhs.terms.get(rep)}"
                break

    # the single-common-power form needs (-[mu])^delta = 1, so it applies to
    # mu != 0 when lcm(2, p-1) | delta; mu = 0 always needs the exact form
    applicable = d % 2 == 0 and d % (p - 1) == 0
    combined = None
    if applicable:
        rhs2 = FormalSum(p)
        rhs2._insert(mat(p, 0, 0, 1), _expansion_value(sp, alpha, 0))
        for mu in range(1, p):
            rhs2._insert(mat(p, lifts[mu], 0, 1), _combined_form_value(sp, alpha, lifts[mu]))
        rhs2._insert(mat(1, 0, 0, p), a_val)
        combined = lhs == rhs2
    return TExpansionReport(
        sp=sp,
        alpha=alpha,
        matches=matches,
        combined_form_applicable=applicable,
        combined_form_matches=combined,
        first_mismatch=mismatch,
    )
