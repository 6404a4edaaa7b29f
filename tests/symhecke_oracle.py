"""Routes replaced in ``padicslopes.symhecke``, kept as independent oracles.

Production ``act`` reads each coefficient of (a x + c y)^e (b x + d y)^(t-e)
off the binomial closed form; ``act_by_expansion`` keeps the route it
replaced: every power of the two linear forms expanded in full, one product
at a time, reduced mod p^M after every step.

Production ``hecke_T`` makes one action per (term, mu), fusing the inner
matrix with the coset clean-up; ``hecke_T_two_step`` keeps the two actions
apart: the inner matrix first, applied by ``act_by_expansion`` so that the
oracle does not share production ``act`` for it, then the clean-up h of the
new key, which insertion applies by production ``act``.  The tests compare
the routes.
"""

from fractions import Fraction

from padicslopes.padic import valuation
from padicslopes.symhecke import (
    IDENTITY,
    FormalSum,
    Matrix,
    SurrogateParams,
    SymPoly,
    _primitive,
    mat_mul,
    teichmuller_lifts,
)


def hecke_T_two_step(s: FormalSum, sp: SurrogateParams) -> FormalSum:
    """T with the inner action applied before insertion: each term
    gamma . v maps to sum_mu gamma [[p,[mu]],[0,1]] . ([[1,-[mu]],[0,p]] v)
    + gamma [[1,0],[0,p]] . ([[p,0],[0,1]] v), and inserting each image
    acts once more by the h of its key.  The inner action is
    act_by_expansion's."""
    p, M = sp.p, sp.M
    lifts = teichmuller_lifts(p, M)
    out = FormalSum(p)
    for rep, v in s.terms.items():
        gamma = rep.matrix()
        for mu in range(p):
            lift = lifts[mu]
            out._insert(mat_mul(gamma, (p, lift, 0, 1)), act_by_expansion((1, -lift, 0, p), v))
        out._insert(mat_mul(gamma, (1, 0, 0, p)), act_by_expansion((p, 0, 0, 1), v))
    return out


def act_by_expansion(g: Matrix, f: SymPoly) -> SymPoly:
    """(g.f)(x, y) = f(a x + c y, b x + d y) for g = [[a,b],[c,d]], with the
    twist advanced by -v_p(det g_0) t/2, g_0 = g / p^m primitive."""
    _, g0 = _primitive(g, f.p)
    if g0 == IDENTITY:
        return f
    a, b, c, d = g0
    v0 = valuation(a * d - b * c, f.p)
    q = f.p**f.M
    a, b, c, d = a % q, b % q, c % q, d % q
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
