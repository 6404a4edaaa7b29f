"""The nested-loop action on SymPoly, kept as an independent oracle.

Production (``padicslopes.symhecke.act``) reads each coefficient of
(a x + c y)^e (b x + d y)^(t-e) off the binomial closed form.  This module
keeps the route it replaced: every power of the two linear forms expanded
in full, one product at a time, reduced mod p^M after every step.  The
tests compare the routes.
"""

from fractions import Fraction

from padicslopes.padic import valuation
from padicslopes.symhecke import IDENTITY, Matrix, SymPoly, _primitive


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
