"""Walkthrough: the compact-induction Hecke operator on formal sums.

A formal sum is a combination of (coset key, polynomial) terms; the operator
sends each term to p+1 translated terms.  The expansion identity compares
the operator's output on the difference polynomial h_alpha against an
independently computed binomial expansion, coefficient by coefficient at
working precision p^M.
"""

from padicslopes.symhecke import (
    FormalSum,
    SurrogateParams,
    SymPoly,
    h_polys,
    hecke_T,
    verify_T_expansion,
)

sp = SurrogateParams(p=5, t=4, delta=2)
print(f"parameters: p={sp.p}, t={sp.t}, delta={sp.delta}, precision p^{sp.M}")

h, hstar = h_polys(sp, 1)
print(f"h_1  = {h.sparse()}")
print(f"h_1* = {hstar.sparse()}")
print()

out = hecke_T(FormalSum.unit(h), sp)
print(f"T(1 . h_1) has {len(out)} terms:")
print(out.dump())
print()

for alpha in range(0, sp.delta + 1):
    rep = verify_T_expansion(sp, alpha)
    print(f"expansion identity at alpha={alpha}: {'match' if rep.matches else 'MISMATCH'}")

big = SurrogateParams(p=7, t=8, delta=3)
rep = verify_T_expansion(big, 2)
print(f"and at p=7, t=8, delta=3, alpha=2: {'match' if rep.matches else 'MISMATCH'}")
