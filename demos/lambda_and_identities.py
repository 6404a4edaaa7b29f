"""Walkthrough: the Lambda coefficient system and the exact identities it
drives.

The table Lambda_R(alpha, .) is the unique solution of a polynomial identity
in the binomial basis; substituted into the cell machinery it produces the
interior annihilator (a p^E-scaled theta-power on the right side) and, for
alpha above the depth rho, a double sum that vanishes identically.
"""

from padicslopes.combinatorics import (
    build_interior_annihilator,
    ecal_of,
    lambda_identity_holds,
    lambda_raw_table,
    lambda_values_by_differences,
    rho_of,
    vartheta,
    verify_vanishing_double_sum,
)
from padicslopes.padic import valuation

p, R, alpha = 5, 3, 7
table = lambda_values_by_differences(p, R, alpha)
print(f"Lambda table for p={p}, R={R}, alpha={alpha}:")
for beta in sorted(table):
    print(f"  beta={beta}: {table[beta]}")
print("defining identity holds at X = 0..R:", lambda_identity_holds(p, alpha, *lambda_raw_table(p, R, alpha)))
print()

p, r, a = 5, 26, 2
sys71 = build_interior_annihilator(p, r, a)
print(f"interior annihilator at (p={p}, r={r}, alpha={a}):")
print(f"  target: {sys71.target}")
print(f"  column constants C_l: {dict(sorted(sys71.column_constants.items()))}")
print(f"  residual rows (must be empty): {sys71.residual()}")
zero_below = all(vartheta(sys71.row_values, w, p) == 0 for w in range(a))
at_alpha = valuation(vartheta(sys71.row_values, a, p), p) == ecal_of(p, r)
print(f"  theta functional: zero below alpha={a}: {zero_below}; "
      f"valuation at alpha equals E={ecal_of(p, r)}: {at_alpha}")
print()

p, r, a = 5, 14, 3
rep = verify_vanishing_double_sum(p, r, a)
print(f"vanishing double sum at (p={p}, r={r}, alpha={a} > rho={rho_of(p, r)}):")
print(f"  row sums: {rep.row_sums}  -> holds: {rep.holds}")
print()

p, rho = 5, 2
r = rho * (p + 1) + p - 2
sys105 = build_interior_annihilator(p, r, rho)
d0, th = sys105.row_values[0], vartheta(sys105.row_values, rho, p)
print(f"rho-case annihilator at (p={p}, r={r}):")
print(f"  target: {sys105.target}; residual empty: {not sys105.residual()}")
print(f"  boundary row zero: D_0 = {d0}, theta_rho = {th}, "
      f"D_0 (1-p)^rho == theta_rho: {d0 * (1 - p) ** rho == th}")
