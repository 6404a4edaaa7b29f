"""Walkthrough: the valuation-lemma sweeps.

Lemma 9, the carry bound v_p(C(a, b)) <= floor(log_p a), holds by proof
(Kummer): the sweep reports the pairs the bound covers and its largest
valuation, floor(log_p a_max), without walking a row.  Each of lemmas 10-15
asserts strict inequalities v_p(X_0) < v_p(.) over a finite index window;
the sweep enumerates every hypothesis-admissible cell up to a bound (the
cells ``padicslopes verify lemmaN`` runs) and checks each window exactly.
Vacuous cells (empty windows) are counted separately so a "holds" verdict
never hides an empty range.
"""

from argparse import Namespace

from padicslopes.cli import VERIFY_TARGETS
from padicslopes.lemma_checks import sweep_lemma9
from padicslopes.padic import INFINITY

print("carry bound v_p(C(a, b)) <= floor(log_p a) (by proof, max = floor(log_p a_max)):")
for p in (2, 3, 5):
    rep = sweep_lemma9(p, 300)
    print(f"  p={p}: {rep.verdict} on {rep.checked} pairs, "
          f"max valuation seen {rep.max_valuation_seen}")
print()

R_MAX = 120
grid = Namespace(r=None, alpha=None, r_max=R_MAX)
for lemma in (10, 11, 12, 13, 14, 15):
    target = VERIFY_TARGETS[f"lemma{lemma}"]
    results = [target.check(*cell) for p in (5, 7, 11, 13) for cell in target.cells(p, grid)]
    verdicts = [verdict for verdict, _, _, _ in results]
    margins = [m for _, _, m, _ in results if m is not None and m != INFINITY]
    print(f"lemma {lemma:2d} over r <= {R_MAX}: "
          f"{'FAILS' if 'fails' in verdicts else 'holds'} on {len(results)} cells "
          f"({sum(checked for _, checked, _, _ in results)} witnesses, "
          f"{verdicts.count('vacuous')} vacuous, min margin {min(margins, default=None)})")
