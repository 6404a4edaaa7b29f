"""Acceptance gate: one test per criterion, every tolerance exact.

Each test prints a single PASS line with the measured runtime against the
stated target (run with -s or -v to see them).  Grids are the full stated
grids, never subsampled.
"""

import random
import time
from argparse import Namespace
from fractions import Fraction

from padicslopes import combinatorics as comb
from padicslopes import lemma_checks as lc
from padicslopes import measures as ms
from padicslopes import modforms as mf
from padicslopes import symhecke as sh
from padicslopes.cli import VERIFY_TARGETS
from padicslopes.cli import main as cli_main
from padicslopes.padic import INFINITY

from lambda_oracle import lambda_coefficients, lambda_defining_residual, rank_mod_p, theta_expansion_errors
from lemma_oracle import carry_row_max, lemma9_disagreements


PS = (5, 7, 11, 13)
# (primes, window bounds) of every verify target on the gate: the criteria
# below run each target on its grid, and tests/test_mutations.py walks the
# same grids
GATE_GRIDS = {
    "lemma9": ((2, 3, 5, 7, 11, 13), {"a_max": 2000}),
    **{f"lemma{i}": (PS, {"r_max": 400}) for i in range(10, 16)},
    "lambda-system": (PS, {"R_max": 12, "alpha_max": 60}),
    "matrix-entries": (PS, {"r_max": 200}),
    "det-factorization": (PS, {"R_max": 12}),
    "interior-annihilator": (PS, {"r_max": 200}),
    "double-sum": (PS, {"r_max": 200}),
    "rho-annihilator": (PS, {"r_max": 200}),
    "integrality": (PS, {"r_max": 400}),
    "hecke": ((5, 7), {"t_max": 8, "delta_max": 4}),
}


def gate_cells(name):
    """Every cell that the verify table lists for ``name`` on its gate grid,
    in order."""
    primes, bounds = GATE_GRIDS[name]
    args = Namespace(r=None, alpha=None, **bounds)
    return [cell for p in primes for cell in VERIFY_TARGETS[name].cells(p, args)]


# the right side p^E theta^alpha x^(offset(p-1)) y^(...) of each annihilator
# target: offset 1 below rho, 0 on the rho shape
THETA_OFFSETS = {"interior-annihilator": 1, "rho-annihilator": 0}


def theta_key_systems(name):
    """[(key, system)] with one system per distinct key (p, alpha, E, offset)
    of an annihilator target's gate grid, built at the key's first cell.  The
    right side depends on the key alone, and the verdict reads the residual
    only, which cannot see it: the criteria check it here, once per key."""
    cells = {}
    for cell in gate_cells(name):
        p, r, alpha = cell if len(cell) == 3 else (*cell, comb.rho_of(*cell))
        cells.setdefault((p, alpha, comb.ecal_of(p, r), THETA_OFFSETS[name]), (p, r, alpha))
    return [(key, comb.build_interior_annihilator(*cell)) for key, cell in cells.items()]


def _assert_theta_keys(name, count):
    keys = theta_key_systems(name)
    assert len(keys) == count
    for key, sysm in keys:
        assert theta_expansion_errors(key, sysm.row_values) == [], (key, sysm.r)
    return len(keys)


def integrality_key_failures():
    """(keys, failing) over the distinct table keys (p, rho', alpha) of the
    integrality gate grid, in grid order: failing lists the keys whose table
    fails the lambda-system check.  The verdict reads v_p(C'_l) alone, and
    the defining identity of the table holds by construction (see
    lemma_checks.integrality_checks): the criterion checks it here, once per
    key."""
    keys = list(dict.fromkeys(map(lc.table_key, gate_cells("integrality"))))
    check = VERIFY_TARGETS["lambda-system"].check
    return keys, [key for key in keys if check(*key)[0] != "holds"]


def carry_rank_key_failures():
    """(keys, failing) over the distinct carry-matrix keys (p, R, gamma) of the
    matrix-entries gate grid, in grid order, each mapped to its first cell:
    failing lists the keys whose carry matrix _carry_matrix(p, R, gamma) has
    rank below R mod p.  A cell's square submatrix is that matrix with its
    columns reversed, and its full rank is a theorem (see
    combinatorics.factor_and_rank_checks), so no verdict reads it: the
    criterion checks it here, once per key."""
    keys = {}
    for p, r, alpha in gate_cells("matrix-entries"):
        rows = comb.interior_row_indices(p, r, alpha)
        if rows:
            keys.setdefault((p, len(rows), rows[0] * (p - 1) + alpha), (p, r, alpha))
    return keys, [key for key in keys if rank_mod_p(comb._carry_matrix(*key), key[0]) != key[1]]


def lift_key_failures():
    """(keys, failing) over the distinct lift keys (p, M = t + delta + 2) of
    the hecke gate grid, in grid order: failing lists the keys at which some
    lift [mu] of sh.teichmuller_lifts(p, M) is not mu mod p, is not fixed by
    x -> x^p mod p^M, or, for mu != 0, has [mu]^(p-1) != 1 mod p^M.  These
    facts make the single-power form of the xi-sum the same sum as the exact
    one (see symhecke.verify_T_expansion), so no verdict reads them: the
    criterion checks them here, once per key, with pow alone."""
    keys = list(dict.fromkeys((p, t + delta + 2) for p, t, delta, _ in gate_cells("hecke")))

    def fails(p, M):
        q, lifts = p**M, sh.teichmuller_lifts(p, M)
        return len(lifts) != p or any(
            lift % p != mu or pow(lift, p, q) != lift % q or (mu and pow(lift, p - 1, q) != 1)
            for mu, lift in enumerate(lifts)
        )

    return keys, [key for key in keys if fails(*key)]


def _least_margins(results):
    """{p: (least finite margin, first cell that reaches it)} over results."""
    least = {}
    for cell, _, _, margin, _ in results:
        p = cell[0]
        if margin is not None and margin != INFINITY and (p not in least or margin < least[p][0]):
            least[p] = (margin, cell)
    return least


def _report(n, elapsed, target, detail):
    print(f"[criterion {n}] PASS ({elapsed:.1f}s, target {target}): {detail}")


def _verify(name):
    """(cell, verdict, checked, margin, item) for every cell that the verify
    table lists for ``name`` on its gate grid, judged by its check; the item
    is a JSON record, or a lemma report for the lemma targets."""
    check = VERIFY_TARGETS[name].check
    return [(cell, *check(*cell)) for cell in gate_cells(name)]


def _assert_all_hold(results, count):
    # the pinned count makes a window change in the table fail the gate
    assert len(results) == count
    for cell, verdict, _, _, _ in results:
        assert verdict == "holds", cell


def test_criterion_1_lemma9_sweep():
    t0 = time.time()
    results = _verify("lemma9")
    _assert_all_hold(results, 6)
    for (p, a_max), _, checked, _, record in results:
        assert checked == sum(a + 1 for a in range(1, a_max + 1))
        assert record["max_valuation"] == max(carry_row_max(p, a) for a in range(1, a_max + 1))
        rows = lemma9_disagreements(p, a_max)
        assert rows == [], f"closed form or oracle rows disagree at p={p}, rows a = {rows[:5]}"
    _report(1, time.time() - t0, "<60s",
            "max_valuation = largest closed-form row maximum max(0, floor(log_p a) - v_p(a+1)) = largest "
            "digit-sum carry count (s_p(b)+s_p(a-b)-s_p(a))/(p-1), whose row = recurrence row "
            "v(C(a,b-1)) + v(a-b+1) - v(b), "
            f"on {sum(a_max for (_, a_max), *_ in results)} rows "
            f"({sum(checked for _, _, checked, _, _ in results)} triples)")


def test_criterion_2_lambda_system():
    t0 = time.time()
    cells = 0
    for p in PS:
        for R in range(0, 31):
            for alpha in sorted({R, R + 1, R + 7, 2 * R, 45, 60} & set(range(R, 61))):
                table = lambda_coefficients(p, R, alpha)
                assert all(c == 0 for c in lambda_defining_residual(table)), (p, R, alpha)
                assert comb.lambda_values_by_differences(p, R, alpha) == table.values
                assert comb.lambda_identity_holds(p, alpha, *comb.lambda_raw_table(p, R, alpha))
                cells += 1
        for alpha in (1, 13, 60):
            t = comb.lambda_values_by_differences(p, 1, alpha)
            assert t[alpha - 1] == Fraction(-1, p - 1)
            assert t[alpha] == Fraction(p - 1 + alpha, p - 1)
    target_cells = _verify("lambda-system")
    _assert_all_hold(target_cells, 552)
    _report(2, time.time() - t0, "<30s",
            f"defining identity residual zero on {cells} tables and on the {len(target_cells)} cells "
            "of verify lambda-system; closed forms match")


def test_criterion_3_matrix_suite():
    t0 = time.time()
    entries = _verify("matrix-entries")
    _assert_all_hold(entries, 8708)
    dets = _verify("det-factorization")
    _assert_all_hold(dets, 240)
    disagreements = sum(not record["linear_power_agrees"] for _, _, _, _, record in dets)
    assert disagreements > 0
    keys, failing = carry_rank_key_failures()
    assert len(keys) == 636
    assert failing == []
    print(
        "[criterion 3] note: det = (p-1)^(R(R-1)/2) exactly; the linear power "
        f"(p-1)^R form differs on {disagreements} grid cells (unit either way)"
    )
    _report(3, time.time() - t0, "<5min",
            f"entry identity on {len(entries)} cells and full rank mod p on their {len(keys)} carry "
            f"matrices (p, R, gamma); factorization and determinant closed form on {len(dets)} cells")


def test_criterion_4_interior_annihilator():
    t0 = time.time()
    results = _verify("interior-annihilator")
    _assert_all_hold(results, 8708)
    keys = _assert_theta_keys("interior-annihilator", 140)
    _report(4, time.time() - t0, "<10min",
            f"identity residual zero on {len(results)} cells; theta^alpha right side exact "
            f"(vartheta_w = 0 below alpha, p^E (1-p)^alpha at alpha) on its {keys} keys (p, alpha, E, offset)")


def test_criterion_5_identities_88_and_105():
    t0 = time.time()
    double_sums = _verify("double-sum")
    _assert_all_hold(double_sums, 3009)
    rho_variants = _verify("rho-annihilator")
    _assert_all_hold(rho_variants, 84)
    keys = _assert_theta_keys("rho-annihilator", 84)
    _report(5, time.time() - t0, "<5min",
            f"vanishing double sum on {len(double_sums)} cells; "
            f"rho-variant residual zero on {len(rho_variants)} cells; theta^rho right side exact "
            f"(vartheta_w = 0 below rho, p^E (1-p)^rho at rho) on its {keys} keys (p, rho, E, 0)")


def test_criterion_6_lemmas_10_to_15():
    t0 = time.time()
    details = []
    # the least margin of each lemma at each gate prime, pinned exactly
    p_minus_2, one, two = {p: p - 2 for p in PS}, dict.fromkeys(PS, 1), dict.fromkeys(PS, 2)
    for lemma, count, margins in (
        (10, 12165, p_minus_2), (11, 12165, one), (12, 12165, one),
        (13, 176, p_minus_2), (14, 176, p_minus_2), (15, 176, two),
    ):
        results = _verify(f"lemma{lemma}")
        assert len(results) == count
        fails = [cell for cell, verdict, _, _, _ in results if verdict == "fails"]
        assert not fails, f"lemma {lemma}: {fails[:1]}"
        least = _least_margins(results)
        assert {p: margin for p, (margin, _) in least.items()} == margins, f"lemma {lemma}"
        if lemma == 10:
            assert [cell for _, cell in least.values()] == [(5, 16, 4), (7, 36, 6), (11, 100, 10), (13, 144, 12)]
        witnesses = sum(checked for _, _, checked, _, _ in results)
        vacuous = sum(verdict == "vacuous" for _, verdict, _, _, _ in results)
        details.append(f"L{lemma}: least margin {margins} ({witnesses} witnesses, {vacuous} vacuous)")
    _report(6, time.time() - t0, "<15min", "; ".join(details))


def test_criterion_7_integrality():
    t0 = time.time()
    results = _verify("integrality")
    _assert_all_hold(results, 12341)
    assert {p: margin for p, (margin, _) in _least_margins(results).items()} == dict.fromkeys(PS, 0)
    keys, failing = integrality_key_failures()
    assert len(keys) == 2339
    assert failing == []
    _report(7, time.time() - t0, "exact (no target)",
            f"v_p(C') >= 0 (so v_p(C'') >= 0), least 0 at every p, on {len(results)} cells; "
            f"the defining identity (the cleared one is rho'! times it) on their {len(keys)} tables (p, rho', alpha)")


def test_criterion_8_hecke_operator():
    t0 = time.time()
    results = _verify("hecke")
    _assert_all_hold(results, 130)
    keys, failing = lift_key_failures()
    assert keys == [(p, M) for p in (5, 7) for M in range(5, 15)]
    assert failing == []

    rng = random.Random(20260809)
    sp = sh.SurrogateParams(p=5, t=6, delta=2)
    q = 5**sp.M
    gens = [
        (5, 0, 0, 1), (1, 0, 0, 5), (5, 2, 0, 1),
        (1, 3, 0, 1), (0, 1, 1, 0), (2, 1, 1, 1),
    ]

    def rand_sum():
        s = sh.FormalSum(5)
        for _ in range(rng.randrange(1, 4)):
            g = sh.IDENTITY
            for _ in range(rng.randrange(3)):
                g = sh.mat_mul(g, rng.choice(gens))
            s._insert(g, sh.SymPoly(6, 5, sp.M, tuple(rng.randrange(q) for _ in range(7))))
        return s

    for _ in range(50):
        s1, s2 = rand_sum(), rand_sum()
        c = rng.randrange(1, q)
        assert sh.hecke_T(s1.scale(c) + s2, sp) == sh.hecke_T(s1, sp).scale(c) + sh.hecke_T(s2, sp)
    for _ in range(50):
        s = rand_sum()
        g = rng.choice(gens)
        assert sh.hecke_T(s.act(g), sp) == sh.hecke_T(s, sp).act(g)
    _report(8, time.time() - t0, "<60s",
            f"expansion identity on {len(results)} grid cells; Teichmuller lifts ([mu] = mu mod p, "
            f"[mu]^p = [mu], [mu]^(p-1) = 1 for mu != 0) on their {len(keys)} keys (p, M); "
            "linearity and equivariance on 100 random instances")


def test_criterion_9_modular_forms():
    t0 = time.time()
    prec = 500
    lhs = mf.delta(prec).scale(1728)
    rhs = mf.eisenstein(4, prec).pow(3) - mf.eisenstein(6, prec).pow(2)
    assert lhs.coeffs == rhs.coeffs
    assert mf.slopes(2, 12) == [3]
    assert mf.slopes(5, 12) == [1]
    s59 = mf.slopes(59, 16)
    assert len(s59) == 1 and s59[0] >= 1
    _report(9, time.time() - t0, "<2min",
            f"1728*Delta identity to {prec} terms; slopes (2,12)={{3}}, (5,12)={{1}}, "
            f"(59,16)={{{s59[0]}}} reproduces the exceptional prime 59 at weight 16")


def test_criterion_10_measures():
    t0 = time.time()
    reg = ms.is_regular(5)
    assert reg.regular and reg.vacuous
    checked = 0
    for k in range(12, 201, 2):
        measure = ms.supersingularity_measure(5, k)
        bound = ms.support_bound(5, k)
        count, _ = ms.mass_in_middle(measure, bound)
        assert count == 0, f"k={k}: {count} masses inside {bound.left_end}..{bound.right_end}"
        assert measure.is_symmetric(), f"k={k}"
        checked += 1
    m59 = ms.supersingularity_measure(59, 16)
    assert m59.is_symmetric()
    count59, _ = ms.mass_in_middle(m59, ms.support_bound(59, 16))
    assert count59 == 2
    _report(10, time.time() - t0, "<10min",
            f"p=5 regular (vacuous evidence: weights {reg.k_range} empty), zero middle mass "
            f"on {checked} weights; p=59,k=16 has 2 middle masses; all measures symmetric")


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    outputs = []
    for jobs, name in [("3", "a"), ("3", "b"), ("1", "c")]:
        path = tmp_path / f"{name}.csv"
        code = cli_main(
            ["verify", "lemma12", "--p", "5,7", "--r-max", "60",
             "--jobs", jobs, "--out", str(path)]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    path_json = tmp_path / "m1.json"
    path_json2 = tmp_path / "m2.json"
    for p_ in (path_json, path_json2):
        assert cli_main(["measure", "--p", "59", "--k", "12..20", "--jobs", "2",
                         "--format", "json", "--out", str(p_)]) == 0
    assert path_json.read_bytes() == path_json2.read_bytes()
    _report(11, time.time() - t0, "exact",
            "byte-identical outputs across repeated runs and --jobs levels")
