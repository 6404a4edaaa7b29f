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

from lambda_oracle import lambda_coefficients, lambda_defining_residual


PS = (5, 7, 11, 13)


def _report(n, elapsed, target, detail):
    print(f"[criterion {n}] PASS ({elapsed:.1f}s, target {target}): {detail}")


def test_criterion_1_lemma9_sweep():
    t0 = time.time()
    reports = lc.sweep_lemma9_with_oracle((2, 3, 5, 7, 11, 13), 2000)
    for p, rep in reports.items():
        assert rep.verdict == "holds", f"lemma 9 fails at p={p}: {rep.violations[:3]}"
        assert rep.checked == sum(a + 1 for a in range(1, 2001))
    _report(1, time.time() - t0, "<60s",
            "carry count = direct factorization valuation <= floor(log_p a) "
            f"on {6 * reports[2].checked} triples")


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
    _report(2, time.time() - t0, "<30s",
            f"defining identity residual zero on {cells} tables; closed forms match")


def _verify(name, primes=PS, **grid):
    """(cell, verdict, checked, margin, record) for every cell that the verify
    table lists for ``name`` over ``primes`` on ``grid``, judged by its check."""
    target = VERIFY_TARGETS[name]
    args = Namespace(r=None, alpha=None, **grid)
    return [(cell, *target.check(*cell)) for p in primes for cell in target.cells(p, args)]


def _assert_all_hold(results, count):
    # the pinned count makes a window change in the table fail the gate
    assert len(results) == count
    for cell, verdict, _, _, _ in results:
        assert verdict == "holds", cell


def test_criterion_3_matrix_suite():
    t0 = time.time()
    entries = _verify("matrix-entries", r_max=200)
    _assert_all_hold(entries, 8708)
    dets = _verify("det-factorization", R_max=12)
    _assert_all_hold(dets, 240)
    disagreements = sum(not record["linear_power_agrees"] for _, _, _, _, record in dets)
    assert disagreements > 0
    print(
        "[criterion 3] note: det = (p-1)^(R(R-1)/2) exactly; the linear power "
        f"(p-1)^R form differs on {disagreements} grid cells (unit either way)"
    )
    _report(3, time.time() - t0, "<5min",
            f"entry identity, factorization, determinant closed form, and full rank on {len(entries)} cells")


def test_criterion_4_interior_annihilator():
    t0 = time.time()
    results = _verify("interior-annihilator", r_max=200)
    _assert_all_hold(results, 8708)
    _report(4, time.time() - t0, "<10min",
            f"identity residual zero and theta-functional profile exact on {len(results)} cells")


def test_criterion_5_identities_88_and_105():
    t0 = time.time()
    double_sums = _verify("double-sum", r_max=200)
    _assert_all_hold(double_sums, 3009)
    rho_variants = _verify("rho-annihilator", r_max=200)
    _assert_all_hold(rho_variants, 84)
    _report(5, time.time() - t0, "<5min",
            f"vanishing double sum on {len(double_sums)} cells; "
            f"rho-variant residual zero on {len(rho_variants)} cells")


def test_criterion_6_lemmas_10_to_15():
    t0 = time.time()
    details = []
    for lemma, count in ((10, 12165), (11, 12165), (12, 12165), (13, 176), (14, 176), (15, 176)):
        results = _verify(f"lemma{lemma}", r_max=400)
        assert len(results) == count
        fails = [cell for cell, verdict, _, _, _ in results if verdict == "fails"]
        assert not fails, f"lemma {lemma}: {fails[:1]}"
        margins = [m for _, _, _, m, _ in results if m is not None and m != INFINITY]
        assert margins and min(margins) >= 1
        witnesses = sum(checked for _, _, checked, _, _ in results)
        vacuous = sum(verdict == "vacuous" for _, verdict, _, _, _ in results)
        details.append(f"L{lemma}: margin>={min(margins)} ({witnesses} witnesses, {vacuous} vacuous)")
    _report(6, time.time() - t0, "<15min", "; ".join(details))


def test_criterion_7_integrality():
    t0 = time.time()
    results = _verify("integrality", r_max=400)
    _assert_all_hold(results, 12341)
    _report(7, time.time() - t0, "exact (no target)",
            f"v_p(C') >= 0, v_p(C'') >= 0, and both defining identities on {len(results)} cells")


def test_criterion_8_hecke_operator():
    t0 = time.time()
    results = _verify("hecke", primes=(5, 7), t_max=8, delta_max=4)
    _assert_all_hold(results, 130)

    rng = random.Random(20260809)
    sp = sh.SurrogateParams(p=5, t=6, delta=2, alpha=1)
    q = 5**sp.M
    gens = [
        sh.mat(5, 0, 0, 1), sh.mat(1, 0, 0, 5), sh.mat(5, 2, 0, 1),
        sh.mat(1, 3, 0, 1), sh.mat(0, 1, 1, 0), sh.mat(2, 1, 1, 1),
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
            f"expansion identity on {len(results)} grid cells; linearity and equivariance on 100 random instances")


def test_criterion_9_modular_forms():
    t0 = time.time()
    prec = 500
    lhs = mf.delta(prec).scale(1728)
    rhs = mf.eisenstein(4, prec).pow(3) - mf.eisenstein(6, prec).pow(2)
    assert lhs.coeffs == [int(c) for c in rhs.coeffs]
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
