"""The mutation matrix: every conjunct of every verify verdict can fail.

Each row plants one fault in one kernel and names the target and the
conjunct of its verdict that the fault must break.  With the fault in place
the row walks the target's gate grid (GATE_GRIDS of tests/test_acceptance.py)
in order, takes the first cell whose verdict turns "fails", and asserts that
the named conjunct is false there and that the cell holds again once the
fault is gone.

Four former conjuncts are gone because they hold by construction: the C''
integrality of `integrality`, the defining identity
sum_m n_m C((p-1)X + alpha, m) = den C(rho' - X, rho') of its Lambda tables
(Newton's forward-difference formula; see lemma_checks.integrality_checks
for both), the unitriangular cofactor of `det-factorization` (see
combinatorics.factor_and_rank_checks; the seed fault row below shows that
the factorization sees the one fault that could break the cofactor), and
the log bound of `lemma9`: every row maximum
max(0, floor(log_p a) - v_p(a + 1)) is at most floor(log_p a) (Kummer), so
the sweep reports floor(log_p a_max) and walks no row (see
lemma_checks.sweep_lemma9).  Gate criterion 1 compares the row maximum in
closed form (tests/lemma_oracle.carry_row_max) with the largest entry of the
digit-sum row and of the valuation-recurrence row, and the two rows with
each other, on every row of its grid; tests below show that a closed-form
fault and a digit-sum fault each break that comparison on a named first row.

The faults of lemmas 10, 11, 13 and 14 move one entry s_p(n) of the
digit-sum table that v_p(X_0) and every binomial core read.  No fault sits
at s_p(r): -s_p(r) enters v_p(X_0) and every witness alike, so a fault there
alone cancels in every margin and moves no verdict.  The rows of lemmas 10,
13 and 14 raise s_p(21) by 3(p - 1), three carries more in v_p(X_0)
wherever 21 is alpha or r - alpha.  Their first failing cells are
(5, 25), with r - alpha = 21 and margin 3, and (5, 122, 21), with margin
4, where s_5(21) also enters the witness at i = -1 negatively, as
s_p(rho' - i).  Lemma 11's row lowers s_p(11) by one, which floors a
witness one lower where 11 is i(p-1) + alpha: at (5, 12, 3), i = 2, whose
margin is 1.

The theta^alpha facts of the annihilator right sides are no conjuncts
either: vartheta_w = 0 below alpha, vartheta_alpha = p^E (1-p)^alpha (the
rho-shape identity is its case offset 0) and p^E dividing every vartheta_w
hold for every key (p, alpha, E, offset), as
combinatorics._theta_monomial_targets proves.  The residual checks the solve
against whatever targets it was given, so gate criteria 4 and 5 check the
expansion once per key, and a test below shows that a target fault breaks
that check while every residual stays zero.

Gate criterion 7 likewise runs the lambda-system check on each table key
(p, rho', alpha) of its grid, and a test below shows that a
difference-kernel fault breaks that check where the integrality verdict
still holds.

Full rank mod p is no conjunct of `matrix-entries` or `det-factorization`:
every carry matrix (C(i(p-1)+gamma, j)) has determinant (p-1)^(R(R-1)/2),
as combinatorics.factor_and_rank_checks proves.  Gate criterion 3 checks
the rank once per carry-matrix key (p, R, gamma) of its grid, and a test
below shows that a carry-matrix fault breaks that check while every
matrix-entries verdict still holds.

The single-power form of the hecke expansion, with one common power of
-[mu] in both binomial sums of each xi-sum, is no conjunct: where
2 | delta and (p-1) | delta it is the same formal sum as the exact
expansion, because every unit lift [mu] has [mu]^(p-1) = 1 mod p^M (see
symhecke.verify_T_expansion).  Gate criterion 8 checks the lifts once per
key (p, M) of its grid, and a test below shows that a lift fault breaks
that check while every hecke verdict still holds.
"""

from argparse import Namespace

import pytest

from padicslopes import _memo
from padicslopes import combinatorics as comb
from padicslopes import lemma_checks as lc
from padicslopes import symhecke as sh
from padicslopes.cli import VERIFY_TARGETS
from padicslopes.padic import _vp, integer_log

import lemma_oracle
from lambda_oracle import theta_expansion_errors
from lemma_oracle import lemma9_disagreements
from test_acceptance import (
    GATE_GRIDS, carry_rank_key_failures, gate_cells, integrality_key_failures, lift_key_failures,
    theta_key_systems,
)
from test_combinatorics import _ratio_off_by_one

# ---------------------------------------------------------------------------
# each target's verdict, conjunct by conjunct
# ---------------------------------------------------------------------------


def _lemma(cell, report):
    return {"strict": report.verdict != "fails"}


def _lambda_system(cell, record):
    p, R, alpha = cell
    return {"defining_identity": comb.lambda_identity_holds(p, alpha, *comb.lambda_raw_table(p, R, alpha))}


def _matrix_entries(cell, record):
    return {"trinomial_revision": comb.matrix_entries_check(*cell)[0]}


def _det_factorization(cell, record):
    rep = comb.factor_and_rank_checks(*cell)
    return {name: getattr(rep, name) for name in ("factorization_ok", "det_matches_closed_form")}


def _interior_annihilator(cell, record):
    return {"residual_zero": not comb.build_interior_annihilator(*cell).residual()}


def _double_sum(cell, record):
    return {"row_sums_zero": comb.verify_vanishing_double_sum(*cell).holds}


def _rho_annihilator(cell, record):
    return {"residual_zero": not comb.build_interior_annihilator(*cell, comb.rho_of(*cell)).residual()}


def _integrality(cell, record):
    rep = lc.integrality_checks(*cell)
    return {"c_prime_integral": rep.c_prime_min_valuation >= 0}


def _hecke(cell, record):
    p, t, delta, alpha = cell
    rep = sh.verify_T_expansion(sh.SurrogateParams(p=p, t=t, delta=delta), alpha)
    return {"matches": rep.matches}


CONJUNCTS = {
    "lemma9": lambda cell, record: {},  # holds by construction (see the module docstring)
    **{f"lemma{i}": _lemma for i in range(10, 16)},
    "lambda-system": _lambda_system,
    "matrix-entries": _matrix_entries,
    "det-factorization": _det_factorization,
    "interior-annihilator": _interior_annihilator,
    "double-sum": _double_sum,
    "rho-annihilator": _rho_annihilator,
    "integrality": _integrality,
    "hecke": _hecke,
}


# ---------------------------------------------------------------------------
# the faults: each takes the kernel it replaces and returns the faulty one
# ---------------------------------------------------------------------------


def _digit_sum_moved(n, ones=0, carries=0):
    # s_p(n) moved by ones + carries (p-1); a move by k (p-1) moves by k
    # every carry count that reads s_p(n)
    def fault(digit_sums):
        def faulty(p, n_max):
            sums = digit_sums(p, n_max)
            if n <= n_max:
                sums[n] += ones + carries * (p - 1)
            return sums

        return faulty

    return fault


def _one_more(kernel):
    return lambda *args: kernel(*args) + 1


def _numerators_plus_one(table):
    # every raw Lambda numerator one too large
    def faulty(p, R, alpha):
        nums, den = table(p, R, alpha)
        return [n + 1 for n in nums], den

    return faulty


def _first_numerator_plus_one(table):
    def faulty(p, R, alpha):
        nums, den = table(p, R, alpha)
        return [nums[0] + 1, *nums[1:]], den

    return faulty


def _last_difference_plus_one(differences):
    def faulty(values):
        out = differences(values)
        out[-1] += 1
        return out

    return faulty


def _ratio_fault(kernel):
    return _ratio_off_by_one


def _seed_of_top_two(kernel):
    # the row of top gamma = 2 run from the seed C(2, 0) = 2 instead of 1;
    # its ratios are exact, so the whole row doubles
    def faulty(n, k, length, top_step=1):
        row = kernel(n, k, length, top_step)
        return [2 * c for c in row] if (n, k, top_step) == (2, 0, 0) else row

    return faulty


def _last_pivot_off_by_one(carry_matrix):
    # b, the carry matrix of gamma = 0 whose determinant is taken
    def faulty(p, R, gamma):
        m = carry_matrix(p, R, gamma)
        if gamma == 0:
            m[R - 1][R - 1] += 1
        return m

    return faulty


def _targets_times_p(targets):
    return lambda p, alpha, ecal, offset: {i: p * v for i, v in targets(p, alpha, ecal, offset).items()}


def _last_target_unscaled(targets):
    # the m = alpha term of p^ecal theta^alpha without its p^ecal
    def faulty(p, alpha, ecal, offset):
        out = targets(p, alpha, ecal, offset)
        out[alpha + offset] //= p**ecal
        return out

    return faulty


def _untwisted_lifts(lifts):
    # 0, 1, ..., p-1 themselves: most are no roots of unity mod p^M
    return lambda p, M: tuple(range(p))


def _insert_ignoring_k(insert):
    return lambda self, g, value, k=sh.IDENTITY: insert(self, g, value)


# (target, conjunct, module, kernel, fault)
ROWS = [
    ("lemma10", "strict", lc, "_digit_sums", _digit_sum_moved(21, carries=3)),
    ("lemma11", "strict", lc, "_digit_sums", _digit_sum_moved(11, ones=-1)),
    ("lemma12", "strict", lc, "factorial_valuation", _one_more),
    ("lemma13", "strict", lc, "_digit_sums", _digit_sum_moved(21, carries=3)),
    ("lemma14", "strict", lc, "_digit_sums", _digit_sum_moved(21, carries=3)),
    ("lemma15", "strict", lc, "lambda_raw_table", _numerators_plus_one),
    ("lambda-system", "defining_identity", comb, "_forward_differences", _last_difference_plus_one),
    ("matrix-entries", "trinomial_revision", comb, "_binomial_row", _ratio_fault),
    ("det-factorization", "factorization_ok", comb, "_binomial_row", _seed_of_top_two),
    ("det-factorization", "det_matches_closed_form", comb, "_carry_matrix", _last_pivot_off_by_one),
    ("interior-annihilator", "residual_zero", comb, "_binomial_row", _ratio_fault),
    ("double-sum", "row_sums_zero", comb, "lambda_raw_table", _first_numerator_plus_one),
    ("rho-annihilator", "residual_zero", comb, "_binomial_row", _ratio_fault),
    ("integrality", "c_prime_integral", lc, "factorial_valuation", _one_more),
    ("hecke", "matches", sh.FormalSum, "_insert", _insert_ignoring_k),
]


def _first_failing(name):
    """(cell, item) of the first gate-grid cell of ``name`` whose verdict is
    "fails", or None."""
    for cell in gate_cells(name):
        verdict, _, _, item = VERIFY_TARGETS[name].check(*cell)
        if verdict == "fails":
            return cell, item
    return None


@pytest.mark.parametrize(
    "name,conjunct,module,kernel,fault", ROWS, ids=[f"{row[0]}:{row[1]}" for row in ROWS]
)
def test_a_fault_breaks_the_conjunct(monkeypatch, name, conjunct, module, kernel, fault):
    monkeypatch.setattr(module, kernel, fault(getattr(module, kernel)))
    failing = _first_failing(name)
    assert failing is not None, f"no gate cell of {name} fails"
    cell, item = failing
    assert CONJUNCTS[name](cell, item)[conjunct] is False, cell
    monkeypatch.undo()
    _memo.reset()  # drop what the memos built through the fault
    assert VERIFY_TARGETS[name].check(*cell)[0] == "holds", cell


def _first_lemma9_disagreement():
    """(p, a) of the first row of gate criterion 1's grid where the closed
    form or the oracle rows disagree, or None."""
    primes, bounds = GATE_GRIDS["lemma9"]
    for p in primes:
        rows = lemma9_disagreements(p, bounds["a_max"])
        if rows:
            return p, rows[0]
    return None


def _trailing_run_plus_one(p, a):
    # the trailing run of (p-1) digits of a taken one digit too long
    return max(0, integer_log(p, a) - _vp(a + 1, p) - ((a + 1) % p == 0))


def _unclamped(p, a):
    # without max(0, .), a = p^j - 1 has row maximum -1
    return integer_log(p, a) - _vp(a + 1, p)


@pytest.mark.parametrize(
    "fault,first", [(_trailing_run_plus_one, (2, 5)), (_unclamped, (2, 1))], ids=["trailing_run_plus_one", "unclamped"]
)
def test_a_closed_form_fault_breaks_the_lemma9_oracle_comparison(monkeypatch, fault, first):
    # both faults differ from the true row maximum only where p | a + 1; gate
    # criterion 1's comparison of the closed form with the oracle rows sees
    # the fault, at a = 5 = 101 in base 2 (one borrow, not 0) and at
    # a = 1 = 2 - 1 (0, not -1)
    monkeypatch.setattr(lemma_oracle, "carry_row_max", fault)
    assert _first_lemma9_disagreement() == first
    monkeypatch.undo()
    assert lemma9_disagreements(first[0], GATE_GRIDS["lemma9"][1]["a_max"]) == []


def test_a_digit_sum_fault_breaks_the_lemma9_oracle_comparison(monkeypatch):
    # a wrong s_p(37) moves the digit-sum rows of a >= 37, the table that
    # lemmas 10-15 read; gate criterion 1's comparison with the recurrence
    # sees it at the first prime
    monkeypatch.setattr(lc, "_digit_sums", _digit_sum_moved(37, ones=1)(lc._digit_sums))
    assert _first_lemma9_disagreement() == (2, 37)
    monkeypatch.undo()
    assert lemma9_disagreements(2, GATE_GRIDS["lemma9"][1]["a_max"]) == []


@pytest.mark.parametrize("fault", [_targets_times_p, _last_target_unscaled], ids=lambda fault: fault.__name__)
def test_a_target_fault_breaks_the_theta_key_check(monkeypatch, fault):
    # the solve meets the faulty targets, so the residual of every key's
    # system stays zero and the verdicts hold; the key check of criteria 4
    # and 5 sees the fault at the first key of each target
    monkeypatch.setattr(comb, "_theta_monomial_targets", fault(comb._theta_monomial_targets))
    first = []
    for name in ("interior-annihilator", "rho-annihilator"):
        systems = theta_key_systems(name)
        assert not any(sysm.residual() for _, sysm in systems)
        key, sysm = next((key, sysm) for key, sysm in systems if theta_expansion_errors(key, sysm.row_values))
        cell = (sysm.p, sysm.r, sysm.alpha)
        pinned = cell if name == "interior-annihilator" else cell[:2]  # a rho-annihilator cell is (p, r)
        assert VERIFY_TARGETS[name].check(*pinned)[0] == "holds"
        first.append((key, cell))
    assert first == [((5, 0, 1, 1), (5, 5, 0)), ((5, 1, 1, 0), (5, 9, 1))]
    monkeypatch.undo()
    for name in ("interior-annihilator", "rho-annihilator"):
        assert all(not theta_expansion_errors(key, sysm.row_values) for key, sysm in theta_key_systems(name))


def test_a_difference_fault_breaks_the_integrality_key_check(monkeypatch):
    # one more on the last forward difference breaks the defining identity of
    # every table; the key check of criterion 7 sees it at the grid's first
    # key, whose first cell still holds
    monkeypatch.setattr(comb, "_forward_differences", _last_difference_plus_one(comb._forward_differences))
    keys, failing = integrality_key_failures()
    assert failing == keys and failing[0] == (5, 1, 1)
    cell = gate_cells("integrality")[0]
    assert lc.table_key(cell) == failing[0]
    assert VERIFY_TARGETS["integrality"].check(*cell)[0] == "holds"
    monkeypatch.undo()
    _memo.reset()
    assert integrality_key_failures()[1] == []


def test_a_carry_fault_breaks_the_rank_key_check(monkeypatch):
    # the last row of every carry matrix with R >= 2 repeats the first, so
    # each such matrix has rank R - 1; the entry identity never reads a carry
    # matrix, so every matrix-entries verdict holds, and the key check of
    # criterion 3 sees the fault at the grid's first key with R >= 2
    carry = comb._carry_matrix

    def repeated_row(p, R, gamma):
        m = carry(p, R, gamma)
        return m[:-1] + [m[0]] if R >= 2 else m

    monkeypatch.setattr(comb, "_carry_matrix", repeated_row)
    keys, failing = carry_rank_key_failures()
    assert failing == [key for key in keys if key[1] >= 2]
    assert failing[0] == (5, 2, 4) and keys[failing[0]] == (5, 10, 0)
    assert _first_failing("matrix-entries") is None
    monkeypatch.undo()
    assert carry_rank_key_failures()[1] == []


def test_a_lift_fault_breaks_the_lift_key_check(monkeypatch):
    # with 0, 1, ..., p-1 for the lifts, T and the xi-sum side insert under
    # the same faulty keys, so all 130 hecke verdicts hold; the key check of
    # criterion 8 sees the fault at every key (p, M), since 2^p != 2 mod p^M
    monkeypatch.setattr(sh, "teichmuller_lifts", _untwisted_lifts(sh.teichmuller_lifts))
    keys, failing = lift_key_failures()
    assert len(keys) == 20 and failing == keys
    assert _first_failing("hecke") is None and len(gate_cells("hecke")) == 130
    monkeypatch.undo()
    _memo.reset()
    assert lift_key_failures()[1] == []


def test_the_residual_sums_no_row_on_exactly_four_gate_cells():
    # at (p, p, 0) the interior window (rho, r - rho) = (1, p - 1) holds no
    # i(p-1) + 0, so the residual sums nothing and the cell holds with nothing
    # that could fail; its checked count is the alpha + 1 = 1 target, not a row
    empty = [cell for cell in gate_cells("interior-annihilator") if not comb.interior_row_indices(*cell)]
    assert empty == [(p, p, 0) for p in GATE_GRIDS["interior-annihilator"][0]]
    for cell in empty:
        assert VERIFY_TARGETS["interior-annihilator"].check(*cell)[:2] == ("holds", 1)


# a small window of every target, each with cells at its first prime
SMALL = Namespace(r=None, alpha=None, a_max=10, r_max=40, R_max=2, alpha_max=12, t_max=4, delta_max=4)


def test_every_conjunct_of_every_target_has_a_row():
    named = {}
    for name, target in VERIFY_TARGETS.items():
        cell = target.cells(GATE_GRIDS[name][0][0], SMALL)[-1]
        verdict, _, _, item = target.check(*cell)
        conjuncts = CONJUNCTS[name](cell, item)
        assert verdict == "holds" and all(conjuncts.values()), (name, cell, conjuncts)
        named[name] = set(conjuncts)
    assert {(name, conjunct) for name, conjunct, *_ in ROWS} == {
        (name, conjunct) for name, conjuncts in named.items() for conjunct in conjuncts
    }
