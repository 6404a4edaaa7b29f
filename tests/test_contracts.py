"""The boundary contract of the public API and the CLI.

Every export returns or raises ValueError, and does so promptly, on any
small int input, including non-primes, 0, negatives and the p <= 3 edge.
Each call runs under a 0.5 s SIGALRM timer in this process.  Every CLI
subcommand and verify target exits 0 or 2 on the same kind of input, on
bounds of 0 and -1, on a bound or pin it does not read and on an unwritable
--out, and exit 2 comes with one error line or only invalid-cell lines.
``cli.main`` runs in this process at the default --jobs 1; no thread or pool
is started."""

import inspect
import itertools
import signal

import pytest

import padicslopes
from padicslopes import SurrogateParams, h_polys, verify_T_expansion
from padicslopes.cli import BOUND_DEFAULTS, TARGET_ALIASES, VERIFY_TARGETS
from padicslopes.cli import main as cli_main

VALUES = (*range(-2, 8), 13)
CALL_SECONDS = 0.5


class CallTimeout(Exception):
    pass


def _int_params(fn) -> list[str] | None:
    """The leading int parameters of fn, or None if fn needs another kind."""
    names = []
    for param in inspect.signature(fn).parameters.values():
        if not str(param.annotation).startswith("int"):
            if param.default is inspect.Parameter.empty:
                return None
            break
        names.append(param.name)
    return names


def _int_exports() -> dict:
    """{name: (export, its int parameters)} for the exports that take only ints."""
    out = {}
    for name in padicslopes.__all__:
        fn = getattr(padicslopes, name)
        params = (inspect.isroutine(fn) or inspect.isclass(fn)) and _int_params(fn)
        if params:
            out[name] = (fn, params)
    return out


@pytest.fixture
def timer():
    """call(fn, *args): "returned", or the name of what fn raised, which is
    CallTimeout past CALL_SECONDS."""

    def expire(signum, frame):
        raise CallTimeout

    previous = signal.signal(signal.SIGALRM, expire)

    def call(fn, *args):
        signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
        try:
            fn(*args)
        except Exception as exc:
            return type(exc).__name__
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return "returned"

    yield call
    signal.signal(signal.SIGALRM, previous)


CONTRACT = ("returned", "ValueError")


def test_the_int_exports():
    assert {name: params for name, (_, params) in _int_exports().items()} == {
        "FormalSum": ["p"],
        "SurrogateParams": ["p", "t", "delta"],
        "binomial_valuation": ["a", "b", "p"],
        "build_interior_annihilator": ["p", "r", "alpha"],
        "delta": ["prec"],
        "dim_cusp": ["k", "level"],
        "eisenstein": ["k", "prec"],
        "factor_and_rank_checks": ["p", "R", "gamma"],
        "factorial_valuation": ["n", "p"],
        "hecke_matrix": ["p", "k"],
        "integer_log": ["p", "n"],
        "integrality_checks": ["p", "r", "alpha"],
        "is_regular": ["p", "k_max"],
        "matrix_entries_check": ["p", "r", "alpha"],
        "middle_mass_profile": ["p", "k_min", "k_max"],
        "miller_basis": ["k", "prec"],
        "slopes": ["p", "k"],
        "solve_interior_system": ["p", "r", "alpha", "u"],
        "supersingularity_measure": ["p", "k"],
        "support_bound": ["p", "k"],
        "teichmuller_lift": ["mu", "p", "M"],
        "valuation": ["n", "p"],
        "verify_vanishing_double_sum": ["p", "r", "alpha"],
        "verify_lemma": ["lemma_id", "p", "r", "alpha"],
    }


def test_int_exports_return_or_raise_value_error(timer):
    broken = []
    for name, (fn, params) in _int_exports().items():
        for args in itertools.product(VALUES, repeat=len(params)):
            outcome = timer(fn, *args)
            if outcome not in CONTRACT:
                broken.append((name, args, outcome))
    assert broken == []


def test_surrogate_grid_returns_or_raises_value_error(timer):
    broken, inside = [], 0
    for p, t, delta, alpha in itertools.product((5, 7, 13), VALUES, [v for v in VALUES if v >= 1], VALUES):
        sp = SurrogateParams(p, t, delta)
        valid = 0 <= alpha <= delta and alpha + delta <= t  # h_polys' window
        inside += valid
        allowed = ("returned",) if valid else CONTRACT
        for fn in (h_polys, verify_T_expansion):
            outcome = timer(fn, sp, alpha)
            if outcome not in allowed:
                broken.append((fn.__name__, p, t, delta, alpha, outcome))
    assert broken == []
    assert inside == 291


def test_the_timer_fires(timer):
    def spin():
        while True:
            pass

    assert timer(spin) == "CallTimeout"
    assert timer(int, "x") == "ValueError"
    assert timer(lambda: 1 // 0) == "ZeroDivisionError"


BAD_PRIMES = ("0", "1", "4", "-2")
LOW_BOUNDS = ("0", "-1")
FLAG = {bound: "--" + bound.replace("_", "-") for bound in BOUND_DEFAULTS}
# a small window of each verify target, so that a case that runs computes little
SMALL = {
    "lemma9": ["--a-max", "10"],
    "lambda-system": ["--R-max", "1", "--alpha-max", "2"],
    "det-factorization": ["--R-max", "1"],
    "rho-annihilator": ["--r-max", "30"],
    "hecke": ["--t-max", "3", "--delta-max", "1"],
}
# the other subcommands, each on a small valid input; each case adds its --p
OTHER_COMMANDS = {
    "hecke-check": ["hecke-check", "--t-max", "3", "--delta-max", "1"],
    "slopes": ["slopes", "--k", "12"],
    "measure": ["measure", "--k", "12..14"],
    "lambda": ["lambda", "--R", "1", "--alpha", "1"],
}


def _cli_cases(unwritable: str) -> list[list[str]]:
    cases = []
    for name, target in VERIFY_TARGETS.items():
        verify = ["verify", name]
        small = SMALL.get(name, ["--r-max", "10"])
        cases += [verify + ["--p", p, *small] for p in (*BAD_PRIMES, "2", "3")]
        cases += [verify + ["--p", "5", FLAG[b], v] for b in target.bounds for v in LOW_BOUNDS]
        cases += [verify + ["--p", "5", FLAG[b], "5"] for b in BOUND_DEFAULTS if b not in target.bounds]
        cases += [verify + ["--p", "5", f"--{pin}", "5"] for pin in ("r", "alpha") if pin not in target.pins]
        if "alpha" in target.pins:  # pinned cells outside every window: invalid-cell lines
            cases += [verify + ["--p", "5", "--r", r, "--alpha", a] for r in LOW_BOUNDS for a in LOW_BOUNDS]
        cases += [verify + ["--p", "5", *small, "--jobs", j] for j in LOW_BOUNDS]
        cases.append(verify + ["--p", "5", *small, "--out", unwritable])
    cases += [["verify", alias, "--p", "4"] for alias in TARGET_ALIASES]
    for argv in OTHER_COMMANDS.values():
        cases += [argv + ["--p", p] for p in (*BAD_PRIMES, "2", "3")]
        cases.append(argv + ["--p", "5", "--out", unwritable])
    cases += [["hecke-check", "--p", "5", f"--{b}", v] for b in ("t-max", "delta-max") for v in LOW_BOUNDS]
    cases += [["hecke-check", "--p", "5", "--r-max", "5"]]
    cases += [["slopes", "--p", "5", "--k", k] for k in LOW_BOUNDS]
    cases += [["measure", "--p", "5", "--k", "12", "--max-dim", d] for d in LOW_BOUNDS]
    cases += [["lambda", "--p", "5", "--R", R, "--alpha", a] for R in LOW_BOUNDS for a in LOW_BOUNDS]
    return cases


def test_cli_exits_0_or_2_with_one_error_line(tmp_path, capsys):
    broken = []
    cases = _cli_cases(str(tmp_path / "missing" / "out.csv"))
    for argv in cases:
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
        lines = capsys.readouterr().err.splitlines()
        errors = [line for line in lines if "error:" in line]
        invalid_cells = bool(lines) and all(line.startswith("invalid cell: ") for line in lines)
        if code not in (0, 2) or code == 2 and len(errors) != 1 and not invalid_cells:
            broken.append((argv, code, lines))
    assert broken == []
    assert len(cases) > 300
