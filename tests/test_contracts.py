"""The boundary contract of the public API: every export returns or raises
ValueError, and does so promptly, on any small int input, including
non-primes, 0, negatives and the p <= 3 edge.  Each call runs under a 0.5 s
SIGALRM timer in this process; no thread or pool is started."""

import inspect
import itertools
import signal

import pytest

import padicslopes
from padicslopes import SurrogateParams, h_polys, verify_T_expansion

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
        "build_matrix_M": ["p", "r", "alpha"],
        "delta": ["prec"],
        "dim_cusp": ["k", "level"],
        "eisenstein": ["k", "prec"],
        "factor_and_rank_checks": ["p", "R", "gamma"],
        "factorial_valuation": ["n", "p"],
        "hecke_matrix": ["p", "k"],
        "integer_log": ["p", "n"],
        "integrality_checks": ["p", "r", "alpha"],
        "is_regular": ["p", "k_max"],
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
