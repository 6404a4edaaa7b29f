"""Byte-level golden outputs of the command line.

Each case is one small invocation whose exact output is stored under
``tests/golden/<name>``; the test reruns it and compares bytes and the exit
code.  The fixtures are a safety net for refactors: any change to a verdict,
a row, a column or the serialization shows up here.

With PADICSLOPES_GOLDEN_ENTRY_POINT naming an installed console script, each
case runs through that script in a child process instead, and its stdout is
compared with the fixture, so the installed entry point is checked on every
case:

    PADICSLOPES_GOLDEN_ENTRY_POINT=padicslopes python3 -m pytest tests/test_golden.py

Rewrite the fixtures, and the demo outputs under ``tests/golden/demos/``
(only when an output change is intended), with

    PYTHONPATH=src python3 tests/test_golden.py

which prints the path of every file whose bytes changed.
"""

import os
import subprocess
import sys

import pytest

from padicslopes.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
ENTRY_POINT = os.environ.get("PADICSLOPES_GOLDEN_ENTRY_POINT")

# one small configuration per verify target (and one alias), in both formats
VERIFY = {
    "lemma9": "--p 2,3,5 --a-max 60",
    "lemma10": "--p 5,7 --r-max 30",
    "lemma10-pinned": "--p 5 --r 40 --alpha 9..10",
    "lemma11": "--p 5,7 --r-max 30",
    "lemma12": "--p 5,7 --r-max 30",
    "lemma12-pinned-r": "--p 5 --r 40",
    "lemma13": "--p 5,7 --r-max 80",
    "lemma13-pinned": "--p 5,7 --r 25",
    "lemma14": "--p 5,7 --r-max 80",
    "lemma15": "--p 5,7 --r-max 80",
    "lambda-system": "--p 5,7 --R-max 4 --alpha-max 12",
    "matrix-entries": "--p 5,7 --r-max 30",
    "matrix-entries-pinned": "--p 5 --r 26 --alpha 0..3",
    "det-factorization": "--p 5 --R-max 5",
    "interior-annihilator": "--p 5,7 --r-max 30",
    "interior-annihilator-pinned": "--p 5 --r 47 --alpha 0..2",
    "double-sum": "--p 5,7 --r-max 40",
    "double-sum-pinned-r": "--p 5 --r 30..31",
    "rho-annihilator": "--p 5,7 --r-max 60",
    "integrality": "--p 5,7 --r-max 40",
    "integrality-pinned-r": "--p 5 --r 40",
    "hecke": "--p 5 --t-max 4 --delta-max 2",
    "eq88": "--p 5 --r-max 30",
}

CASES = []
for _name, _args in VERIFY.items():
    _target = _name.split("-pinned")[0]
    for _fmt in ("csv", "json"):
        CASES.append((f"verify-{_name}.{_fmt}", ["verify", _target, *_args.split(), "--format", _fmt], 0))
CASES += [
    # a pinned cell outside the double-sum hypotheses is reported, exit 2
    ("verify-double-sum-rejected.csv", "verify double-sum --p 5 --r 14 --alpha 2..3".split(), 2),
    ("verify-double-sum-rejected.json",
     "verify double-sum --p 5 --r 14 --alpha 2..3 --format json".split(), 2),
    # pinned cells above the matrix-entries window (alpha > rho = 2) are reported, exit 2
    ("verify-matrix-entries-rejected.csv", "verify matrix-entries --p 5 --r 14 --alpha 0..4".split(), 2),
    ("verify-matrix-entries-rejected.json",
     "verify matrix-entries --p 5 --r 14 --alpha 0..4 --format json".split(), 2),
    # pinned cells at and above rho = 4 are reported, exit 2
    ("verify-interior-annihilator-rejected.csv", "verify interior-annihilator --p 5 --r 26 --alpha 0..5".split(), 2),
    ("verify-interior-annihilator-rejected.json",
     "verify interior-annihilator --p 5 --r 26 --alpha 0..5 --format json".split(), 2),
    # r = 14 is not of the rho shape r = rho(p+1) + p - 2 and is reported, exit 2
    ("verify-rho-annihilator-rejected.csv", "verify rho-annihilator --p 5 --r 14..15".split(), 2),
    ("verify-rho-annihilator-rejected.json", "verify rho-annihilator --p 5 --r 14..15 --format json".split(), 2),
    ("slopes.csv", "slopes --p 2,5 --k 12..30".split(), 0),
    ("slopes-approx.csv", "slopes --p 5,59 --k 12..16 --approx".split(), 0),
    ("slopes.json", "slopes --p 2,5 --k 12..24 --format json".split(), 0),
    ("measure-dump-masses.csv", "measure --p 59 --k 12..24 --dump-masses".split(), 0),
    ("measure-newforms.csv", "measure --p 5 --k 12..30 --include-newforms --dump-masses".split(), 0),
    ("measure-newforms.json", "measure --p 5 --k 12..20 --include-newforms --format json".split(), 0),
    ("measure-max-dim.csv", "measure --p 5 --k 12..60 --max-dim 2".split(), 0),
    ("measure-max-dim.json", "measure --p 5 --k 12..60 --max-dim 2 --format json".split(), 0),
    ("lambda.csv", "lambda --p 5 --R 3 --alpha 7".split(), 0),
    ("lambda.json", "lambda --p 7 --R 4 --alpha 9 --format json".split(), 0),
    ("hecke-check.csv", "hecke-check --p 5,7 --t-max 4 --delta-max 2".split(), 0),
    ("hecke-check.json", "hecke-check --p 5 --t-max 3 --format json".split(), 0),
    # 13 of the 120 cells, p = 5 at delta = 4 and p = 7 at delta = 6, have 2 | delta and
    # (p - 1) | delta, where the single-power xi-sum applies (see symhecke.verify_T_expansion)
    ("hecke-check-applicable.csv", "hecke-check --p 5,7 --t-max 7 --delta-max 6".split(), 0),
    ("hecke-check-applicable.json", "hecke-check --p 5,7 --t-max 7 --delta-max 6 --format json".split(), 0),
]

# one case per command and format, replayed to stdout instead of --out
STDOUT_CASES = [case for case in CASES if case[0] in {
    f"{stem}.{fmt}" for stem in ("verify-det-factorization", "slopes", "measure-max-dim", "lambda", "hecke-check")
    for fmt in ("csv", "json")
}]


def _run(argv, path):
    return main([*argv, "--out", str(path)])


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, code, tmp_path):
    if ENTRY_POINT:
        proc = subprocess.run([ENTRY_POINT, *argv], capture_output=True, timeout=120)
        got, output = proc.returncode, proc.stdout
    else:
        out = tmp_path / name
        got = _run(argv, out)
        output = out.read_bytes()
    assert got == code
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert output == fh.read()


@pytest.mark.parametrize("name,argv,code", STDOUT_CASES, ids=[c[0] for c in STDOUT_CASES])
def test_golden_stdout(name, argv, code, capsys):
    assert main(argv) == code
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()


def _read(path):
    """The bytes of path, or None if it does not exist."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv, code in CASES:
        path = os.path.join(GOLDEN, name)
        before = _read(path)
        got = _run(argv, path)
        if got != code:
            sys.exit(f"{name}: exit code {got}, expected {code}")
        if _read(path) != before:
            print(f"rewrote {os.path.relpath(path)}")
    from test_demos import DEMOS, GOLDEN_DEMOS, fixture_path, run_demo

    os.makedirs(GOLDEN_DEMOS, exist_ok=True)
    for path in DEMOS:
        proc = run_demo(path)
        if proc.returncode:
            sys.exit(f"{path}: exit code {proc.returncode}\n{proc.stderr.decode()}")
        if _read(fixture_path(path)) != proc.stdout:
            with open(fixture_path(path), "wb") as fh:
                fh.write(proc.stdout)
            print(f"rewrote {os.path.relpath(fixture_path(path))}")
