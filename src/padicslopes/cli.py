"""Command-line front end: verification sweeps, slope tables, and measure
profiles with machine-readable output.

All numeric output is exact (integers or num/den rationals).  Exit codes:
0 every admissible cell verified, 1 a counterexample was found, 2 usage or
configuration error.  Runs are deterministic: cells are enumerated in sorted
order and workers return results in that order, so identical configurations
produce byte-identical outputs at any --jobs level.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import multiprocessing
import os
import sys
from dataclasses import asdict, dataclass
from typing import Callable

from . import _memo
from . import combinatorics as comb
from . import lemma_checks as lc
from . import measures as ms
from . import modforms as mf
from . import symhecke as sh
from .padic import INFINITY, format_rational, is_prime

OUT_DIR_ENV = "PADICSLOPES_OUT_DIR"


class UsageError(Exception):
    pass


def _parse_int_list(text: str) -> list[int]:
    """'5,7,5' -> [5, 7]: sorted, without repeats, and not empty."""
    try:
        values = sorted({int(tok) for tok in text.split(",") if tok})
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"empty integer list {text!r}")
    return values


def _parse_range(text: str) -> list[int]:
    """'12' or '12..40' (inclusive, nonempty; both bounds given)."""
    lo, dots, hi = text.partition("..")
    try:
        values = list(range(int(lo), int(hi if dots else lo) + 1))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return values


def _parse_jobs(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"--jobs must be an integer >= 1, got {text!r}")
    return int(text)


def _check_primes(ps: list[int]) -> list[int]:
    for p in ps:
        if not is_prime(p):
            raise UsageError(f"{p} is not prime")
    return ps


def _one_prime(ps: list[int], command: str) -> int:
    if len(ps) != 1:
        raise UsageError(f"{command} takes one prime, got {','.join(map(str, ps))}")
    return _check_primes(ps)[0]


def _even_weights(ks: list[int]) -> list[int]:
    """The even weights >= 4 in ks; none at all is a usage error."""
    evens = [k for k in ks if k % 2 == 0 and k >= 4]
    if not evens:
        raise UsageError("no even weights >= 4 in --k")
    return evens


def _write(args, header: list[str], output: Callable) -> None:
    """Write a command's output, the only writer of CSV and JSON.

    ``output(as_json)`` builds what ``--format`` asks for, so only that is
    built: for JSON the payload dict, in which Fractions and INFINITY may
    stand raw (they render through format_rational), for CSV (rows, notes),
    written as ``header``, the rows and one ``# note`` line per note.  The
    text goes to ``--out`` (a relative path is taken under
    $PADICSLOPES_OUT_DIR when that is set), else to stdout.
    """
    as_json = args.format == "json"
    built = output(as_json)
    if as_json:
        text = json.dumps(built, indent=2, sort_keys=True, default=format_rational) + "\n"
    else:
        rows, notes = built
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue() + "".join(f"# {note}\n" for note in notes)
    if args.out is None:
        sys.stdout.write(text)
        return
    path = os.path.join(os.environ.get(OUT_DIR_ENV, ""), args.out)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:  # exit 2, not the counterexample code 1
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _lemma_record(report: lc.LemmaReport) -> dict:
    """The JSON record of a lemma report; each witness gets its margin and strict flag here."""
    v0, v_x0 = report.v_x0, format_rational(report.v_x0)
    return {
        "lemma_id": report.lemma_id,
        "p": report.p,
        "r": report.r,
        "alpha": report.alpha,
        "rho": report.rho,
        "rho_prime": report.rho_prime,
        "verdict": report.verdict,
        "checked": report.checked,
        "min_margin": None if report.min_margin is None else format_rational(report.min_margin),
        "witnesses": [
            {
                "index": i,
                "kind": report.kind,
                "v_X0": v_x0,
                "v_other": format_rational(v),
                "margin": format_rational(v - v0),
                "strict": v > v0,
            }
            for i, v in report.witnesses
        ],
    }


PROFILE_HEADER = ["p", "k", "dim_old", "dim_new", "count_middle", "fraction_middle", "left_end", "right_end"]


# ---------------------------------------------------------------------------
# verify: the table of targets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One verify target.

    ``cells(p, args)`` lists the cells of one prime, honouring the pins named
    in ``pins`` and reading the window bounds named in ``bounds`` (keys of
    BOUND_DEFAULTS); ``check(*cell)`` returns (verdict, checked, margin or None,
    item) and raises ValueError for a cell outside the hypotheses.  The item
    is the cell's JSON record, or a lemma report that ``_record`` turns into
    one only when a record is needed (JSON output or a failing cell).
    ``shown(cell)`` gives the p, r and alpha columns of the CSV row, and
    ``notes(items)``, if set, the notes of a sweep from the items of all its
    cells.  ``key(cell)`` names what a cell's check memoizes: under --jobs
    the cells of one key go to one worker.
    """

    cells: Callable
    check: Callable
    pins: tuple[str, ...] = ()
    bounds: tuple[str, ...] = ("r_max",)
    primes: tuple[int, ...] = (5, 7, 11, 13)
    shown: Callable = tuple
    notes: Callable | None = None
    key: Callable = tuple


def _identity(name: str, ok: bool, checked: int, margin=None, **fields) -> tuple:
    """The check result of an identity target, whose record holds the cell."""
    return "holds" if ok else "fails", checked, margin, {"target": name, "holds": ok, **fields}


def _windowed(window: Callable) -> Callable:
    """(p, r, alpha) cells: r from --r, else 1..--r-max.  With both --r and
    --alpha the cells are taken literally (invalid ones are rejected);
    otherwise alpha runs over window(p, r), restricted to --alpha if given."""

    def cells(p, args):
        out = []
        for r in args.r or range(1, args.r_max + 1):
            if args.r and args.alpha:
                alphas = args.alpha
            else:
                alphas = [a for a in window(p, r) if not args.alpha or a in args.alpha]
            out += [(p, r, a) for a in alphas]
        return out

    return cells


def _rho_shaped(rs: Callable) -> Callable:
    """(p, r) cells: r from --r (taken literally), else rs(p, r_max)."""
    return lambda p, args: [(p, r) for r in args.r or rs(p, args.r_max)]


def _with_rho(cell: tuple) -> tuple:
    return (*cell, comb.rho_of(*cell))


def _p_and_r(cell: tuple) -> tuple[int, int]:
    """(p, r): the key of the binomial diagonal table whose rows an identity
    cell (p, r, alpha) reads."""
    return cell[:2]


def _integrality_alphas(p: int, r: int) -> list[int]:
    return comb.general_alphas(p, r) + ([comb.rho_of(p, r)] if r in comb.rho_case_rs(p, r) else [])


def _check_lemma(lemma_id: int) -> Callable:
    def check(p, r, alpha=None):
        rep = lc.verify_lemma(lemma_id, p, r, alpha)
        return rep.verdict, rep.checked, rep.min_margin, rep

    return check


def _check_lemma9(p, a_max):
    rep = lc.sweep_lemma9(p, a_max)
    record = {
        "target": "lemma9", "p": p, "a_max": a_max,
        "verdict": rep.verdict, "checked": rep.checked,
        "max_valuation": rep.max_valuation_seen,
        "violations": [],  # always empty: lemma_checks.sweep_lemma9 proves the bound
    }
    return rep.verdict, rep.checked, None, record


def _check_lambda_system(p, R, alpha):
    nums, den = comb.lambda_raw_table(p, R, alpha)
    ok = comb.lambda_identity_holds(p, alpha, nums, den)
    return _identity("lambda-system", ok, R + 1, p=p, R=R, alpha=alpha)


def _check_matrix_entries(p, r, alpha):
    ok, nrows = comb.matrix_entries_check(p, r, alpha)
    return _identity("matrix-entries", ok, nrows * (comb.rho_of(p, r) + 1), p=p, r=r, alpha=alpha, rank_R=nrows)


def _check_det_factorization(p, R, gamma):
    rep = comb.factor_and_rank_checks(p, R, gamma)
    ok = rep.factorization_ok and rep.det_matches_closed_form
    return _identity(
        "det-factorization", ok, R * R, p=p, R=R, gamma=gamma,
        det=rep.det_binomial, closed_form=rep.det_expected,
        linear_power_agrees=rep.linear_power_agrees,
    )


def _det_notes(records: list[dict]) -> list[str]:
    disagreements = sum(rec.get("linear_power_agrees") is False for rec in records)
    return [
        "note: determinant closed form is (p-1)^(R(R-1)/2), not "
        f"(p-1)^R (the forms differ on {disagreements} cells; "
        "both are units mod p, so full rank is unaffected)"
    ] if disagreements else []


def _check_interior_annihilator(p, r, alpha):
    comb.below_rho_rho_prime(p, r, alpha)  # at alpha = rho the builder would take the rho-annihilator shape
    sysm = comb.build_interior_annihilator(p, r, alpha)
    return _identity("interior-annihilator", not sysm.residual(), len(sysm.row_values), p=p, r=r, alpha=alpha)


def _check_double_sum(p, r, alpha):
    rep = comb.verify_vanishing_double_sum(p, r, alpha)
    return _identity("double-sum", rep.holds, len(rep.row_sums), p=p, r=r, alpha=alpha)


def _check_rho_annihilator(p, r):
    sysm = comb.build_interior_annihilator(p, r, comb.rho_of(p, r))
    return _identity("rho-annihilator", not sysm.residual(), len(sysm.row_values), p=p, r=r)


def _check_integrality(p, r, alpha):
    rep = lc.integrality_checks(p, r, alpha)
    # one per constant: rho'+1 C'_l, which the verdict reads, and rho'+1 C''_j, which follow from them
    checked, margin = 2 * (rep.rho_prime + 1), rep.c_prime_min_valuation
    return _identity("integrality", rep.holds, checked, margin, p=p, r=r, alpha=alpha, variant=rep.variant)


def _check_hecke(p, t, delta, alpha):
    rep = sh.verify_T_expansion(sh.SurrogateParams(p=p, t=t, delta=delta), alpha)
    return _identity(
        "hecke", rep.matches, 1, p=p, t=t, delta=delta, alpha=alpha, mismatch=rep.first_mismatch
    )


def _lambda_cells(p, args):
    samples = range(1, args.alpha_max + 1, max(1, args.alpha_max // 12))
    return [(p, R, alpha) for R in range(args.R_max + 1) for alpha in samples if alpha >= R]


def _hecke_cells(p, args):
    return [
        (p, t, delta, alpha)
        for t in range(2, args.t_max + 1)
        for delta in range(1, min(args.delta_max, t) + 1)
        for alpha in range(0, delta + 1)
        if alpha + delta <= t
    ]


_GENERAL = _windowed(comb.general_alphas)
_BELOW_RHO = _windowed(comb.below_rho_alphas)
_RHO_CASE = _rho_shaped(comb.rho_case_rs)

# the window bounds of verify and hecke-check, each read by the targets that name it
BOUND_DEFAULTS = {"r_max": 200, "a_max": 2000, "R_max": 12, "alpha_max": 60, "t_max": 8, "delta_max": 4}

VERIFY_TARGETS = {
    "lemma9": Target(
        lambda p, args: [(p, args.a_max)], _check_lemma9, bounds=("a_max",), primes=(2, 3, 5, 7, 11, 13),
    ),
    **{f"lemma{i}": Target(_GENERAL, _check_lemma(i), pins=("r", "alpha")) for i in (10, 11)},
    "lemma12": Target(_GENERAL, _check_lemma(12), pins=("r", "alpha"), key=lc.table_key),
    **{f"lemma{i}": Target(_RHO_CASE, _check_lemma(i), pins=("r",), shown=_with_rho) for i in (13, 14)},
    "lemma15": Target(_RHO_CASE, _check_lemma(15), pins=("r",), shown=_with_rho, key=lc.table_key),
    "lambda-system": Target(_lambda_cells, _check_lambda_system, bounds=("R_max", "alpha_max")),
    "matrix-entries": Target(_BELOW_RHO, _check_matrix_entries, pins=("r", "alpha"), key=_p_and_r),
    "det-factorization": Target(
        lambda p, args: [(p, R, g) for R in range(1, args.R_max + 1) for g in (0, 1, 2, 5, 11)],
        _check_det_factorization, bounds=("R_max",), notes=_det_notes,
    ),
    "interior-annihilator": Target(_BELOW_RHO, _check_interior_annihilator, pins=("r", "alpha"), key=_p_and_r),
    "double-sum": Target(_GENERAL, _check_double_sum, pins=("r", "alpha"), key=_p_and_r),
    "rho-annihilator": Target(
        _rho_shaped(comb.rho_annihilator_rs), _check_rho_annihilator, pins=("r",), shown=_with_rho,
    ),
    "integrality": Target(_windowed(_integrality_alphas), _check_integrality, pins=("r", "alpha"), key=lc.table_key),
    "hecke": Target(
        _hecke_cells, _check_hecke, bounds=("t_max", "delta_max"), primes=(5, 7),
        shown=lambda cell: (cell[0], cell[1], f"{cell[2]}/{cell[3]}"),
    ),
}

# short ids accepted interchangeably with the descriptive names
TARGET_ALIASES = {
    "eq34": "lambda-system",
    "eq59": "matrix-entries",
    "det66": "det-factorization",
    "eq71": "interior-annihilator",
    "eq88": "double-sum",
    "eq105": "rho-annihilator",
}

VERIFY_HEADER = ["target", "p", "r", "alpha", "verdict", "min_margin", "checked"]


def _columns(values: tuple) -> list:
    """The p, r and alpha columns of a row, padded to three."""
    return list(values[:3]) + [""] * (3 - len(values[:3]))


def _record(item) -> dict:
    """The JSON record of a check result's item."""
    return _lemma_record(item) if isinstance(item, lc.LemmaReport) else item


def _verify_cell(name: str, keep: bool, *cell) -> tuple[list, dict | lc.LemmaReport | None]:
    """Run one verification cell; returns (csv row, item), the item a JSON
    record or a lemma report (see ``Target``).  Unless ``keep``, a holds or
    vacuous cell returns None for its item, so that neither the results nor
    the pool's pipe carry what a CSV sweep never prints.

    Module-level so multiprocessing can pickle it; every check is pure.
    Cells that violate a module precondition (possible when --r/--alpha pin
    tuples explicitly) are reported as rejected rather than silently skipped.
    """
    target = VERIFY_TARGETS[name]
    try:
        verdict, checked, margin, item = target.check(*cell)
    except ValueError as exc:
        row = [name, *_columns(cell), "rejected", "", 0]
        return row, {"target": name, "cell": list(cell), "rejected": str(exc)}
    margin = "" if margin is None else format_rational(margin)
    if not keep and verdict in ("holds", "vacuous"):
        item = None
    return [name, *_columns(target.shown(cell)), verdict, margin, checked], item


def _run_group(fn: Callable, tasks: list[tuple]) -> list:
    """[fn(*task) for task in tasks]: one pool task, a whole key group."""
    return [fn(*t) for t in tasks]


def _pool_starmap(fn: Callable, tasks: list[tuple], jobs: int, key: Callable | None = None) -> list:
    """[fn(*task) for task in tasks], in order, on up to ``jobs`` processes.

    The tasks sharing a ``key(task)`` go to one worker together (without a
    key each task is its own group), so a worker's memo builds each key once;
    the results are put back in task order.
    """
    size = min(jobs, os.cpu_count() or 1, len(tasks))
    if size > 1:
        groups: dict = {}
        for index, task in enumerate(tasks):
            groups.setdefault(key(task) if key else index, []).append(index)
        size = min(size, len(groups))
    if size <= 1:
        return [fn(*t) for t in tasks]
    dealt = [(fn, [tasks[i] for i in group]) for group in groups.values()]
    with multiprocessing.Pool(size) as pool:
        done = pool.starmap(_run_group, dealt, chunksize=min(64, -(-len(dealt) // size)))
    results = [None] * len(tasks)
    for group, out in zip(groups.values(), done):
        for index, result in zip(group, out):
            results[index] = result
    return results


def cmd_verify(args) -> int:
    name = TARGET_ALIASES.get(args.target, args.target)
    target = VERIFY_TARGETS[name]
    for opt in ("r", "alpha", *BOUND_DEFAULTS):
        if getattr(args, opt, None) is not None and opt not in target.pins + target.bounds:
            raise UsageError(f"target {name} does not take --{opt.replace('_', '-')}")
    if args.r is not None and args.r_max is not None:  # the cells would ignore --r-max
        raise UsageError(f"target {name} takes --r or --r-max, not both")
    for bound in target.bounds:
        if getattr(args, bound) is None:
            setattr(args, bound, BOUND_DEFAULTS[bound])
    ps = _check_primes(args.p or list(target.primes))
    if min(ps) <= 3 < min(target.primes):  # a target whose default primes are > 3 needs p > 3
        raise UsageError(f"target {name} needs primes > 3, got {min(ps)}")
    cells = sorted(cell for p in ps for cell in target.cells(p, args))
    if not cells:
        raise UsageError(f"no cells of target {name} in the requested window")
    results = []

    def output(as_json: bool):
        keep = as_json or target.notes is not None  # else only fails and rejected cells keep their items
        results.extend(_pool_starmap(functools.partial(_verify_cell, name, keep), cells, args.jobs, target.key))
        notes = target.notes([item for _, item in results]) if target.notes else []
        if not as_json:
            return [row for row, _ in results], notes
        records = [_record(item) for _, item in results]
        verified = all(row[4] not in ("fails", "rejected") for row, _ in results)
        return {"target": name, "records": records, "notes": notes, "verified": verified}

    _write(args, VERIFY_HEADER, output)
    failures = [_record(item) for row, item in results if row[4] == "fails"]
    rejected = [item for row, item in results if row[4] == "rejected"]
    for rec in failures:
        sys.stderr.write(f"counterexample: {json.dumps(rec, sort_keys=True)}\n")
    for rec in rejected:
        sys.stderr.write(f"invalid cell: {rec['cell']}: {rec['rejected']}\n")
    return 1 if failures else 2 if rejected else 0


# ---------------------------------------------------------------------------
# slopes / measure / lambda
# ---------------------------------------------------------------------------


def cmd_slopes(args) -> int:
    ks = _even_weights(args.k)
    table = mf.slope_table(_check_primes(args.p), ks, lambda fn, tasks: _pool_starmap(fn, tasks, args.jobs))
    found = sorted(table.items())

    def output(as_json: bool):
        if as_json:
            return {"records": [{"p": p, "k": k, "slopes": svals} for (p, k), svals in found]}
        return [
            [p, k, format_rational(s)] + (["~" + ("inf" if s == INFINITY else f"{float(s):.6f}")] if args.approx else [])
            for (p, k), svals in found for s in svals
        ], []

    _write(args, ["p", "k", "slope"] + (["approx_decimal"] if args.approx else []), output)
    return 0


def cmd_measure(args) -> int:
    """The middle-mass profile of one prime.  Its JSON is the ProfileTable
    itself, whose fields are the record's keys; a CSV row holds the columns
    of PROFILE_HEADER and, with --dump-masses, the masses joined by ';'."""
    p = _one_prime(args.p, "measure")
    ks = _even_weights(args.k)
    table = ms.middle_mass_profile(
        p, ks[0], ks[-1],
        include_newforms=args.include_newforms,
        max_dim=args.max_dim,
        starmap=lambda fn, tasks: _pool_starmap(fn, tasks, args.jobs),
    )

    def output(as_json: bool):
        if as_json:
            return asdict(table)
        rows = [
            [format_rational(getattr(row, h)) for h in PROFILE_HEADER]
            + ([";".join(map(format_rational, row.masses))] if args.dump_masses else [])
            for row in table.rows
        ]
        return rows, [f"cutoff: {table.cutoff}"] if table.cutoff else []

    _write(args, PROFILE_HEADER + (["masses"] if args.dump_masses else []), output)
    if table.cutoff:
        sys.stderr.write(f"resource guard: {table.cutoff}\n")
    return 0


def cmd_lambda(args) -> int:
    p = _one_prime(args.p, "lambda")
    values = sorted(comb.lambda_values_by_differences(p, args.R, args.alpha).items())

    def output(as_json: bool):
        if as_json:
            return {"p": p, "R": args.R, "alpha": args.alpha, "values": {str(b): v for b, v in values}}
        return [[b, format_rational(v)] for b, v in values], []

    _write(args, ["beta", "value"], output)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicslopes",
        description="Exact verification sweeps, Hecke slopes, and supersingularity measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, jobs=True):
        sp.add_argument("--format", choices=["csv", "json"], default="csv")
        sp.add_argument("--out", type=str, default=None,
                        help=f"output path (relative paths use ${OUT_DIR_ENV} when set)")
        if jobs:
            sp.add_argument("--jobs", type=_parse_jobs, default=1,
                            help="worker processes: the pool has min(--jobs, CPU count, task groups)")

    def bounds(sp, *names):  # None: cmd_verify fills the default of a bound the target reads
        for dest in names:
            sp.add_argument("--" + dest.replace("_", "-"), type=int, default=None)

    v = sub.add_parser("verify", help="run an identity or lemma sweep")
    v.add_argument(
        "target",
        choices=tuple(VERIFY_TARGETS) + tuple(TARGET_ALIASES),
        metavar="target",
        help=f"one of {', '.join(VERIFY_TARGETS)} (short ids: {', '.join(TARGET_ALIASES)})",
    )
    v.add_argument("--p", type=_parse_int_list, default=None)
    v.add_argument("--r", type=_parse_range, default=None,
                   help="pin specific r values instead of sweeping to --r-max "
                        "(targets that take no pin exit with 2)")
    v.add_argument("--alpha", type=_parse_range, default=None,
                   help="pin specific alpha values (invalid cells are reported)")
    bounds(v, *BOUND_DEFAULTS)
    common(v)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("slopes", help="slope multisets of the Hecke operator")
    s.add_argument("--p", type=_parse_int_list, required=True)
    s.add_argument("--k", type=_parse_range, required=True)
    s.add_argument("--approx", action="store_true",
                   help="append a clearly-marked decimal column for humans")
    common(s)
    s.set_defaults(func=cmd_slopes)

    m = sub.add_parser("measure", help="middle-interval mass profile")
    m.add_argument("--p", type=_parse_int_list, required=True)
    m.add_argument("--k", type=_parse_range, required=True)
    group = m.add_mutually_exclusive_group()
    group.add_argument("--oldforms", dest="include_newforms", action="store_false")
    group.add_argument("--include-newforms", dest="include_newforms", action="store_true")
    m.set_defaults(include_newforms=False)
    m.add_argument("--max-dim", type=int, default=80)
    m.add_argument("--dump-masses", action="store_true")
    common(m)
    m.set_defaults(func=cmd_measure)

    l = sub.add_parser("lambda", help="dump one Lambda coefficient table")
    l.add_argument("--p", type=_parse_int_list, required=True)
    l.add_argument("--R", type=int, required=True)
    l.add_argument("--alpha", type=int, required=True)
    common(l, jobs=False)  # one table: nothing to share out
    l.set_defaults(func=cmd_lambda)

    h = sub.add_parser("hecke-check", help="Hecke expansion identity grid")
    h.add_argument("--p", type=_parse_int_list, default=None)
    bounds(h, "t_max", "delta_max")
    common(h)
    h.set_defaults(func=cmd_verify, target="hecke", r=None, alpha=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _memo.reset()  # no invocation reads another's memoized tables or verdicts
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
