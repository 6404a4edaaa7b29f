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
import io
import json
import multiprocessing
import os
import sys
from dataclasses import dataclass
from typing import Callable

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
    """'5,7,5' -> [5, 7]: sorted, without repeats."""
    try:
        return sorted({int(tok) for tok in text.split(",") if tok})
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _parse_range(text: str) -> list[int]:
    """'12' or '12..40' (inclusive, nonempty)."""
    try:
        lo, _, hi = text.partition("..")
        values = list(range(int(lo), int(hi or lo) + 1))
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


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# verify: the table of targets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One verify target.

    ``cells(p, args)`` lists the cells of one prime, honouring the pins named
    in ``pins``; ``check(*cell)`` returns (verdict, checked, margin or None,
    JSON record) and raises ValueError for a cell outside the hypotheses.
    ``shown(cell)`` gives the p, r and alpha columns of the CSV row.
    """

    cells: Callable
    check: Callable
    pins: tuple[str, ...] = ()
    primes: tuple[int, ...] = (5, 7, 11, 13)
    small_primes: bool = False  # whether p = 2, 3 are admissible
    shown: Callable = tuple
    notes: Callable = lambda records: []


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


def _integrality_alphas(p: int, r: int) -> list[int]:
    rho = comb.rho_of(p, r)
    rho_case = rho >= 1 and r == rho * (p + 1) + 1
    return lc.general_alphas(p, r) + ([rho] if rho_case else [])


def _double_sum_alphas(p: int, r: int) -> list[int]:
    rho = comb.rho_of(p, r)
    return [a for a in lc.general_alphas(p, r) if a <= rho + comb.rho_prime_of(p, r, a)]


def _check_lemma(lemma_id: int) -> Callable:
    def check(p, r, alpha=None):
        rep = lc.verify_lemma(lemma_id, p, r, alpha)
        return rep.verdict, rep.checked, rep.min_margin, lc.report_to_dict(rep)

    return check


def _check_lemma9(p, a_max):
    rep = lc.sweep_lemma9_with_oracle([p], a_max)[p]
    record = {
        "target": "lemma9", "p": p, "a_max": a_max,
        "verdict": rep.verdict, "checked": rep.checked,
        "max_valuation": rep.max_valuation_seen,
        "violations": list(rep.violations),
    }
    return rep.verdict, rep.checked, None, record


def _check_lambda_system(p, R, alpha):
    nums, den = comb.lambda_raw_table(p, R, alpha)
    ok = comb.lambda_identity_holds(p, alpha, nums, den)
    return _identity("lambda-system", ok, R + 1, p=p, R=R, alpha=alpha)


def _check_matrix_entries(p, r, alpha):
    m = comb.build_matrix_M(p, r, alpha)
    rank = comb.interior_rank_report(p, r, alpha)
    ok = comb.trinomial_revision_check(m) and rank.permutation_ok and rank.full_rank_mod_p
    return _identity("matrix-entries", ok, m.nrows * m.ncols, p=p, r=r, alpha=alpha, rank_R=rank.R)


def _check_det_factorization(p, R, gamma):
    rep = comb.factor_and_rank_checks(p, R, gamma)
    ok = rep.factorization_ok and rep.unitriangular_ok and rep.det_matches_closed_form
    ok = ok and rep.full_rank_mod_p
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
    sysm = comb.build_interior_annihilator(p, r, alpha)
    prof = comb.vartheta_profile(sysm)
    ok = (
        not sysm.residual()
        and prof.zero_below_alpha
        and prof.valuation_at_alpha_is_ecal
        and prof.valuations_ok_up_to >= 2 * comb.rho_of(p, r)
    )
    return _identity("interior-annihilator", ok, len(sysm.row_values), p=p, r=r, alpha=alpha)


def _check_double_sum(p, r, alpha):
    rep = comb.verify_vanishing_double_sum(p, r, alpha)
    return _identity("double-sum", rep.holds, len(rep.row_sums), p=p, r=r, alpha=alpha)


def _check_rho_annihilator(p, r):
    sysm = comb.build_interior_annihilator(p, r, comb.rho_of(p, r))
    ok = not sysm.residual() and comb.rho_zero_row_identity(sysm)[2]
    return _identity("rho-annihilator", ok, len(sysm.row_values), p=p, r=r)


def _check_integrality(p, r, alpha):
    rep = lc.integrality_checks(p, r, alpha)
    margin = min(rep.c_prime_min_valuation, rep.c_double_min_valuation)
    return _identity(
        "integrality", rep.holds, 2 * (rep.rho_prime + 1), margin, p=p, r=r, alpha=alpha, variant=rep.variant
    )


def _check_hecke(p, t, delta, alpha):
    sp = sh.SurrogateParams(p=p, t=t, delta=delta, alpha=alpha)
    rep = sh.verify_T_expansion(sp, alpha)
    ok = rep.matches and rep.combined_form_matches is not False
    return _identity(
        "hecke", ok, 1, p=p, t=t, delta=delta, alpha=alpha, mismatch=rep.first_mismatch
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


_GENERAL = _windowed(lc.general_alphas)
_BELOW_RHO = _windowed(lambda p, r: range(comb.rho_of(p, r)))
_RHO_CASE = _rho_shaped(lambda p, r_max: [r for _, r in lc.admissible_rho_cells(p, r_max)])

VERIFY_TARGETS = {
    "lemma9": Target(
        lambda p, args: [(p, args.a_max)], _check_lemma9,
        primes=(2, 3, 5, 7, 11, 13), small_primes=True,
    ),
    **{f"lemma{i}": Target(_GENERAL, _check_lemma(i), pins=("r", "alpha")) for i in (10, 11, 12)},
    **{f"lemma{i}": Target(_RHO_CASE, _check_lemma(i), pins=("r",), shown=_with_rho) for i in (13, 14, 15)},
    "lambda-system": Target(_lambda_cells, _check_lambda_system),
    "matrix-entries": Target(_BELOW_RHO, _check_matrix_entries, pins=("r", "alpha")),
    "det-factorization": Target(
        lambda p, args: [(p, R, g) for R in range(1, args.R_max + 1) for g in (0, 1, 2, 5, 11)],
        _check_det_factorization, notes=_det_notes,
    ),
    "interior-annihilator": Target(_BELOW_RHO, _check_interior_annihilator, pins=("r", "alpha")),
    "double-sum": Target(_windowed(_double_sum_alphas), _check_double_sum, pins=("r", "alpha")),
    "rho-annihilator": Target(
        # r = rho(p+1) + p - 2 with rho >= 1
        _rho_shaped(lambda p, r_max: range(2 * p - 1, r_max + 1, p + 1)), _check_rho_annihilator,
        pins=("r",), shown=_with_rho,
    ),
    "integrality": Target(_windowed(_integrality_alphas), _check_integrality, pins=("r", "alpha")),
    "hecke": Target(
        _hecke_cells, _check_hecke, primes=(5, 7),
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


def _verify_cell(name: str, *cell) -> tuple[list, dict]:
    """Run one verification cell; returns (csv row, json record).

    Module-level so multiprocessing can pickle it; every check is pure.
    Cells that violate a module precondition (possible when --r/--alpha pin
    tuples explicitly) are reported as rejected rather than silently skipped.
    """
    target = VERIFY_TARGETS[name]
    try:
        verdict, checked, margin, record = target.check(*cell)
    except ValueError as exc:
        row = [name, *_columns(cell), "rejected", "", 0]
        return row, {"target": name, "cell": list(cell), "rejected": str(exc)}
    margin = "" if margin is None else format_rational(margin)
    return [name, *_columns(target.shown(cell)), verdict, margin, checked], record


def _pool_starmap(fn: Callable, tasks: list[tuple], jobs: int) -> list:
    """[fn(*task) for task in tasks], in order, on up to ``jobs`` processes."""
    size = min(jobs, os.cpu_count() or 1, len(tasks))
    if size > 1:
        with multiprocessing.Pool(size) as pool:
            return pool.starmap(fn, tasks, chunksize=min(64, -(-len(tasks) // size)))
    return [fn(*t) for t in tasks]


def cmd_verify(args) -> int:
    name = TARGET_ALIASES.get(args.target, args.target)
    target = VERIFY_TARGETS[name]
    for pin in ("r", "alpha"):
        if getattr(args, pin) and pin not in target.pins:
            raise UsageError(f"target {name} does not take --{pin}")
    ps = _check_primes(args.p or list(target.primes))
    if not target.small_primes and min(ps) <= 3:
        raise UsageError(f"target {name} needs primes > 3, got {min(ps)}")
    tasks = sorted((name, *cell) for p in ps for cell in target.cells(p, args))
    results = _pool_starmap(_verify_cell, tasks, args.jobs)
    rows = [row for row, _ in results]
    records = [rec for _, rec in results]

    failures = [row for row in rows if row[4] == "fails"]
    rejected = [rec for rec in records if "rejected" in rec]
    notes = target.notes(records)
    if args.format == "json":
        payload = {"target": name, "records": records, "notes": notes,
                   "verified": not failures}
        _emit(_json_text(payload), args.out)
    else:
        text = _csv_text(VERIFY_HEADER, rows)
        for note in notes:
            text += f"# {note}\n"
        _emit(text, args.out)
    if failures:
        sys.stderr.write(f"counterexample: {failures[0]}\n")
        return 1
    if rejected:
        sys.stderr.write(f"invalid cell: {rejected[0]['cell']}: {rejected[0]['rejected']}\n")
        return 2
    return 0


# ---------------------------------------------------------------------------
# slopes / measure / lambda
# ---------------------------------------------------------------------------


def cmd_slopes(args) -> int:
    ks = [k for k in args.k if k % 2 == 0 and k >= 4]
    if not ks:
        raise UsageError("no even weights >= 4 in --k")
    tasks = [(p, k) for p in _check_primes(args.p) for k in ks]
    header = ms.SLOPES_CSV_HEADER + (["approx_decimal"] if args.approx else [])
    rows = []
    records = []
    for (p, k), svals in zip(tasks, _pool_starmap(mf.slopes, tasks, args.jobs)):
        records.append({"p": p, "k": k, "slopes": [format_rational(s) for s in svals]})
        for s in svals:
            row = [p, k, format_rational(s)]
            if args.approx:
                row.append("~" + ("inf" if s == INFINITY else f"{float(s):.6f}"))
            rows.append(row)
    if args.format == "json":
        _emit(_json_text({"records": records}), args.out)
    else:
        _emit(_csv_text(header, rows), args.out)
    return 0


def cmd_measure(args) -> int:
    table = ms.middle_mass_profile(
        _one_prime(args.p, "measure"), args.k[0], args.k[-1],
        include_newforms=args.include_newforms,
        max_dim=args.max_dim,
        starmap=lambda fn, tasks: _pool_starmap(fn, tasks, args.jobs),
    )
    data = ms.profile_to_dict(table)
    if args.format == "json":
        _emit(_json_text(data), args.out)
    else:
        header = ms.PROFILE_CSV_HEADER + (["masses"] if args.dump_masses else [])
        rows = [[";".join(row[h]) if h == "masses" else row[h] for h in header] for row in data["rows"]]
        text = _csv_text(header, rows)
        if table.cutoff:
            text += f"# cutoff: {table.cutoff}\n"
        _emit(text, args.out)
    if table.cutoff:
        sys.stderr.write(f"resource guard: {table.cutoff}\n")
    return 0


def cmd_lambda(args) -> int:
    p = _one_prime(args.p, "lambda")
    values = sorted(comb.lambda_values_by_differences(p, args.R, args.alpha).items())
    if args.format == "json":
        payload = {
            "p": p, "R": args.R, "alpha": args.alpha,
            "values": {str(b): format_rational(v) for b, v in values},
        }
        _emit(_json_text(payload), args.out)
    else:
        rows = [[b, format_rational(v)] for b, v in values]
        _emit(_csv_text(["beta", "value"], rows), args.out)
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
                            help="worker processes, at most the CPU count and the number of cells")

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
    v.add_argument("--r-max", type=int, default=200)
    v.add_argument("--a-max", type=int, default=2000)
    v.add_argument("--R-max", type=int, default=12)
    v.add_argument("--alpha-max", type=int, default=60)
    v.add_argument("--t-max", type=int, default=8)
    v.add_argument("--delta-max", type=int, default=4)
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
    h.add_argument("--t-max", type=int, default=8)
    h.add_argument("--delta-max", type=int, default=4)
    common(h)
    h.set_defaults(func=cmd_verify, target="hecke", r=None, alpha=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.out = _resolve_out(args.out)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
