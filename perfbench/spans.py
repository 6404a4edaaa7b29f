"""Spans around the calls into each module's public functions.

Tracing rebinds each function where its caller looks it up (a module
global or a class attribute) to a wrapper that records a span, and puts the
original back afterwards.  Nothing inside ``src/`` changes.  Per-call hot
primitives (``binomial_valuation``, ``valuation``) are not wrapped: their
cost shows as self time of the enclosing span, and ``triples`` counts the
carry computations of the lemma-9 sweep from its arguments instead.

A span is ``(name, start_ns, end_ns, parent, invocation, work)`` where
``parent`` is the index of the enclosing span (-1 at top level) and
``work`` is a size computed from the call's arguments or result.
"""

from __future__ import annotations

import importlib
import time


def _points(args, result):
    return len(args[0])


def _terms(args, result):
    # schoolbook product of two truncated series: prec(prec+1)/2 coefficient
    # products at most, so this count is computed, not measured
    prec = min(args[0].prec, args[1].prec)
    return prec * (prec + 1) // 2


def _triples(args, result):
    ps, a_max = args
    return len(ps) * (a_max * (a_max + 1) // 2 + a_max)


def _vacuous(args, result):
    return int(result.verdict == "vacuous")


def _dimension(args, result):
    return args[0].d


# span name -> (binding sites "module:attr" or "module:Class.attr", work, work stat)
WRAPPED = {
    "cli.main": ((), None, None),  # opened by the benchmark around each invocation
    "exactlinalg.lagrange_interpolate": (
        ("combinatorics:lagrange_interpolate", "modforms:lagrange_interpolate"), _points, "points"),
    "exactlinalg.bareiss_det": (("combinatorics:bareiss_det", "modforms:bareiss_det"), None, None),
    "exactlinalg.rank_mod_p": (("combinatorics:rank_mod_p",), None, None),
    "combinatorics.build_interior_annihilator": (("combinatorics:build_interior_annihilator",), None, None),
    "combinatorics.AnnihilatorSystem.residual": (("combinatorics:AnnihilatorSystem.residual",), None, None),
    "combinatorics.vartheta_profile": (("combinatorics:vartheta_profile",), None, None),
    "combinatorics.build_rho_annihilator": (("combinatorics:build_rho_annihilator",), None, None),
    "combinatorics.verify_vanishing_double_sum": (("combinatorics:verify_vanishing_double_sum",), None, None),
    "combinatorics.lambda_coefficients": (("combinatorics:lambda_coefficients",), None, None),
    "combinatorics.lambda_raw_table": (
        ("combinatorics:lambda_raw_table", "lemma_checks:lambda_raw_table"), None, None),
    "combinatorics.lambda_values_by_differences": (
        ("combinatorics:lambda_values_by_differences", "lemma_checks:lambda_values_by_differences"),
        None, None),
    "combinatorics.build_matrix_M": (("combinatorics:build_matrix_M",), None, None),
    "combinatorics.trinomial_revision_check": (("combinatorics:trinomial_revision_check",), None, None),
    "combinatorics.interior_rank_report": (("combinatorics:interior_rank_report",), None, None),
    "lemma_checks.sweep_lemma9_with_oracle": (
        ("lemma_checks:sweep_lemma9_with_oracle",), _triples, "triples"),
    "lemma_checks.verify_lemma": (("lemma_checks:verify_lemma",), _vacuous, "vacuous"),
    "lemma_checks.witness_values": (("lemma_checks:witness_values",), None, None),
    "lemma_checks.integrality_checks": (("lemma_checks:integrality_checks",), None, None),
    "lemma_checks.report_to_dict": (("lemma_checks:report_to_dict",), None, None),
    "modforms.QExpansion.__mul__": (("modforms:QExpansion.__mul__",), _terms, "terms"),
    "modforms.miller_basis": (("modforms:miller_basis",), None, None),
    "modforms.hecke_matrix": (("modforms:hecke_matrix",), None, None),
    "modforms.HeckeMatrix.charpoly": (("modforms:HeckeMatrix.charpoly",), _dimension, None),
    "padic.newton_polygon": (("modforms:newton_polygon",), None, None),
    "measures.middle_mass_profile": (("measures:middle_mass_profile",), None, None),
    "measures.supersingularity_measure": (("measures:supersingularity_measure",), None, None),
    "symhecke.verify_T_expansion": (("symhecke:verify_T_expansion",), None, None),
    "symhecke.hecke_T": (("symhecke:hecke_T",), None, None),
    "symhecke.coset_decompose": (("symhecke:coset_decompose",), None, None),
    "symhecke.act": (("symhecke:act",), None, None),
}

NAMES = tuple(WRAPPED)


class Tracer:
    """Records spans in memory; ``install``/``restore`` rebind the sites."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.invocation = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _owner(self, site: str):
        module_name, _, path = site.partition(":")
        owner = importlib.import_module(f"padicslopes.{module_name}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        return owner, attr

    def span(self, name_id: int, fn, work):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.invocation, 0)
            if work is not None:
                spans[index] = (name_id, start, end, parent, self.invocation, work(args, result))
            return result

        return wrapper

    def install(self) -> None:
        for name_id, (sites, work, _) in enumerate(WRAPPED.values()):
            for site in sites:
                try:
                    owner, attr = self._owner(site)
                    original = owner.__dict__[attr]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(site)
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.span(name_id, original, work))

    def restore(self) -> list[str]:
        """Put every original back; returns the sites still rebound."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        rebound = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._saved
            if owner.__dict__[attr] is not original
        ]
        self._saved.clear()
        return rebound


def layer_stats(spans: list[tuple]) -> dict[str, float | int]:
    """``<name>.calls``, ``.busy_s``, ``.self_s`` and the work stats of every
    wrapped name.  Busy time counts a span only when no enclosing span has
    the same name; self time is the duration minus what child spans cover."""
    child_ns = [0] * len(spans)
    for name_id, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    charpoly = NAMES.index("modforms.HeckeMatrix.charpoly")
    lagrange = NAMES.index("exactlinalg.lagrange_interpolate")
    calls = [0] * len(NAMES)
    busy = [0] * len(NAMES)
    self_ns = [0] * len(NAMES)
    work = [0] * len(NAMES)
    lagrange_under_charpoly = 0
    max_d, max_d_ns = 0, 0
    for index, (name_id, start, end, parent, _, size) in enumerate(spans):
        dur = end - start
        calls[name_id] += 1
        self_ns[name_id] += dur - child_ns[index]
        work[name_id] += size
        ancestors = set()
        while parent >= 0:
            ancestors.add(spans[parent][0])
            parent = spans[parent][3]
        if name_id not in ancestors:
            busy[name_id] += dur
        if name_id == lagrange and charpoly in ancestors:
            lagrange_under_charpoly += dur
        if name_id == charpoly and (size, dur) > (max_d, max_d_ns):
            max_d, max_d_ns = size, dur
    stats: dict[str, float | int] = {}
    for name_id, name in enumerate(NAMES):
        stats[f"{name}.calls"] = calls[name_id]
        stats[f"{name}.busy_s"] = busy[name_id] / 1e9
        stats[f"{name}.self_s"] = self_ns[name_id] / 1e9
        work_stat = WRAPPED[name][2]
        if work_stat:
            stats[f"{name}.{work_stat}"] = work[name_id]
    stats["exactlinalg.lagrange_interpolate.charpoly_busy_s"] = lagrange_under_charpoly / 1e9
    stats["modforms.HeckeMatrix.charpoly.max_d"] = max_d
    stats["modforms.HeckeMatrix.charpoly.max_d_s"] = max_d_ns / 1e9
    return stats
