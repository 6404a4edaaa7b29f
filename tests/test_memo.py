"""The memo registry: every per-invocation cache of the package is a bounded
memo registered in ``_memo``, and one ``reset()`` empties them all."""

import ast
import os
from argparse import Namespace

import pytest

from padicslopes import _memo, cli
from padicslopes import combinatorics as comb
from padicslopes.cli import main
from padicslopes.combinatorics import interior_row_indices, lambda_variant

SRC = os.path.dirname(cli.__file__)


def _cache_uses(source: str) -> list[str]:
    """The lru_cache, functools.cache and cache_clear uses in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [a.name for a in node.names if a.name in ("lru_cache", "cache")]
        elif isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache_clear"):
            found.append(node.attr)
        elif isinstance(node, ast.Attribute) and node.attr == "cache" and getattr(node.value, "id", None) == "functools":
            found.append("functools.cache")
        elif isinstance(node, ast.Name) and node.id == "lru_cache":
            found.append(node.id)
    return found


def test_no_cache_outside_the_registry():
    uses = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "_memo.py":
            with open(os.path.join(SRC, name)) as fh:
                uses[name] = _cache_uses(fh.read())
    assert {name: found for name, found in uses.items() if found} == {}
    # the guard sees each spelling
    assert _cache_uses("import functools\n@functools.lru_cache(maxsize=None)\ndef f(): pass\nf.cache_clear()") == [
        "lru_cache", "cache_clear",
    ]
    assert _cache_uses("from functools import cache, lru_cache\n@functools.cache\ndef f(): pass") == [
        "cache", "lru_cache", "functools.cache",
    ]


def test_every_memo_registered_and_bounded():
    names = sorted(f"{m.__module__}.{m.__name__}" for m in _memo.MEMOS)
    assert names == [
        "padicslopes.combinatorics._diagonal_table",
        "padicslopes.combinatorics._step_differences",
        "padicslopes.lemma_checks._digit_sum_table",
        "padicslopes.lemma_checks._lambda_table",
        "padicslopes.symhecke._pascal",
        "padicslopes.symhecke.teichmuller_lifts",
    ]
    assert all(m.cache_parameters()["maxsize"] is not None for m in _memo.MEMOS)


def test_every_subcommand_starts_with_empty_memos(tmp_path):
    assert main(["verify", "lemma12", "--p", "5", "--r-max", "60", "--out", str(tmp_path / "v.csv")]) == 0
    assert cli.lc._lambda_table.cache_info().currsize > 0
    assert main(["slopes", "--p", "5", "--k", "12", "--out", str(tmp_path / "s.csv")]) == 0
    assert [m.cache_info().currsize for m in _memo.MEMOS] == [0] * len(_memo.MEMOS)


@pytest.mark.parametrize("name,count", [("lemma12", 2163), ("integrality", 2339)], ids=["lemma12", "integrality"])
def test_lambda_table_built_once_per_key(tmp_path, name, count):
    # one build per distinct (p, rho', alpha) of the sweep's cells
    ps = (5, 7, 11, 13)
    window = Namespace(r=None, alpha=None, r_max=400)
    cells = [cell for p in ps for cell in cli.VERIFY_TARGETS[name].cells(p, window)]
    keys = {(p, lambda_variant(p, r, a)[1], a) for p, r, a in cells}
    argv = ["verify", name, "--p", ",".join(map(str, ps)), "--r-max", "400", "--jobs", "1"]
    assert main([*argv, "--out", str(tmp_path / "v.csv")]) == 0
    assert cli.lc._lambda_table.cache_info().misses == len(keys) == count


def test_diagonal_rows_built_and_checked_once_per_key(tmp_path, monkeypatch):
    # one row build and one trinomial-revision check per distinct (p, r, n)
    # that the sweep's cells read, n = i(p-1) + alpha over their interior rows
    ps = (5, 7, 11, 13)
    window = Namespace(r=None, alpha=None, r_max=100)
    cells = [cell for p in ps for cell in cli.VERIFY_TARGETS["matrix-entries"].cells(p, window)]
    keys = {(p, r, i * (p - 1) + a) for p, r, a in cells for i in interior_row_indices(p, r, a)}
    built, checked = [], []
    row, holds = comb._binomial_row, comb._revision_holds
    monkeypatch.setattr(comb, "_binomial_row", lambda *args: built.append(args) or row(*args))
    monkeypatch.setattr(comb, "_revision_holds", lambda *args: checked.append(args[:2]) or holds(*args))
    argv = ["verify", "matrix-entries", "--p", ",".join(map(str, ps)), "--r-max", "100", "--jobs", "1"]
    assert main([*argv, "--out", str(tmp_path / "v.csv")]) == 0
    assert len(built) == len(checked) == len(keys) == 10337
    assert sum(len(interior_row_indices(*cell)) for cell in cells) == 17800  # the rows the cells read
