"""One binomial kernel: src/ builds its binomial rows and tables only through
``combinatorics._binomial_row``.  ``math.comb`` stays at five sites, each a
value that must come from outside the kernel: the kernel's own seed, the
right side of the trinomial revision check, and the inputs of the interior
solve, which ``residual()`` then checks through the kernel.  On the kernel,
a broken kernel could cancel out of its own check."""

import ast
import os

from padicslopes import cli

SRC = os.path.dirname(cli.__file__)

MATH_COMB_SITES = {
    ("combinatorics.py", "_binomial_row"),
    ("combinatorics.py", "_revision_holds"),
    ("combinatorics.py", "_step_differences"),
    ("combinatorics.py", "_interior_solution"),
    ("combinatorics.py", "_theta_monomial_targets"),
}


def _comb_sites(source: str) -> list:
    """The innermost enclosing function (None at module level) of every
    math.comb in a module's source: called, passed as a value, or imported
    with ``from math import comb``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "comb":
                found.append(owner)
            elif isinstance(child, ast.ImportFrom) and child.module == "math":
                found.extend(owner for a in child.names if a.name == "comb")
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_math_comb_only_at_the_named_sites():
    sites = set()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                sites.update((name, owner) for owner in _comb_sites(fh.read()))
    assert sites == MATH_COMB_SITES


def test_the_guard_sees_each_spelling():
    # a reborn per-entry helper, a reference passed to map, and a from-import
    assert _comb_sites("import math\ndef comb0(n, k):\n    return math.comb(n, k)\n") == ["comb0"]
    assert _comb_sites("import math\ndef f(n, ks):\n    return list(map(math.comb, [n] * 3, ks))\n") == ["f"]
    assert _comb_sites("def g():\n    from math import comb, prod\n    return comb\n") == ["g"]
    assert _comb_sites("import math as m\nclass A:\n    def h(self):\n        return m.comb(4, 2)\n") == ["h"]
