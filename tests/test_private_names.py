"""The package keeps no private helper for the tests alone.

Every underscore-named function, class or method defined in
``src/padicslopes/`` must be referenced by code in ``src/padicslopes/``,
by name or as an attribute, other than by its own definition or an import.
A helper that only the tests call, such as a second route kept as an
oracle, lives in ``tests/``.  The check reads the source with ``ast`` and
imports nothing."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "padicslopes"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(trees: dict) -> list[tuple[str, int, str]]:
    """(module, line, name) of every private function, class or method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (module, node.lineno, node.name)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, kinds) and _is_private(node.name)
    ]


def _referenced_names(trees: dict) -> set[str]:
    """Every name that code reads as a bare name or as an attribute."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _unreferenced(trees: dict) -> list[tuple[str, int, str]]:
    referenced = _referenced_names(trees)
    return [d for d in _private_definitions(trees) if d[2] not in referenced]


def _parse_package() -> dict:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def test_every_private_definition_is_used_by_the_package():
    trees = _parse_package()
    assert _private_definitions(trees), "no private definition found: wrong source path?"
    assert _unreferenced(trees) == []


@pytest.mark.parametrize(
    "source,unused",
    [
        ("def _carries(x, y, p):\n    return 0\n", ["_carries"]),
        ("from .padic import _carries\n\ndef _carries(x, y, p):\n    return 0\n", ["_carries"]),
        ("class Table:\n    def _row(self, i):\n        return i\n", ["_row"]),
        ("def _row(i):\n    return i\n\ndef rows(n):\n    return [_row(i) for i in range(n)]\n", []),
        ("class Table:\n    def _row(self, i):\n        return i\n\n    def rows(self):\n        return self._row(0)\n", []),
    ],
    ids=["test_only_function", "imported_only", "test_only_method", "called", "called_method"],
)
def test_the_guard_sees_an_unused_helper(source, unused):
    assert [name for _, _, name in _unreferenced({"m.py": ast.parse(source)})] == unused
