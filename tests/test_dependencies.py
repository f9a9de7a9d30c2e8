"""The package imports nothing but the standard library and numpy."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "evoinc")
                 .glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "evoinc"}


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_imports_are_stdlib_or_numpy():
    assert SOURCES
    outside = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {name for name in _imported_modules(tree)
                 if name.split(".")[0] not in ALLOWED}
        if names:
            outside[path.name] = sorted(names)
    assert not outside, f"imports outside stdlib and numpy: {outside}"
