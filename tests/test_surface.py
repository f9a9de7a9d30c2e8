"""Every top-level name and method of the package, public or private, and
every field of its dataclasses, is used by the package itself; every
exemption from that names a symbol that exists and is still unused."""

import ast
from collections import Counter
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "evoinc")
                 .glob("*.py"))
# Tests compare the spectral operators against this reference form of E.
REFERENCE_ONLY = {"apply_generator"}
# Fields only tests read: a solve's residual history, which a structured
# trace is planned to export, and the f-selection of a window's solution,
# which tests check against its selection map.
UNREAD_FIELDS = {"SolveReport.residual_history", "WindowSolution.f"}


def _definitions(tree):
    """Top-level functions, classes and assigned names, and the methods of
    top-level classes, as (name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
            continue
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item


def _uses(tree) -> Counter:
    """How often each name or attribute is read within the tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _trees() -> list:
    assert SOURCES
    return [ast.parse(path.read_text(), filename=str(path))
            for path in SOURCES]


def _unreferenced(kept) -> list:
    """The names `kept` selects whose every use in the package lies within
    their own definition, as "file: name"."""
    trees = _trees()
    uses = sum((_uses(tree) for tree in trees), Counter())
    return [f"{path.name}: {name}"
            for path, tree in zip(SOURCES, trees)
            for name, node in _definitions(tree)
            if kept(name) and uses[name] == _uses(node)[name]]


def test_every_public_name_is_referenced_in_the_package():
    unused = _unreferenced(lambda name: not name.startswith("_")
                           and name not in REFERENCE_ONLY)
    assert not unused, f"public names no package code references: {unused}"


def test_every_private_name_is_referenced_in_the_package():
    # a private helper whose last caller went away is dead code; dunders
    # are called by Python itself
    unused = _unreferenced(lambda name: name.startswith("_") and not (
        name.startswith("__") and name.endswith("__")))
    assert not unused, f"private names no package code references: {unused}"


def _dataclass_fields(tree):
    """Fields of the top-level dataclasses, as "Class.field"."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) \
                        and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}"


def _unread_fields() -> list:
    """Dataclass fields whose name no package code reads as an attribute,
    as "Class.field"."""
    trees = _trees()
    reads = {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    fields = [field for tree in trees for field in _dataclass_fields(tree)]
    assert fields
    return [field for field in fields if field.split(".")[1] not in reads]


def test_every_dataclass_field_is_read_in_the_package():
    unread = [field for field in _unread_fields()
              if field not in UNREAD_FIELDS]
    assert not unread, f"dataclass fields no package code reads: {unread}"


def test_no_dataclass_stores_a_verdict():
    # a verdict is the sign of a margin, computed by `solver.Bound` alone
    stored = [field for tree in _trees() for field in _dataclass_fields(tree)
              if field.split(".")[1] == "passed"]
    assert not stored, f"dataclass fields that store a verdict: {stored}"


def test_exemptions_name_existing_unused_symbols():
    # an exemption for a name that is gone or now used would silently cover
    # the next symbol of that spelling
    unreferenced = {entry.split(": ")[1]
                    for entry in _unreferenced(REFERENCE_ONLY.__contains__)}
    assert REFERENCE_ONLY <= unreferenced, \
        f"stale REFERENCE_ONLY: {REFERENCE_ONLY - unreferenced}"
    stale = UNREAD_FIELDS - set(_unread_fields())
    assert not stale, f"stale UNREAD_FIELDS: {stale}"
