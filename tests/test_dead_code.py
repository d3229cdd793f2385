"""No dead code in the package: every module-level function, class and
assigned name and every method that is not a dunder is referenced by name
somewhere in ``src/``, ``tests/`` or ``bench/`` outside its own definition,
and every name a module of the package (other than ``__init__.py``, which
re-exports) imports is used in that module.  A definition that only
``tests/`` references is listed in ``TEST_ONLY``, so none is added
unnoticed.

A reference is a bare name or an attribute name in the parsed source, so a
method counts as used when any attribute of that name is read.  Imports and
strings do not count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "leveltree"


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, bare name, first line, last line) of each module-level
    function, class, non-dunder method and non-dunder assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _dunder(name.id):
                        yield name.id, name.id, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _dunder(item.name)):
                    yield (f"{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def _references(tree: ast.Module):
    """(name, line) of every bare name and attribute name read or written."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _referenced_from(dirs: tuple[str, ...]) -> list[str]:
    """The package's definitions that no file under ``dirs`` references
    outside the definition itself."""
    files = [p for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]
    refs: dict[str, list] = {}
    for path in files:
        for name, line in _references(ast.parse(path.read_text(encoding="utf-8"))):
            refs.setdefault(name, []).append((path, line))
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, name, first, last in _definitions(tree):
            if not any(p != path or not first <= line <= last
                       for p, line in refs.get(name, ())):
                out.append(f"{path.name}: {qualified}")
    return out


def unreferenced() -> list[str]:
    return _referenced_from(("src", "tests", "bench"))


def test_every_definition_is_referenced():
    assert unreferenced() == []


# Definitions that only tests reference, each with the reason it stays in
# src/.  The list may only shrink: a definition that gains a caller in src/
# or bench/ leaves it, and a new test-only definition belongs in the tests.
TEST_ONLY = {
    "checks.py: CHECKS": "the registry by name: the acceptance rows name "
                         "their checks, and the sweeps look them up in it",
    "levels.py: ascent_sequence": "criterion 2 checks the ascent sequences",
    "levels.py: level_successor": "criterion 2 checks the level successors",
    "levels.py: edge_span": "a layer of bench/tracing.LAYERS, which names it "
                            "as a string, and that does not count",
    "monomial.py: parse_monomial": "how the tests read rendered monomials",
    "contraction.py: nested_contraction_coherent":
        "becomes a registry check with the declared count change of ROADMAP item 3",
}


def test_no_new_test_only_definitions():
    test_only = set(_referenced_from(("src", "bench"))) - set(unreferenced())
    assert sorted(test_only) == sorted(TEST_ONLY)


def unused_imports() -> list[str]:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        out.append(f"{path.name}: {name}")
    return out


def test_every_import_is_used():
    assert unused_imports() == []
