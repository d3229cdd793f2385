"""No dead code in the package: every module-level function, every class and
every method that is not a dunder is referenced by name somewhere in
``src/``, ``tests/`` or ``bench/`` outside its own definition, and every
name a module of the package (other than ``__init__.py``, which re-exports)
imports is used in that module.

A reference is a bare name or an attribute name in the parsed source, so a
method counts as used when any attribute of that name is read.  Imports and
strings do not count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "leveltree"


def _definitions(tree: ast.Module):
    """(qualified name, bare name, first line, last line) of each module-level
    function, class and non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield (f"{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def _references(tree: ast.Module):
    """(name, line) of every bare name and attribute name read or written."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreferenced() -> list[str]:
    files = [p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    refs: dict[str, list] = {}
    parsed = {}
    for path in files:
        parsed[path] = tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, first, last in _definitions(parsed[path]):
            if not any(p != path or not first <= line <= last
                       for p, line in refs.get(name, ())):
                out.append(f"{path.name}: {qualified}")
    return out


def test_every_definition_is_referenced():
    assert unreferenced() == []


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
