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
    "enumerate.py: gen_level_trees": "the classes of one base; gen_instances shares "
                                     "each skeleton's class keys, and the tests hold "
                                     "the two streams equal",
    "blowup.py: zk_components": "the components themselves; divisor-containment "
                                "reads only their count and witness (zk_count)",
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


def memo_keys() -> dict[str, list[str]]:
    """Every string key that ``src/`` reads or writes in a ``_memo``, with the
    places that use it: a subscript, an ``in`` test or a ``get``,
    ``setdefault`` or ``pop`` call on ``x._memo`` or on a name the module
    binds to one (``memo = t._memo``), and the string keys of a dict literal
    handed over beside the name ``"_memo"``
    (``object.__setattr__(out, "_memo", {...})``)."""
    out: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def key(node):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.setdefault(node.value, []).append(f"{path.name}:{node.lineno}")

        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = ([(target, node.value)] if not isinstance(target, ast.Tuple)
                             else zip(target.elts, getattr(node.value, "elts", ())))
                    aliases |= {t.id for t, v in pairs if isinstance(t, ast.Name)
                                and isinstance(v, ast.Attribute) and v.attr == "_memo"}

        def is_memo(node):
            return (isinstance(node, ast.Attribute) and node.attr == "_memo"
                    or isinstance(node, ast.Name) and node.id in aliases)

        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and is_memo(node.value):
                key(node.slice)
            elif isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.In, ast.NotIn)) and is_memo(right)
                    for op, right in zip(node.ops, node.comparators)):
                key(node.left)
            elif isinstance(node, ast.Call):
                f = node.func
                if (isinstance(f, ast.Attribute) and f.attr in ("get", "setdefault", "pop")
                        and is_memo(f.value) and node.args):
                    key(node.args[0])
                for name, value in zip(node.args, node.args[1:]):
                    if (isinstance(name, ast.Constant) and name.value == "_memo"
                            and isinstance(value, ast.Dict)):
                        for k in value.keys:
                            key(k)
    return out


# The string keys of the memos, each with the reason it is not a ``kept``
# table: each holds state keyed by an argument, read and written by one
# module.  The list may only shrink: a table built once per object is a
# ``levels.kept`` function of it, which names no key.
MEMO_KEYS = {
    "contract": "contract's last result, keyed by the subset's mask",
    "equivalent": "phi_bijection's proofs, one per partner tree",
    "charts": "build_chart's charts by special edges and tags; drop_charts drops them",
    "target": "a frame's record of the last subset, keyed by its mask",
    "yk": "yk_pullback's last Y_k, extended to the next k",
    "stage_factor": "_stage_factor's last scaling monomial, extended to the next stage",
}


def test_memo_string_keys_are_the_stateful_ones():
    keys = memo_keys()
    new = {k: places for k, places in keys.items() if k not in MEMO_KEYS}
    assert not new, f"string memo keys that are no stateful entry: {new}"
    assert sorted(keys) == sorted(MEMO_KEYS)
