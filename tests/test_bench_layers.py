"""Every function the benchmark's tracer wraps and every library name its
workloads call exists, and every library call of the workloads binds to its
callee's signature, so deleting, renaming or re-signing one fails here and
not only under ``python3 bench/run.py``."""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
WORKLOADS = BENCH / "workloads.py"


def _layers() -> list:
    # read as source, not imported, so nothing is written under bench/
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no LAYERS list")


def _resolve(module: str, path: list):
    obj = importlib.import_module(f"leveltree.{module}")
    for attr in path:
        assert hasattr(obj, attr), f"leveltree.{module}.{'.'.join(path)} is missing"
        obj = getattr(obj, attr)
    return obj


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    for name, module, path in layers:
        assert callable(_resolve(module, path.split("."))), name


def _chain(node) -> list | None:
    """The names of a dotted chain ``a.b.c`` read off its node, or None for
    any other expression."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else None


def _workload_chains() -> list:
    """Every chain of the workloads that names a ``leveltree`` object, as
    ``(module, names, call)``, ``call`` being the ``ast.Call`` that calls it
    or None.  A chain is read through the names each function binds to
    ``lt`` chains, ``lt`` being the package: a module alias (``ch =
    lt.charts``) or a library object (``report =
    lt.contraction.index_identity_report``)."""
    out = []
    for func in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if not isinstance(func, ast.FunctionDef):
            continue
        bound = {"lt": []}  # what each name stands for after ``lt``
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                value = _chain(node.value)
                if value is not None and len(value) > 1 and value[0] == "lt":
                    bound[node.targets[0].id] = value[1:]
        calls = {id(node.func): node for node in ast.walk(func) if isinstance(node, ast.Call)}
        for node in ast.walk(func):
            chain = _chain(node)
            if chain and chain[0] in bound and len(bound[chain[0]]) + len(chain) > 2:
                module, *names = bound[chain[0]] + chain[1:]
                out.append((module, tuple(names), calls.get(id(node))))
    return out


def test_every_library_name_the_workloads_call_resolves():
    chains = {(module, names) for module, names, _ in _workload_chains()}
    # every form is read: a chain from the package, from an alias and a bound name
    assert {("contraction", ("contract",)), ("charts", ("build_chart",)),
            ("contraction", ("index_identity_report",))} <= chains
    for module, names in sorted(chains):
        _resolve(module, list(names))


def test_every_library_call_of_the_workloads_binds():
    """Each call's positional count and keyword names bind to its callee's
    signature; calls that spread ``*`` or ``**`` arguments are skipped."""
    checked = set()
    for module, names, call in _workload_chains():
        if call is None or any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            continue
        callee = _resolve(module, list(names))
        keywords = [k.arg for k in call.keywords]
        try:
            inspect.signature(callee).bind(*call.args, **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"leveltree.{module}.{'.'.join(names)} takes no call "
                                 f"with {len(call.args)} positional arguments and the "
                                 f"keywords {keywords}: {exc}") from None
        checked.add((module, names))
    assert {("charts", ("build_chart",)), ("contraction", ("index_identity_report",)),
            ("enumerate", ("EnumSpec",))} <= checked
