"""Every function the benchmark's tracer wraps and every library name its
workloads call exists, so deleting or renaming one fails here and not only
under ``python3 bench/run.py``."""

import ast
import importlib
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


def _workload_calls() -> set:
    """Every ``lt.<module>.<name>...`` chain of the workloads, ``lt`` being
    the ``leveltree`` package, and every ``<alias>.<name>...`` whose alias
    is bound to ``lt.<module>``, as ``(module, names)``."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    prefix = {"lt": []}  # what each name stands for after ``lt``
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            value = _chain(node.value)
            if value is not None and len(value) == 2 and value[0] == "lt":
                prefix[node.targets[0].id] = value[1:]
    out = set()
    for node in ast.walk(tree):
        chain = _chain(node)
        if chain and chain[0] in prefix and len(chain) > 1:
            module, *names = prefix[chain[0]] + chain[1:]
            out.add((module, tuple(names)))
    return out


def test_every_library_name_the_workloads_call_resolves():
    calls = _workload_calls()
    # both forms are read: a chain from the package and one from an alias
    assert {("contraction", ("contract",)), ("charts", ("build_chart",))} <= calls
    for module, names in sorted(calls):
        _resolve(module, list(names))
