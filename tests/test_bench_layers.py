"""Every function the benchmark's tracer wraps exists, so deleting or
renaming a traced function fails here and not only under
``python3 bench/run.py --trace 1``."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _layers() -> list:
    # read as source, not imported, so nothing is written under bench/
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no LAYERS list")


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    for name, module, path in layers:
        obj = importlib.import_module(f"leveltree.{module}")
        for attr in path.split("."):
            assert hasattr(obj, attr), f"{name}: leveltree.{module}.{path} is missing"
            obj = getattr(obj, attr)
        assert callable(obj), name
