"""The benchmark tracer wraps library functions by name; every one must exist.

``bench/tracer.py`` is read as source, not imported, so this check needs
nothing from ``bench/`` at run time.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_bindings():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracer.py defines no TRACED list")


def test_traced_functions_resolve():
    bindings = traced_bindings()
    assert ("twirlset", "_all_gl_inverses") in bindings
    for module, attr in bindings:
        fn = getattr(importlib.import_module(f"qramsim.{module}"), attr, None)
        assert callable(fn), f"qramsim.{module}.{attr} is gone"
