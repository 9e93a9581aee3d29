"""The benchmark tracer patches package functions that it looks up by
name; every name it lists must resolve, or a tracing run breaks."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    """TARGETS from bench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACING}")


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    for module, cls, attr, _ in targets:
        owner = importlib.import_module(f"quiverglue.{module}")
        if cls is None:
            assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
        else:
            # methods are patched in the class's own namespace
            assert attr in vars(getattr(owner, cls)), f"{module}.{cls}.{attr}"
