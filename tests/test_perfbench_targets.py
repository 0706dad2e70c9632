"""The benchmark's tracer wraps package functions by name.

perfbench/tracer.py lists them in TARGETS; a rename or a move that would
leave the traced benchmark without a target fails here in well under a second.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> tuple:
    """TARGETS read from the tracer's source without importing or running it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TARGETS")


def test_every_tracer_target_exists():
    targets = _targets()
    assert targets
    missing = []
    for module_name, qualname, _, _ in targets:
        module = importlib.import_module(f"partqr.{module_name}")
        if "." in qualname:
            cls_name, method = qualname.split(".")
            found = callable(vars(getattr(module, cls_name, object)).get(method))
        else:
            found = callable(getattr(module, qualname, None))
        if not found:
            missing.append(f"partqr.{module_name}.{qualname}")
    assert not missing, f"traced benchmark targets missing: {missing}"
