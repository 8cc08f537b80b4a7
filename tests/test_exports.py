import ast
import importlib
import inspect
from pathlib import Path

import skattr

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_exported_name_resolves():
    missing = [name for name in skattr.__all__ if not hasattr(skattr, name)]
    assert missing == []


def traced_names() -> list[str]:
    """``SPANNED`` + ``COUNTED`` of the benchmark tracer, read from its source."""
    found = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                found[target.id] = ast.literal_eval(node.value)
    assert sorted(found) == ["COUNTED", "SPANNED"]
    return [*found["SPANNED"], *found["COUNTED"]]


def test_every_traced_name_is_a_function():
    """The benchmark tracer wraps these by name; a rename must fail here, not only under it."""
    broken = []
    for qualname in traced_names():
        module, attr = qualname.split(".")
        fn = getattr(importlib.import_module(f"skattr.{module}"), attr, None)
        if fn is None or not inspect.isfunction(inspect.unwrap(fn)):
            broken.append(qualname)
    assert broken == []
