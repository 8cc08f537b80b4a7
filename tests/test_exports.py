import ast
import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from pathlib import Path

import skattr
import skattr.cli

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


def test_every_traced_name_is_called(tmp_path, monkeypatch):
    """A refactor that routes around a traced function would silently zero its metric."""
    calls: Counter[str] = Counter()

    def counting(qualname, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qualname] += 1
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {}
    for qualname in traced_names():
        module, attr = qualname.split(".")
        fn = getattr(importlib.import_module(f"skattr.{module}"), attr)
        wrappers[id(fn)] = (fn, counting(qualname, fn))
    for name, module in list(sys.modules.items()):
        if name != "skattr" and not name.startswith("skattr."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                monkeypatch.setattr(module, attr, entry[1])

    gen = {"n_users": 300, "n_weeks": 2, "event_horizon_days": 40, "seed": 3}
    (tmp_path / "gen.json").write_text(json.dumps(gen))
    (tmp_path / "run.json").write_text(json.dumps({
        "gen": gen,
        "p_values": [0, 10],
        "g_modes": ["plain", "null_uniform"],
        "t": 30,
        "windows": [[7, 14], [14, 30]],
        "seed": 3,
    }))
    stages = [
        ["benchmark", "--config", "run.json", "--out", "bench"],
        ["generate", "--config", "gen.json", "--out", "data"],
        ["simulate", "--users", "data", "--schema", "kind=RR;layout=TTTVVV;horizon=7",
         "--seed", "3", "--out", "c.csv"],
        ["privatize", "--counts", "c.csv", "--p", "10", "--out", "cp.csv"],
        ["attribute", "--counts", "cp.csv", "--profile-from", "data", "--t", "30",
         "--g", "null_convex", "--lambda", "0.5", "--out", "attr.csv"],
        ["evaluate", "--attr", "attr.csv", "--truth-from", "data", "--t", "30",
         "--out", "eval.json"],
    ]
    monkeypatch.chdir(tmp_path)
    for argv in stages:
        assert skattr.cli.main(argv) == 0, argv
    assert [name for name in traced_names() if calls[name] == 0] == []
