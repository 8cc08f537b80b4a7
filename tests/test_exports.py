import ast
import functools
import importlib
import inspect
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import skattr
import skattr.cli

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_exported_name_resolves():
    missing = [name for name in skattr.__all__ if not hasattr(skattr, name)]
    assert missing == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every stage process imports ``skattr.cli``; its records are named tuples.

    Creating dataclasses, and importing ``dataclasses`` with the ``inspect``
    it loads, would cost about a quarter of that import. A deprecation warning
    the import raises on this interpreter fails the test too.
    """
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import skattr.cli;"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
    grid = {
        "p_values": [0, 10],
        "g_modes": ["plain", "null_uniform"],
        "t": 30,
        "windows": [[7, 14], [14, 30]],
        "seed": 3,
    }
    (tmp_path / "run.json").write_text(json.dumps({"gen": gen, **grid}))
    # The stages read the dataset with load_cohort; a benchmark over the
    # dataset's files reads it with load_users.
    (tmp_path / "run_csv.json").write_text(json.dumps(
        {"users_csv": "data/users.csv", "events_csv": "data/events.csv", **grid}
    ))
    stages = [
        ["benchmark", "--config", "run.json", "--out", "bench"],
        ["generate", "--config", "gen.json", "--out", "data"],
        ["benchmark", "--config", "run_csv.json", "--out", "bench_csv"],
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


class _KernelUses(ast.NodeVisitor):
    """Each use of an estimator kernel's name, with the function that holds it."""

    KERNELS = ("attribute_plain", "attribute_with_null")

    @classmethod
    def in_src(cls) -> list[tuple[str, str]]:
        """Every use in ``src/skattr``, sorted."""
        uses = []
        for path in sorted((ROOT / "src" / "skattr").glob("*.py")):
            visitor = cls(path.stem)
            visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
            uses.extend(visitor.uses)
        return sorted(uses)

    def __init__(self, module: str) -> None:
        self.scope = [module]
        self.uses: list[tuple[str, str]] = []

    def visit_FunctionDef(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Name(self, node) -> None:
        if node.id in self.KERNELS:
            self.uses.append((node.id, ".".join(self.scope)))

    def visit_Attribute(self, node) -> None:
        if node.attr in self.KERNELS:
            self.uses.append((node.attr, ".".join(self.scope)))
        self.generic_visit(node)


def test_estimator_kernels_are_used_only_by_attribute_cells():
    """``metrics.attribute_cells`` is the one place that picks an estimator kernel."""
    assert _KernelUses.in_src() == [
        ("attribute_plain", "metrics.attribute_cells"),
        ("attribute_with_null", "metrics.attribute_cells"),
    ]


class _EstimatorChecks(_KernelUses):
    KERNELS = ("check_estimator",)


def holders_of(message: str) -> list[str]:
    """The innermost function of each ``src/skattr`` line that holds ``message``."""
    holders = []
    for path in sorted((ROOT / "src" / "skattr").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        functions = [n for n in ast.walk(ast.parse(text)) if isinstance(n, ast.FunctionDef)]
        for number, line in enumerate(text.splitlines(), 1):
            if message in line:
                # ast.walk yields an enclosing function before the ones it holds.
                inner = [f.name for f in functions if f.lineno <= number <= f.end_lineno]
                holders.append(".".join([path.stem, *inner[-1:]]))
    return holders


def test_plain_is_refused_only_by_check_estimator():
    """One function refuses ``plain`` from p=2 up, so the curve and ``attribute`` agree.

    Its message is written nowhere else in ``src``. Its callers are the
    window curve (before it simulates) and the ``attribute`` stage (before
    it reads the dataset); the grid never schedules ``plain`` from p=2 up.
    """
    assert holders_of("requires p < 2") == ["metrics.check_estimator"]
    assert _EstimatorChecks.in_src() == [
        ("check_estimator", "cli.cmd_attribute"),
        ("check_estimator", "metrics.window_error_curve"),
    ]


class _PostbackTableUses(_KernelUses):
    KERNELS = ("_postback_table",)


def test_stage_files_meet_their_dataset_in_one_step():
    """``attribute`` and ``evaluate`` reach their simulation, and its column check, in one step.

    The check's message is written only in ``cli._postback_table``, and the
    two stages that read a dataset for a counts or attribution file are its
    only callers.
    """
    assert holders_of("differ from the dataset's origin columns") == ["cli._postback_table"]
    assert _PostbackTableUses.in_src() == [
        ("_postback_table", "cli.cmd_attribute"),
        ("_postback_table", "cli.cmd_evaluate"),
    ]


class _ScorerUses(_KernelUses):
    KERNELS = ("score_cells", "score_level")


def test_scoring_runs_only_through_score_cells():
    """``metrics.score_cells`` is the one scorer: the grid, the curve and ``evaluate`` call it.

    It alone sums attributed cents per week and calls ``score_level``, so
    ``evaluate`` keeps no accumulator of its own.
    """
    assert _ScorerUses.in_src() == [
        ("score_cells", "cli.cmd_evaluate"),
        ("score_cells", "metrics.benchmark_matrix.cell_errors"),
        ("score_cells", "metrics.window_error_curve"),
        ("score_level", "metrics.score_cells"),
    ]


class _MeansUses(_KernelUses):
    KERNELS = ("estimate_bucket_means_window",)


def test_bucket_means_are_fitted_only_where_cells_are_attributed():
    """The grid, the curve, ``attribute`` and ``evaluate``'s check fit their means with one call.

    No wrapper stands between a caller and ``estimate_bucket_means_window``,
    so the stages fit the means the grid fits for the same window.
    """
    assert _MeansUses.in_src() == [
        ("estimate_bucket_means_window", "cli._check_conservation"),
        ("estimate_bucket_means_window", "cli.cmd_attribute"),
        ("estimate_bucket_means_window", "metrics.benchmark_matrix"),
        ("estimate_bucket_means_window", "metrics.window_error_curve"),
    ]


class _EventsReads(ast.NodeVisitor):
    """Each ``_csv_rows(..., EVENT_FIELDS)`` call, by the function that makes it."""

    def __init__(self, module: str) -> None:
        self.scope = [module]
        self.readers: list[str] = []

    def visit_FunctionDef(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "_csv_rows" and any(
            isinstance(arg, ast.Name) and arg.id == "EVENT_FIELDS" for arg in node.args
        ):
            self.readers.append(".".join(self.scope))
        self.generic_visit(node)


def test_events_rows_are_read_only_by_event_rows():
    """``io_files._event_rows`` is the one loop over ``events.csv`` rows."""
    readers = []
    for path in sorted((ROOT / "src" / "skattr").glob("*.py")):
        visitor = _EventsReads(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        readers.extend(visitor.readers)
    assert readers == ["io_files._event_rows"]
