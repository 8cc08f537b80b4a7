"""In-memory call tracer for the skattr benchmark's traced runs.

The tracer wraps selected ``skattr`` functions from outside the package: a
span wrapper records (name, parent span, start, end) for coarse calls, and a
count wrapper only counts hot per-user calls, whose timing would cost more
than the work. Spans stay in memory and are written out once, at the end of
the process. Nothing here runs in an untraced run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

# Calls timed with a span. Each moves a busy/self time in the per-layer table.
SPANNED = (
    "synthgen.generate_dataset",
    "schema.prepare_users",
    "schema.fit_buckets",
    "schema.simulate_traces",
    "pipeline.run_schema",
    "pipeline.simulate_postbacks",
    "pipeline.developer_totals",
    "pipeline.build_cell_matrices",
    "postback.build_counts",
    "privacy.apply_threshold",
    "attribution.attribute_plain",
    "attribution.attribute_with_null",
    "attribution.estimate_bucket_means_window",
    "model.ground_truth",
    "metrics.benchmark_matrix",
    "metrics.window_error_curve",
    "io_files.load_users",
    "io_files.load_counts",
    "io_files.load_attribution",
    "io_files.save_dataset",
    "io_files.save_counts",
    "io_files.save_attribution",
    "io_files.save_report",
    "io_files.save_grid_csv",
    "io_files.save_window_csv",
)

# Per-user calls that are only counted: millions of them on the grid.
COUNTED = (
    "model.revenue_between",
    "model.iso_week",
    "pipeline.cell_of",
    "rng.substream",
    "metrics.weekly_error",
)

# Counters the hooks below derive from arguments and results.
DERIVED = (
    "synthgen.events",
    "privacy.suppressed_rows",
    "privacy.null_users",
    "metrics.cells",
    "io_files.bytes_read",
    "io_files.bytes_written",
)


def _file_size(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _on_generate(tracer, args, result):
    tracer.counts["synthgen.events"] += sum(len(u.events) for u in result[0])


def _on_threshold(tracer, args, result):
    tracer.counts["privacy.suppressed_rows"] += len(result.suppressed)
    tracer.counts["privacy.null_users"] += sum(result.null_row)


def _on_run_schema(tracer, args, result):
    tracer.schemas_run.add(args["schema"].label)


def _on_benchmark_matrix(tracer, args, result):
    tracer.counts["metrics.cells"] += len(result.cells)


def _on_load_users(tracer, args, result):
    read = _file_size(args["user_csv"]) + _file_size(args["events_csv"])
    tracer.counts["io_files.bytes_read"] += read


def _on_load_path(tracer, args, result):
    tracer.counts["io_files.bytes_read"] += _file_size(args["path"])


def _on_save_path(tracer, args, result):
    tracer.counts["io_files.bytes_written"] += _file_size(args["path"])


def _on_save_dataset(tracer, args, result):
    tracer.counts["io_files.bytes_written"] += sum(_file_size(p) for p in result.values())


# Bookkeeping on a spanned call's arguments and result, after it returns.
HOOKS = {
    "synthgen.generate_dataset": _on_generate,
    "pipeline.run_schema": _on_run_schema,
    "privacy.apply_threshold": _on_threshold,
    "metrics.benchmark_matrix": _on_benchmark_matrix,
    "io_files.load_users": _on_load_users,
    "io_files.load_counts": _on_load_path,
    "io_files.load_attribution": _on_load_path,
    "io_files.save_dataset": _on_save_dataset,
    "io_files.save_counts": _on_save_path,
    "io_files.save_attribution": _on_save_path,
    "io_files.save_report": _on_save_path,
    "io_files.save_grid_csv": _on_save_path,
    "io_files.save_window_csv": _on_save_path,
}


class Tracer:
    """Spans, call counts and derived counters of one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter[str] = Counter()
        self.schemas_run: set[str] = set()
        self._stack: list[int] = []

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = HOOKS.get(name)
        signature = inspect.signature(fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if hook is not None:
                hook(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function under every name ``skattr`` binds it to.

        Modules import each other's functions by name (``from .pipeline
        import run_schema``), so each importing module holds its own
        reference. Every ``skattr.*`` module attribute that *is* a traced
        function object is replaced.
        """
        wrappers: dict[int, tuple[object, object]] = {}
        for names, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for qualname in names:
                module, attr = qualname.split(".")
                fn = getattr(sys.modules[f"skattr.{module}"], attr)
                wrappers[id(fn)] = (fn, make(qualname, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "skattr" and not modname.startswith("skattr."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

    def dump(self, path) -> None:
        """Write spans, counts and the schemas run as one JSON document."""
        record = {
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e}
                for i, (n, p, s, e) in enumerate(self.spans)
            ],
            "counts": dict(self.counts),
            "schemas_run": sorted(self.schemas_run),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def span_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` and ``self_s``.

    ``busy_s`` sums the spans' durations and ``self_s`` sums each span's
    duration minus the durations of its direct children.
    """
    child_time: defaultdict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] != -1:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        entry = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += dur
        entry["self_s"] += dur - child_time[s["id"]]
    return out
