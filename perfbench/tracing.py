"""Spans around the public functions of the floquet_ising modules.

The tracer is installed from outside the package: it replaces each public
function (and each public method of FloquetOperator, plus its constructor)
with a wrapper that records a span, and rebinds every alias that other
package modules imported with ``from .x import y``. Uninstalling restores
the originals, so untraced measurements run the unmodified code.

Spans are kept in memory as (name, start, end, parent) and written out
when the run ends. Self time is a span's duration minus the durations of
its direct children; one thread runs the traced code, so children nest
strictly inside their parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

PACKAGE = "floquet_ising"
# the layers of the package; states and errors are helpers whose time
# counts towards their callers
LAYER_MODULES = ("model", "dynamics", "spectral", "metrology", "quasienergy", "sweep", "cli", "config", "output")
TRACED_CLASSES = {"model": ("FloquetOperator",)}


class Tracer:
    """Collects spans from the wrappers it hands out."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[span_id] = (name, start, end, parent)

        return traced

    @contextmanager
    def installed(self):
        """Trace every public function of the layer modules while active."""
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYER_MODULES}
        wrappers = {}
        patches = []
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
            for cls_name in TRACED_CLASSES.get(short, ()):
                cls = getattr(module, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if not inspect.isfunction(obj):
                        continue
                    if attr == "__init__":
                        name = f"{short}.{cls_name}"
                    elif attr.startswith("_"):
                        continue
                    else:
                        name = f"{short}.{attr}"
                    patches.append((cls, attr, obj))
                    setattr(cls, attr, self.wrap(name, obj))
        package_modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in package_modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name."""
        spans = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for span_id, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _ = span
            entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
        return stats

    def write(self, path: Path, extra: dict) -> None:
        """Write the layer table and every span (times in microseconds from the first span)."""
        names: dict[str, int] = {}
        rows = []
        origin = min((s[1] for s in self.spans if s is not None), default=0.0)
        for span in self.spans:
            if span is None:
                continue
            name, start, end, parent = span
            index = names.setdefault(name, len(names))
            rows.append([index, round((start - origin) * 1e6, 3), round((end - start) * 1e6, 3), parent])
        payload = dict(extra)
        payload["layers"] = self.layer_stats()
        payload["span_names"] = list(names)
        payload["span_fields"] = ["name", "start_us", "duration_us", "parent"]
        payload["spans"] = rows
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
