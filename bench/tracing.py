"""Spans around the public functions of knotobs' modules, installed from the
benchmark's side without touching the package.

``Tracer.install`` replaces every public function of each layer module with a
wrapper that records a span (id, name, start, end, parent id) and adds to
per-name totals: calls, self time (span time minus the time of its child
spans) and calls that raised.  ``PiecewiseLinearFunction.__add__`` is traced
as ``upsilon.pl_add``.  Spans stay in memory until ``dump``.

Run as a script it traces one CLI invocation in a fresh interpreter:

    python bench/tracing.py SPANS.json knotobs-argv...
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("laurent", "knots", "signature", "upsilon", "ordered", "artifacts", "cli")
MAX_SPANS = 1_000_000


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds, failed]
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                stat = self.stats.setdefault(name, [0, 0.0, 0])
                stat[0] += 1
                stat[1] += duration - frame[1]
                stat[2] += failed
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, name, start, end, parent))

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"knotobs.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == module.__name__:
                    setattr(module, attr, self.wrap(f"{layer}.{attr}", obj))
        pl = importlib.import_module("knotobs.upsilon").PiecewiseLinearFunction
        pl.__add__ = self.wrap("upsilon.pl_add", pl.__add__)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"stats": self.stats, "spans": self.spans}, fh)


def _trace_cli(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from knotobs import cli

    try:
        return cli.run(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(_trace_cli(sys.argv[1], sys.argv[2:]))
