"""Spans recorded by the benchmark around its calls into dcqe.

A span has a name, a start and an end (``perf_counter_ns``), the id of the
span that encloses it, the id of the operation it belongs to, and any
attributes the caller attaches (bytes written, trials drawn, bin count).
Spans are kept in memory and written once, when the run ends. The library
itself is not instrumented: every span sits at a call from this directory
into a public dcqe function.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "name": name,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


class NullTracer:
    """Stand-in used with tracing off: spans cost one context manager."""

    op = None

    def span(self, name: str, **attrs):
        return contextlib.nullcontext({})


