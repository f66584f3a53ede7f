"""In-memory span recording at the package's layer boundaries.

Spans are recorded by the benchmark around its own calls into the package
and, during a traced run, around the cross-layer calls that the package
makes through module attributes (``heat_coeffs`` into ``special_eval`` and
``legendre_asymptotics``, ``spectrum`` into ``dirichlet_roots``).  Nothing in
the package itself is edited; the wrappers are removed when the traced
segment ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
from time import perf_counter


class Tracer:
    """Spans as [name, start, end, parent index, run id], kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = ""
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), None, self._open[-1] if self._open else None, self.run_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def patched(self, boundaries):
        """Wrap ``module.attr`` in a span named ``name`` for each
        (module, attr, name) triple, restoring the originals on exit."""
        saved = []
        try:
            for module, attr, name in boundaries:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by direct child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - inner
        return out

    def write(self, path) -> None:
        fields = ("name", "start", "end", "parent", "run")
        path.write_text(json.dumps([dict(zip(fields, s)) for s in self.spans]) + "\n")


class NullTracer:
    """Tracing off: spans cost one shared no-op context manager."""

    run_id = ""

    def span(self, name: str):
        return contextlib.nullcontext()
