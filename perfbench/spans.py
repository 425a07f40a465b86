"""In-memory spans around the benchmark's calls into repzeta.

A span records its name (``<layer>.<call>``), start and end in perf_counter
nanoseconds, the span that encloses it, the job it belongs to, and whether
the call raised.  Spans are kept in a list and written out once, when the
run ends.  A layer's self time is the time of its spans minus the time of
their direct children; since one thread runs everything and spans nest, the
self times of all layers add up to the time of the root spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Untraced runs: calls go straight through."""

    def span(self, name, job=None):
        return nullcontext()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        # (id, name, start_ns, end_ns, parent id or None, job id or None, failed)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._job = None

    @contextmanager
    def span(self, name, job=None):
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in when the span ends
        parent = self._stack[-1] if self._stack else None
        outer_job = self._job
        if job is not None:
            self._job = job
        self._stack.append(span_id)
        failed = False
        start = time.perf_counter_ns()
        try:
            yield
        except BaseException:
            failed = True
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, self._job, failed)
            self._job = outer_job

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[int, float]:
        """Self time in seconds of every span."""
        own = {sid: (end - start) for sid, _, start, end, _, _, _ in self.spans}
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return {sid: ns / 1e9 for sid, ns in own.items()}

    def by_layer(self):
        """Per layer: calls, self seconds and failed calls."""
        self_s = self.self_times()
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "failed": 0})
        for sid, name, _, _, _, _, failed in self.spans:
            entry = out[name.split(".", 1)[0]]
            entry["calls"] += 1
            entry["self_s"] += self_s[sid]
            entry["failed"] += failed
        return out

    def by_job(self):
        """Per job id: total seconds of each span name."""
        out = defaultdict(lambda: defaultdict(float))
        counts = defaultdict(lambda: defaultdict(int))
        for _, name, start, end, _, job, _ in self.spans:
            if job is not None:
                out[job][name] += (end - start) / 1e9
                counts[job][name] += 1
        return out, counts

    def write(self, path) -> None:
        fields = ("id", "name", "start_ns", "end_ns", "parent", "job", "failed")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, span)) for span in self.spans], fh)
            fh.write("\n")
