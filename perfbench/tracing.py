"""In-memory span recorder for the traced benchmark run.

A span has a name of the form ``<layer>.<operation>``, a start and end on
the ``time.perf_counter`` clock, the index of its parent span, and the run
id shared by every span of one run. Spans stay in memory until the run
ends and ``dump`` writes them out. Counters (bytes, resample counts) are
kept beside the spans, at the same call boundaries.

Spans are recorded around the benchmark's own calls into the package.
Where the program calls a layer itself (the CLI calling the cohort or
statistics functions), ``patch`` wraps the names the caller looks up
while the traced pipeline runs and restores them afterwards; no source
file of the package changes.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager


@contextmanager
def swapped(target, attr: str, value):
    """Set target.<attr> to value, restoring the original on exit."""
    saved = getattr(target, attr)
    setattr(target, attr, value)
    try:
        yield
    finally:
        setattr(target, attr, saved)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "run": self.run_id}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span; count(args, result) may add counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    @contextmanager
    def patch(self, target, names: dict):
        """Wrap target.<attr> in a span for each attr -> span name (or
        (span name, count) pair) in names, restoring them on exit."""
        with ExitStack() as stack:
            for attr, spec in names.items():
                span_name, count = spec if isinstance(spec, tuple) else (spec, None)
                wrapped = self.wrap(span_name, getattr(target, attr), count)
                stack.enter_context(swapped(target, attr, wrapped))
            yield

    # ------------------------------------------------------------------
    # summaries

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their children cover.

        Spans nest on one thread, so children never overlap and their
        durations add.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        layers = defaultdict(float)
        for index, s in enumerate(self.spans):
            layer = s["name"].split(".", 1)[0]
            layers[layer] += (s["end"] - s["start"]) - child_time[index]
        return dict(layers)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans,
                       "counts": dict(self.counts)}, fh)
            fh.write("\n")
