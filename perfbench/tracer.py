"""In-memory spans recorded around calls into frobtrace's public API.

A span is (id, parent id, name, start, end) in the tracer's clock; a
span's id is its index, and a top-level span has parent -1.  A count is
(id of the enclosing span, name, value), recorded at the same call
boundaries.  The benchmark records spans from its own code only: the
library is timed from outside, call by call.

Spans are stored column-wise in arrays, not as one list per span.  The
library's time on large inputs is up to 40 % garbage collection, and
collections run less often the more container objects are alive, so a
tracer that kept a list per span would speed up the very code it times.
"""

from __future__ import annotations

import json
import time
from array import array


class Tracer:
    def __init__(self, workload: str, clock=time.perf_counter):
        self.workload = workload
        self.clock = clock
        self.names = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.count_spans = array("q")
        self.count_names = []
        self.count_values = array("q")
        self._stack = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, value: int) -> None:
        self.count_spans.append(self._stack[-1] if self._stack else -1)
        self.count_names.append(name)
        self.count_values.append(value)

    def __len__(self):
        return len(self.names)

    def write(self, path, pass_starts) -> None:
        """Write every span and count as one JSON document, column-wise;
        ``pass_starts`` are the span ids at which each traced pass began."""
        doc = {
            "workload": self.workload,
            "pass_starts": pass_starts,
            "spans": {"name": self.names, "parent": self.parents.tolist(),
                      "start": self.starts.tolist(), "end": self.ends.tolist()},
            "counts": {"span": self.count_spans.tolist(), "name": self.count_names,
                       "value": self.count_values.tolist()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "sid")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.sid = len(tracer.names)
        tracer.names.append(name)
        tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
        tracer.starts.append(0.0)
        tracer.ends.append(0.0)

    def __enter__(self):
        self.tracer._stack.append(self.sid)
        self.tracer.starts[self.sid] = self.tracer.clock()
        return self

    def __exit__(self, *exc):
        self.tracer.ends[self.sid] = self.tracer.clock()
        self.tracer._stack.pop()
        return False


def summarize(tr: Tracer, start: int, end: int) -> dict:
    """Per span name among spans start..end-1: call count, total seconds,
    self seconds (duration minus the time covered by direct children)
    and per-call durations."""
    child_time = {}
    for sid in range(start, end):
        parent = tr.parents[sid]
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + tr.ends[sid] - tr.starts[sid]
    out = {}
    for sid in range(start, end):
        entry = out.setdefault(tr.names[sid], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                               "durations": []})
        duration = tr.ends[sid] - tr.starts[sid]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time.get(sid, 0.0)
        entry["durations"].append(duration)
    return out
