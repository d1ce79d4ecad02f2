"""In-memory spans around the benchmark's calls into invschub.

A span records its name, start, end, parent span and the id of the
operation it belongs to.  Spans stay in memory while a pass runs and are
written out once, when the pass ends.  A layer's self time is the span's
duration minus the time its child spans cover.

The untraced path uses :class:`NullTracer`, whose ``call`` is a plain call,
so timed passes and traced passes run the same operation code.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Calls straight through; used by the timed (untraced) passes."""

    op = None

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    """Records one span per wrapped call."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self._stack: list[int] = []
        self.op = None

    def call(self, name, fn, *args):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.op)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and summed self time in seconds."""
        child_time = defaultdict(float)
        for _sid, _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for sid, name, start, end, _parent, _op in self.spans:
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[sid]
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
