"""In-memory spans around the benchmark's calls into waveuc, and the
self-time arithmetic that turns them into a per-layer split.

A span's layer is the part of its name before the first dot, so
``precond.apply.mf`` belongs to ``precond``.  Spans are only ever recorded
from the benchmark's own files; nothing inside waveuc is instrumented.
"""

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional

__all__ = ["Span", "Tracer", "self_times", "layer_of", "group_repeats"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    # index of the enclosing span in Tracer.spans, None for a root
    parent: Optional[int]
    solve: Optional[int]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans in memory; a span's parent is the span open when it
    began.  ``mark`` records an instant inside the innermost open span."""

    def __init__(self):
        self.spans = []
        self.marks = []  # (len(spans) at the mark, time, open span)
        self.solve = None
        self._open = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"),
                               parent, self.solve))
        self._open.append(idx)
        try:
            yield idx
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def mark(self, *_):
        """Usable directly as gmres' per-iteration ``log`` callback."""
        self.marks.append((len(self.spans), time.perf_counter(),
                           self._open[-1] if self._open else None))

    def as_dicts(self, origin=0.0):
        out = []
        for s in self.spans:
            d = asdict(s)
            d["start"] -= origin
            d["end"] -= origin
            out.append(d)
        return out


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def group_repeats(tracer, name):
    """Regroup the calls made between successive marks of one parent span.

    Between two marks, the first call of each span name is the step proper;
    any further call of the same name is gathered under a new child span
    ``name`` of the parent, running from that call's start to the mark.
    For gmres with ``log=tracer.mark`` the step is the Arnoldi operator and
    preconditioner application, and the repeats are the periodic
    true-residual check.
    """
    begin = {}
    for end, stamp, parent in list(tracer.marks):
        if parent is None:
            continue
        seen, repeats = set(), []
        for i in range(begin.get(parent, parent + 1), end):
            s = tracer.spans[i]
            if s.parent != parent:
                continue
            if s.name in seen:
                repeats.append(i)
            else:
                seen.add(s.name)
        begin[parent] = end
        if repeats:
            group = len(tracer.spans)
            tracer.spans.append(Span(name, tracer.spans[repeats[0]].start,
                                     stamp, parent, tracer.spans[parent].solve))
            for i in repeats:
                tracer.spans[i].parent = group
    tracer.marks.clear()
