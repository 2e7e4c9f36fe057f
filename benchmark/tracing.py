"""In-memory spans around calls into geomst, their self times, and a Chrome trace.

A span is named "<layer>.<call>". It records its start and end on the
perf_counter clock, the span that was open when it began (in its own thread,
or else the innermost span open on the thread that created the tracer), the
thread that ran it, and that thread's CPU time. Spans stay in memory until
write_chrome_trace dumps them once.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    worker: str
    start: float
    end: float = 0.0
    thread_cpu: float = 0.0
    process_cpu: float = 0.0
    args: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; a disabled tracer runs the same calls and records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield Span(-1, name, None, "", 0.0)
            return
        stack = self._stack()
        opener = stack or self._home
        s = Span(
            id=next(self._ids),
            name=name,
            parent=opener[-1].id if opener else None,
            worker=threading.current_thread().name,
            start=time.perf_counter(),
        )
        cpu0, proc0 = time.thread_time(), time.process_time()
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.thread_cpu = time.thread_time() - cpu0
            s.process_cpu = time.process_time() - proc0
            stack.pop()
            with self._lock:
                self.spans.append(s)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets):
        """Trace calls a module makes through its own global names.

        targets holds (module, attribute, span name). This is how spans nest
        inside a geomst call, for instance one per dense task inside
        decomposed_mst, without changing the package. The originals come back
        on exit. A disabled tracer patches nothing.
        """
        saved = []
        try:
            for module, attr, name in targets if self.enabled else ():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def union(intervals) -> list[tuple[float, float]]:
    """Sorted, disjoint intervals covering the same time as the input."""
    merged: list[list[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def measure(intervals) -> float:
    return sum(b - a for a, b in union(intervals))


def clip(intervals, lo: float, hi: float) -> list[tuple[float, float]]:
    return [(max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)]


def self_intervals(span: Span, children: list[Span]) -> list[tuple[float, float]]:
    """The parts of span's interval that none of its children cover."""
    out, cursor = [], span.start
    for a, b in union(clip([(c.start, c.end) for c in children], span.start, span.end)):
        if a > cursor:
            out.append((cursor, a))
        cursor = max(cursor, b)
    if span.end > cursor:
        out.append((cursor, span.end))
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds each layer was running with none of its own callees running.

    A span's self time is its duration minus the time its child spans
    cover. Per layer the self intervals are united, so two tasks of one
    layer running at once on two threads count the shared wall time once,
    and the layers' self times add up to the root span's duration.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    per_layer: dict[str, list] = {}
    for s in spans:
        per_layer.setdefault(s.layer, []).extend(self_intervals(s, children.get(s.id, [])))
    return {layer: measure(iv) for layer, iv in per_layer.items()}


def covered_share(parent: Span, spans: list[Span]) -> float:
    """Share of parent's wall time during which at least one of spans runs."""
    if parent.duration <= 0:
        return 0.0
    return measure(clip([(s.start, s.end) for s in spans], parent.start, parent.end)) / parent.duration


def write_chrome_trace(spans: list[Span], path) -> None:
    """Chrome trace-event JSON (chrome://tracing, Perfetto): one complete event per span."""
    t0 = min((s.start for s in spans), default=0.0)
    tids = {}
    events = []
    for s in sorted(spans, key=lambda s: s.start):
        tid = tids.setdefault(s.worker, len(tids))
        events.append(
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 0,
                "tid": tid,
                "args": {"id": s.id, "parent": s.parent, "thread_cpu_s": s.thread_cpu, **s.args},
            }
        )
    events += [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid, "args": {"name": worker}}
        for worker, tid in tids.items()
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
