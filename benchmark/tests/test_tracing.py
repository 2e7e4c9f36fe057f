"""Spans, their nesting across threads, self times and the Chrome trace."""

import json
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from tracing import Span, Tracer, covered_share, layer_self_times, self_intervals, write_chrome_trace


def span(id, name, start, end, parent=None, worker="main"):
    return Span(id=id, name=name, parent=parent, worker=worker, start=start, end=end)


def test_self_time_subtracts_the_union_of_children():
    parent = span(0, "a.x", 0.0, 10.0)
    children = [span(1, "b.y", 1.0, 4.0, 0), span(2, "b.y", 3.0, 6.0, 0), span(3, "c.z", 8.0, 12.0, 0)]
    assert self_intervals(parent, children) == [(0.0, 1.0), (6.0, 8.0)]


def test_layer_self_times_add_up_to_the_root():
    spans = [
        span(0, "bench.pipeline", 0.0, 10.0),
        span(1, "decompose.run", 1.0, 7.0, 0),
        # two tasks of one layer overlap on two threads: their wall time counts once
        span(2, "dense.task", 1.5, 5.0, 1, "t1"),
        span(3, "dense.task", 2.0, 6.0, 1, "t2"),
        span(4, "graph.kruskal", 6.0, 6.5, 1),
        span(5, "io.write", 8.0, 9.0, 0),
    ]
    self_s = layer_self_times(spans)
    assert self_s["dense"] == pytest.approx(4.5)
    assert self_s["decompose"] == pytest.approx(1.0)
    assert self_s["graph"] == pytest.approx(0.5)
    assert self_s["io"] == pytest.approx(1.0)
    assert self_s["bench"] == pytest.approx(3.0)
    assert sum(self_s.values()) == pytest.approx(10.0)
    assert covered_share(spans[1], spans[2:4]) == pytest.approx(4.5 / 6.0)


def test_spans_opened_on_worker_threads_nest_under_the_caller():
    t = Tracer()
    with t.span("decompose.run") as outer:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda i: t.call("dense.task", sum, range(1000)), range(4)))
        with t.span("graph.merge"):
            pass
    tasks = t.named("dense.task")
    assert len(tasks) == 4
    assert all(s.parent == outer.id and s.worker != outer.worker for s in tasks)
    assert t.named("graph.merge")[0].parent == outer.id
    assert all(outer.start <= s.start <= s.end <= outer.end for s in tasks)


def test_patched_traces_module_globals_and_restores_them():
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    t = Tracer()
    with t.patched([(module, "f", "dense.f")]):
        assert module.f(1) == 2
    assert module.f is original
    assert [s.name for s in t.spans] == ["dense.f"]


def test_a_disabled_tracer_records_and_patches_nothing():
    module = types.SimpleNamespace(f=lambda: 1)
    original = module.f
    t = Tracer(enabled=False)
    with t.patched([(module, "f", "dense.f")]), t.span("bench.pipeline") as s:
        assert module.f is original
        s.args["ignored"] = 1
    assert t.spans == []


def test_chrome_trace_has_one_complete_event_per_span(tmp_path):
    t = Tracer()
    with t.span("bench.pipeline"):
        t.call("io.read", len, "abc")
    path = tmp_path / "trace.json"
    write_chrome_trace(t.spans, path)
    events = json.loads(path.read_text())["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in complete] == ["bench.pipeline", "io.read"]
    assert complete[1]["args"]["parent"] == complete[0]["args"]["id"]
    assert all(e["dur"] >= 0 and "thread_cpu_s" in e["args"] for e in complete)
