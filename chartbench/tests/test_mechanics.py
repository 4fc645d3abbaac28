"""Mechanics of the chart-search benchmark harness.

Run from the repository root::

    python -m pytest chartbench/tests -q
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from chartbench import common, http_load, layers
from chartbench.tracing import Span, Tracer, self_times, trace_breakdown

ROOT = Path(__file__).resolve().parents[2]


# --------------------------------------------------------------------------- #
# Open-loop timing
# --------------------------------------------------------------------------- #
class _StallingServer:
    """Serialised fake ``POST /query`` endpoint; a ``STALL`` body stalls."""

    def __init__(self, stall: float) -> None:
        lock = threading.Lock()

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args) -> None:
                pass

            def do_POST(self) -> None:  # noqa: N802
                body = self.rfile.read(int(self.headers["Content-Length"]))
                with lock:
                    if body == b"STALL":
                        time.sleep(stall)
                data = json.dumps({"ranking": [], "candidates": 0}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self.httpd.server_address[1]

    def __exit__(self, *exc) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5)


def test_open_loop_latency_counts_a_stall_from_the_due_time():
    stall, gap = 0.4, 0.02
    requests = [http_load.Request(i * gap, b"STALL" if i == 0 else b"{}", i)
                for i in range(12)]
    with _StallingServer(stall) as port:
        records = http_load.Client(port).run(requests)
    assert all(r.status == 200 for r in records)
    stall_end = records[0].sent + stall
    assert records[0].done >= stall_end
    # Every request due while the first one held the server finished only
    # after the stall, and its latency from the due time covers that wait.
    queued = [r for r in records[1:] if r.due < stall_end]
    assert len(queued) >= 10
    for record in queued:
        assert record.done >= stall_end
        assert record.latency >= stall_end - record.due
    # Both connections were busy, so the generator itself ran late; timing
    # from the send instead of the due time would have hidden the wait.
    late = [r for r in queued if r.lag > 0.1]
    assert late
    assert all(r.done - r.sent < r.latency for r in late)


def test_pinned_schedule_keeps_each_connection_in_order():
    requests = [http_load.Request(0.0, b"{}", i) for i in range(8)]
    with _StallingServer(0.0) as port:
        records = http_load.Client(port).run(requests, assign=lambda i: i % 2)
    for worker in (0, 1):
        own = [records[i] for i in range(8) if i % 2 == worker]
        assert len({r.port for r in own}) == 1
        assert [r.seq for r in own] == list(range(4))


# --------------------------------------------------------------------------- #
# Span trees
# --------------------------------------------------------------------------- #
def _span(span_id, parent, start, end, name="x"):
    return Span(name, start, end, span_id, parent, 1)


def test_self_time_subtracts_children_on_a_hand_built_tree():
    spans = [
        _span(1, None, 0.0, 10.0, "root"),
        _span(2, 1, 1.0, 4.0, "a"),
        _span(3, 2, 2.0, 3.0, "a.child"),
        _span(4, 1, 5.0, 9.0, "b"),
        _span(5, 4, 5.5, 6.0, "b.child"),
        _span(6, 4, 8.0, 8.5, "b.child"),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 0.5, 6: 0.5})
    # Sequential children: the self times account for the root exactly.
    assert sum(own.values()) == pytest.approx(10.0)
    assert trace_breakdown(spans) == pytest.approx(
        {"root": 3.0, "a": 2.0, "a.child": 1.0, "b": 3.0, "b.child": 1.0}
    )


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),
        _span(4, 1, 9.0, 12.0),  # clipped to the parent's end
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_wraps_nests_and_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.outer
    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner", attrs=lambda a, kw, r: {"result": r})
    assert Layer().outer() == 2
    tracer.uninstall()
    assert Layer.outer is original
    inner, outer = tracer.spans
    assert outer.parent_id is None and outer.trace_id == outer.span_id
    assert inner.parent_id == outer.span_id and inner.trace_id == outer.trace_id
    assert inner.attrs == {"result": 1}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_query_layer_metrics_account_for_the_latency():
    trace = [
        _span(1, None, 0.0, 0.010, "serving.service.query"),
        _span(2, 1, 0.001, 0.009, "index.query"),
        _span(3, 2, 0.001, 0.002, "index.candidates"),
        _span(4, 2, 0.002, 0.008, "fcm.verify"),
    ]
    trace[2].attrs["found"] = 0
    trace[1].attrs["total_tables"] = 100
    trace[3].attrs["tables"] = 100
    metrics = layers.query_layer_metrics([trace], [0.0105])
    assert metrics["fcm.verify_ms"] == pytest.approx(6.0)
    assert metrics["index.merge_ms"] == pytest.approx(1.0)
    assert metrics["serving.service.query_self_ms"] == pytest.approx(2.0)
    assert metrics["trace.unaccounted_ms"] == pytest.approx(0.5)
    assert metrics["index.empty_fallback_ratio"] == 1.0
    assert metrics["fcm.tables_scored_per_query"] == 100
    assert metrics["serving.service.cache_hit_ratio"] == 0.0


# --------------------------------------------------------------------------- #
# Statistics and checks
# --------------------------------------------------------------------------- #
def test_p95_needs_ten_samples_beyond_it():
    assert common.min_samples(0.95) == 200
    assert common.min_samples(0.90) == 100
    assert common.min_samples(0.75) == 40
    with pytest.raises(common.TooFewSamples):
        common.percentile(list(range(199)), 0.95)
    samples = list(range(1, 201))
    p95 = common.percentile(samples, 0.95)
    assert sum(s > p95 for s in samples) >= 10
    assert common.percentile([3.0], 0.5) == 3.0


def test_ranking_checks():
    known = {"synth_000001", "synth_000002", "synth_000003"}
    good = [("synth_000002", 0.9), ("synth_000001", 0.5)]
    assert common.ranking_problem(good, 2, 3, known) is None
    assert common.ranking_problem(good[:1], 1, 1, known) is None
    assert "entries" in common.ranking_problem(good[:1], 2, 3, known)
    assert "unknown" in common.ranking_problem([("t", 1.0)], 1, 1, known)
    assert "repeats" in common.ranking_problem(good[:1] * 2, 2, 3, known)
    assert "finite" in common.ranking_problem([("synth_000001", float("nan"))], 1, 1, known)
    assert "sorted" in common.ranking_problem(good[::-1], 2, 3, known)
    assert common.table_cluster("synth_000017") == 1
    assert common.table_cluster("stream03") is None


def test_benchmark_json_lists_the_reported_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == layers.LAYER_UNITS
    assert spec["paths"] == ["chartbench"]
    assert {w["name"] for w in spec["workloads"]} == {"http_mixed_1k", "ingest_subscribe_1k"}
