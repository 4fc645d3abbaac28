"""Which public calls the traced run wraps, and how spans become layer metrics.

Span names carry the layer they time (``charts.render``, ``fcm.verify``,
``index.candidates`` ...).  Functions that a caller imported by name are
patched where the caller looks them up, e.g. ``parse_query_payload`` in
``repro.serving.http.server`` and ``append_stream_rows`` in
``repro.serving.service``.

Every ``*_ms`` layer metric is the mean per operation of that span's *self*
time, so for each operation the layers' self times add up to the traced
latency; ``trace.unaccounted_ms`` reports what they leave over.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence

from .tracing import Span, TimedLock, Tracer, group_traces, trace_breakdown

#: Root span names of one query, in-process and over HTTP.
QUERY_ROOTS = ("serving.service.query", "serving.http.handle_query")
APPEND_ROOT = "serving.service.append_rows"
#: Root span names of one append batch, in-process and over HTTP.
APPEND_ROOTS = (APPEND_ROOT, "serving.http.handle_append")

#: Layer metric -> span whose mean self time per query it reports.
QUERY_SELF_MS = {
    "charts.render_ms": "charts.render",
    "serving.http.parse_ms": "serving.http.parse",
    "serving.http.serialize_ms": "serving.http.serialize",
    "serving.http.lock_wait_ms": "serving.http.lock_wait",
    "serving.http.handle_self_ms": "serving.http.handle_query",
    "serving.service.query_self_ms": "serving.service.query",
    "fcm.prepare_query_ms": "fcm.prepare_query",
    "index.candidates_ms": "index.candidates",
    "index.interval_ms": "index.interval",
    "index.lsh_ms": "index.lsh",
    "index.merge_ms": "index.query",
    "fcm.prefilter_ms": "fcm.prefilter",
    "fcm.verify_ms": "fcm.verify",
}

#: Every per-layer metric the benchmark reports, with its unit.
LAYER_UNITS = {
    **{name: "ms" for name in QUERY_SELF_MS},
    "serving.http.wire_ms": "ms",
    "serving.http.append_wire_ms": "ms",
    "serving.http.rejected_429": "count",
    "loadgen.lag_p95_ms": "ms",
    "serving.service.cache_hit_ratio": "ratio",
    "serving.service.invalidations": "count",
    "fcm.prepare_query_calls_per_query": "count",
    "index.candidate_fraction": "ratio",
    "index.empty_fallback_ratio": "ratio",
    "fcm.prefilter_keep_ratio": "ratio",
    "fcm.tables_scored_per_query": "count",
    "fcm.encode_s": "s",
    "index.build_s": "s",
    "serving.persistence.save_s": "s",
    "serving.persistence.load_s": "s",
    "serving.persistence.snapshot_mb": "MB",
    "serving.service.append_self_ms": "ms",
    "serving.streaming.append_ms": "ms",
    "serving.streaming.reencode_fraction": "ratio",
    "serving.streaming.segments_encoded_per_batch": "count",
    "serving.streaming.notify_ms": "ms",
    "serving.streaming.events_delivered": "count",
    "serving.streaming.events_dropped": "count",
    "trace.query_ms": "ms",
    "trace.unaccounted_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "quality.cluster_precision_at_10": "ratio",
}


def _client_port(args: tuple, kwargs: dict, result: object) -> Dict:
    """The client's TCP port of an HTTP handler call, read off the request
    handler its ``read_body`` argument is bound to (pairs the server's trace
    with the client's own record of the request)."""
    for arg in (*args, *kwargs.values()):
        address = getattr(getattr(arg, "__self__", None), "client_address", None)
        if address:
            return {"port": int(address[1])}
    return {}


def install_query_path(tracer: Tracer) -> None:
    """Wrap the query path from payload render down to verification."""
    from repro.fcm.scorer import FCMScorer
    from repro.index.hybrid import HybridQueryProcessor
    from repro.index.interval_tree import IntervalTree
    from repro.index.lsh import RandomHyperplaneLSH
    from repro.serving import SearchService
    from repro.serving.http import protocol, server

    tracer.wrap(server.ChartSearchServer, "handle_query", "serving.http.handle_query",
                attrs=_client_port)
    tracer.wrap(server, "parse_query_payload", "serving.http.parse")
    tracer.wrap(protocol, "render_line_chart", "charts.render")
    tracer.wrap(server, "query_result_to_dict", "serving.http.serialize")
    tracer.wrap(SearchService, "query", "serving.service.query")
    tracer.wrap(
        HybridQueryProcessor, "query", "index.query",
        attrs=lambda a, kw, r: {"total_tables": r.total_tables},
    )
    tracer.wrap(
        HybridQueryProcessor, "candidates", "index.candidates",
        attrs=lambda a, kw, r: {"found": len(r)},
    )
    tracer.wrap(IntervalTree, "query_table_ids", "index.interval")
    tracer.wrap(RandomHyperplaneLSH, "query", "index.lsh")
    tracer.wrap(FCMScorer, "prepare_query", "fcm.prepare_query")
    tracer.wrap(
        FCMScorer, "prefilter_ids", "fcm.prefilter",
        attrs=lambda a, kw, r: {"offered": len(a[2]), "kept": len(r)},
    )
    tracer.wrap(
        FCMScorer, "score_chart_batch", "fcm.verify",
        attrs=lambda a, kw, r: {"tables": len(r)},
    )


def install_build_path(tracer: Tracer) -> None:
    """Wrap encode, index build and snapshot save/load."""
    from repro.fcm.scorer import FCMScorer
    from repro.index.hybrid import HybridQueryProcessor
    from repro.serving import service

    tracer.wrap(FCMScorer, "index_repository", "fcm.encode")
    tracer.wrap(HybridQueryProcessor, "index_repository", "index.build")
    tracer.wrap(service, "save_processor", "serving.persistence.save")
    tracer.wrap(service, "load_processor", "serving.persistence.load")


def install_ingest_path(tracer: Tracer) -> None:
    """Wrap streaming appends and subscription notification."""
    from repro.serving import SearchService, service
    from repro.serving.streaming import SubscriptionEngine

    from repro.serving.http.server import ChartSearchServer

    tracer.wrap(ChartSearchServer, "handle_append_rows", "serving.http.handle_append",
                attrs=_client_port)
    tracer.wrap(SearchService, "append_rows", APPEND_ROOT)
    tracer.wrap(
        service, "append_stream_rows", "serving.streaming.append",
        attrs=lambda a, kw, r: {
            "dirty": len(r.dirty_segments), "segments": r.segments_total,
        },
    )
    tracer.wrap(SubscriptionEngine, "notify", "serving.streaming.notify")


def install_lock_timer(tracer: Tracer, http_server) -> None:
    """Time waits on one server's service lock as ``lock_wait`` spans."""
    http_server._service_lock = TimedLock(
        tracer, "serving.http.lock_wait", http_server._service_lock
    )


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #
def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def rooted_traces(spans: Iterable[Span], roots: Sequence[str]) -> List[List[Span]]:
    """Traces whose root span is named in ``roots``, in start order."""
    traces = [
        members for members in group_traces(spans).values()
        if members[0].parent_id is None and members[0].name in roots
    ]
    traces.sort(key=lambda members: members[0].start)
    return traces


def query_traces(spans: Iterable[Span]) -> List[List[Span]]:
    return rooted_traces(spans, QUERY_ROOTS)


def query_layer_metrics(
    traces: Sequence[Sequence[Span]],
    latencies_s: Sequence[float],
    wire_s: Optional[Sequence[float]] = None,
) -> Dict[str, float]:
    """Per-query layer metrics from query traces and the caller's latencies.

    ``latencies_s[i]`` is the latency the caller measured for ``traces[i]``;
    ``wire_s[i]`` (HTTP only) is the part of it outside ``handle_query``.
    """
    if len(traces) != len(latencies_s):
        raise ValueError("one latency per traced query is required")
    breakdowns = [trace_breakdown(members) for members in traces]
    out = {
        metric: 1e3 * _mean([b.get(name, 0.0) for b in breakdowns])
        for metric, name in QUERY_SELF_MS.items()
    }
    wire = list(wire_s) if wire_s is not None else [0.0] * len(traces)
    out["serving.http.wire_ms"] = 1e3 * _mean(wire)
    out["trace.query_ms"] = 1e3 * _mean(latencies_s)
    out["trace.unaccounted_ms"] = 1e3 * _mean(
        [lat - sum(b.values()) - w for lat, b, w in zip(latencies_s, breakdowns, wire)]
    )

    hits, prepare_calls, scored = 0, [], []
    fractions, empties, keep_ratios = [], [], []
    for members in traces:
        names = [s.name for s in members]
        if "serving.service.query" in names and "index.query" not in names:
            hits += 1
        prepare_calls.append(names.count("fcm.prepare_query"))
        scored.append(sum(s.attrs.get("tables", 0) for s in members if s.name == "fcm.verify"))
        total = next((s.attrs["total_tables"] for s in members if s.name == "index.query"), 0)
        for s in members:
            if s.name == "index.candidates" and total:
                fractions.append(s.attrs["found"] / total)
                empties.append(1.0 if s.attrs["found"] == 0 else 0.0)
            if s.name == "fcm.prefilter" and s.attrs.get("offered"):
                keep_ratios.append(s.attrs["kept"] / s.attrs["offered"])
    out["serving.service.cache_hit_ratio"] = hits / len(traces) if traces else 0.0
    out["fcm.prepare_query_calls_per_query"] = _mean(prepare_calls)
    out["fcm.tables_scored_per_query"] = _mean(scored)
    out["index.candidate_fraction"] = _mean(fractions)
    out["index.empty_fallback_ratio"] = _mean(empties)
    out["fcm.prefilter_keep_ratio"] = _mean(keep_ratios)
    return out


def append_layer_metrics(spans: Iterable[Span]) -> Dict[str, float]:
    """Per-batch streaming metrics from ``append_rows`` traces."""
    batches = rooted_traces(spans, APPEND_ROOTS)
    selfs, appends, notifies, fractions, dirty = [], [], [], [], []
    for members in batches:
        breakdown = trace_breakdown(members)
        selfs.append(breakdown.get(APPEND_ROOT, 0.0))
        appends.append(breakdown.get("serving.streaming.append", 0.0))
        notifies.append(breakdown.get("serving.streaming.notify", 0.0))
        for s in members:
            if s.name == "serving.streaming.append" and s.attrs.get("segments"):
                fractions.append(s.attrs["dirty"] / s.attrs["segments"])
                dirty.append(s.attrs["dirty"])
    return {
        "serving.service.append_self_ms": 1e3 * _mean(selfs),
        "serving.streaming.append_ms": 1e3 * _mean(appends),
        "serving.streaming.notify_ms": 1e3 * _mean(notifies),
        "serving.streaming.reencode_fraction": _mean(fractions),
        "serving.streaming.segments_encoded_per_batch": _mean(dirty),
    }


def build_layer_metrics(spans: Iterable[Span]) -> Dict[str, float]:
    """Seconds per build stage, summed over the traced set-up."""
    spans = list(spans)
    totals: Dict[str, float] = {}
    for members in group_traces(spans).values():
        for name, seconds in trace_breakdown(members).items():
            totals[name] = totals.get(name, 0.0) + seconds
    return {
        "fcm.encode_s": totals.get("fcm.encode", 0.0),
        "index.build_s": totals.get("index.build", 0.0),
        "serving.persistence.save_s": totals.get("serving.persistence.save", 0.0),
        "serving.persistence.load_s": totals.get("serving.persistence.load", 0.0),
    }
