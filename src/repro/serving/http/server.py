"""A dependency-free threaded HTTP front-end over :class:`SearchService`.

This is the serving stack's first network boundary: JSON chart specs in,
ranked tables out, built entirely on the stdlib
(:class:`http.server.ThreadingHTTPServer`) so the container needs nothing
beyond what the repository already imports.

Endpoints
---------
==============================  =============================================
``POST /query``                 top-``k`` search for a JSON chart payload
``POST /tables``                add tables to the live index
``DELETE /tables/<id>``         remove one table
``GET /tables``                 list indexed table ids
``POST /tables/<id>/rows``      streaming ingest: append rows to a live
                                stream, re-encoding only dirty segments and
                                notifying standing subscriptions
``POST /subscriptions``         register a standing pattern query
``GET /subscriptions``          list active subscriptions + delivery stats
``GET /subscriptions/<id>/events``  drain pending events (``?max=N``)
``DELETE /subscriptions/<id>``  drop a standing query
``POST /snapshot``              persist the index (full base or O(delta)
                                append)
``GET /healthz``                liveness (503 while draining)
``GET /metrics``                per-endpoint latency/status counters + the
                                per-strategy stats the service already
                                tracks (JSON; ``?format=prometheus`` renders
                                the same registry in the Prometheus text
                                exposition)
==============================  =============================================

Observability (see :mod:`repro.obs`): every endpoint's counters live in a
per-server :class:`repro.obs.metrics.MetricsRegistry`; with
``HTTPServingConfig(tracing=True)`` each ``POST /query`` runs under a trace
whose span tree covers admission → render → cache → candidates → verify →
merge (plus worker-side spans when the service uses a query worker pool),
feeds the ``REPRO_SLOW_QUERY_MS`` slow-query log and can be returned to the
client via ``{"debug": {"trace": true}}`` in the request body.
``{"debug": {"profile": true}}`` wraps just that request's service call in
``cProfile`` and returns the formatted profile.  Responses without a
``debug`` request key are byte-identical to an uninstrumented server's.

Failure-path behaviour — the part a real client hits first — is explicit:

* **Admission control.**  The service itself is single-writer (one
  :class:`~repro.serving.service.SearchService` guarded by a lock), so the
  server bounds how many requests may be *in flight* (executing + waiting
  on that lock) at ``HTTPServingConfig.max_inflight``.  A request over the
  bound is answered immediately with **429** and a ``Retry-After`` header —
  overload degrades to fast rejections, never to unbounded queueing, hangs
  or 5xx (``benchmarks/load_gen.py`` demonstrates this under a deliberate
  overload burst).
* **Graceful drain.**  :meth:`ChartSearchServer.close` stops admitting new
  work (503), waits for in-flight requests to complete (bounded by
  ``drain_timeout``), then tears the listener down — a query accepted
  before the drain began always gets its response.
* **Structured errors.**  Malformed JSON, unknown strategies, ``k <= 0``,
  oversized bodies and unknown routes map to 400/413/404/405 JSON bodies
  via :class:`~repro.serving.http.protocol.ProtocolError`; only a genuine
  server-side defect produces a 500.

``GET /healthz`` and ``GET /metrics`` bypass admission control: the
operator's view must stay available precisely when the server is saturated.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs

from ...obs import (
    MetricsRegistry as ObsMetricsRegistry,
    Span,
    get_logger,
    maybe_log_slow_query,
    profile_block,
    span,
    start_trace,
)
from ..service import SearchService
from .protocol import (
    ProtocolError,
    parse_query_debug,
    parse_query_payload,
    parse_rows_payload,
    parse_snapshot_payload,
    parse_subscribe_payload,
    parse_tables_payload,
    query_result_to_dict,
)

_log = get_logger("repro.serving.http")

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


@dataclass
class HTTPServingConfig:
    """Knobs of the HTTP front-end (index knobs live in ``ServingConfig``).

    Attributes
    ----------
    host, port:
        Bind address; port ``0`` picks a free ephemeral port (the bound
        port is on :attr:`ChartSearchServer.port`).
    max_inflight:
        Admission bound: how many service requests may be in flight at
        once — one executing inside the service lock, the rest queued on
        it.  Requests beyond the bound get a 429 with ``Retry-After``
        instead of joining an unbounded queue.
    retry_after_seconds:
        The hint sent in the 429 ``Retry-After`` header.
    max_body_bytes:
        Requests with a larger ``Content-Length`` are refused with 413
        before the body is read.
    drain_timeout:
        How long :meth:`ChartSearchServer.close` waits for in-flight
        requests before tearing the listener down anyway.
    snapshot_path:
        Default target of ``POST /snapshot`` when the body names none.
    close_service:
        When true, :meth:`ChartSearchServer.close` also closes the wrapped
        :class:`~repro.serving.service.SearchService` (releasing its query
        worker pool).
    tracing:
        When true, every ``POST /query`` runs under a per-request trace
        minted at the HTTP boundary: the span tree covers admission,
        payload render, the service stages and any worker-side spans, lands
        on :attr:`ChartSearchServer.last_trace`, feeds the
        ``REPRO_SLOW_QUERY_MS`` slow-query log and is returned to clients
        that ask with ``{"debug": {"trace": true}}``.  Off by default: the
        warm query path then costs one context-variable read per
        instrumented stage (bounded ≤5 % in ``BENCH_serving.json``).  A
        ``debug.trace`` request against an untraced server still gets a
        (service-stage) trace — only that request pays for it.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 8
    retry_after_seconds: float = 1.0
    max_body_bytes: int = 8 * 1024 * 1024
    drain_timeout: float = 10.0
    snapshot_path: Optional[str] = None
    close_service: bool = True
    tracing: bool = False

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.retry_after_seconds <= 0:
            raise ValueError("retry_after_seconds must be positive")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")


class EndpointMetricsRegistry:
    """Per-endpoint request counters over :mod:`repro.obs` primitives.

    Each :class:`ChartSearchServer` owns one (backed by a private
    :class:`repro.obs.metrics.MetricsRegistry`, so two servers in one
    process never mix counts).  The obs registry is the single source of
    truth with two read surfaces: :meth:`snapshot` reshapes it into the
    pinned per-endpoint JSON of ``GET /metrics``, and the registry's own
    ``render_prometheus`` serves ``GET /metrics?format=prometheus``.
    Concurrent ``observe`` calls from ``ThreadingHTTPServer`` handler
    threads are safe — all mutation goes through the registry's lock.
    """

    def __init__(self, registry: Optional[ObsMetricsRegistry] = None) -> None:
        self.registry = registry or ObsMetricsRegistry()
        self._requests = self.registry.counter(
            "http_requests_total", "requests served, by endpoint and status"
        )
        self._latency = self.registry.histogram(
            "http_request_latency_ms",
            "request latency in milliseconds, by endpoint",
        )
        self._rejected = self.registry.counter(
            "http_admission_rejected_total",
            "requests answered 429 at the admission bound",
        )
        self._draining = self.registry.counter(
            "http_draining_rejected_total",
            "requests answered 503 while the server drained",
        )

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        status_label = str(int(status))
        self._requests.inc(endpoint=endpoint, status=status_label)
        self._latency.observe(seconds * 1e3, endpoint=endpoint)
        if status == 429:
            self._rejected.inc()
        elif status == 503:
            self._draining.inc()

    @property
    def rejected_429(self) -> int:
        return int(self._rejected.value())

    @property
    def draining_503(self) -> int:
        return int(self._draining.value())

    def snapshot(self) -> Dict:
        """The per-endpoint JSON view (requests, status_counts, latency_ms)."""
        snap = self.registry.snapshot()
        endpoints: Dict[str, Dict] = {}
        for entry in snap["http_requests_total"]["series"]:
            endpoint = entry["labels"]["endpoint"]
            status = entry["labels"]["status"]
            info = endpoints.setdefault(
                endpoint,
                {
                    "requests": 0,
                    "status_counts": {},
                    "latency_ms": {"mean": 0.0, "max": 0.0},
                },
            )
            info["requests"] += int(entry["value"])
            info["status_counts"][status] = info["status_counts"].get(
                status, 0
            ) + int(entry["value"])
        for entry in snap["http_request_latency_ms"]["series"]:
            info = endpoints.get(entry["labels"]["endpoint"])
            if info is None:
                continue
            info["latency_ms"] = {
                "mean": entry["mean"],
                "max": entry["max"],
                "p50": entry["p50"],
                "p95": entry["p95"],
                "p99": entry["p99"],
            }
        return {
            name: {
                "requests": info["requests"],
                "status_counts": dict(sorted(info["status_counts"].items())),
                "latency_ms": info["latency_ms"],
            }
            for name, info in sorted(endpoints.items())
        }


#: Backwards-compatible alias: the HTTP tier's registry used to be a
#: standalone class of this name before it was rebuilt over ``repro.obs``.
MetricsRegistry = EndpointMetricsRegistry


class ChartSearchServer:
    """Serve a :class:`~repro.serving.service.SearchService` over HTTP.

    The server owns a listener thread plus one handler thread per
    connection (:class:`~http.server.ThreadingHTTPServer`); all service
    calls are serialised behind one lock, which keeps the non-thread-safe
    ``SearchService`` correct and makes the admission bound meaningful.

    Example
    -------
    >>> server = ChartSearchServer(service).start()
    >>> server.url
    'http://127.0.0.1:43621'
    >>> # ... POST /query, /tables, /snapshot ...
    >>> server.close()          # drain in-flight requests, then stop
    """

    def __init__(
        self,
        service: SearchService,
        config: Optional[HTTPServingConfig] = None,
    ) -> None:
        self.service = service
        self.config = config or HTTPServingConfig()
        self.metrics = EndpointMetricsRegistry()
        #: Serialised span tree of the most recent traced ``POST /query``
        #: (``HTTPServingConfig(tracing=True)`` or a ``debug.trace``
        #: request); ``None`` until one completes.
        self.last_trace: Optional[Dict] = None
        self._service_lock = threading.Lock()
        self._admission = threading.BoundedSemaphore(self.config.max_inflight)
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Condition(self._inflight_lock)
        self._draining = threading.Event()
        self._started_monotonic = time.monotonic()
        handler = type("_BoundHandler", (_RequestHandler,), {"owner": self})
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def start(self) -> "ChartSearchServer":
        """Begin serving on a daemon listener thread (idempotent)."""
        if self._closed:
            raise RuntimeError("server already closed; build a new one")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name=f"repro-http-{self.port}",
                daemon=True,
            )
            self._thread.start()
            _log.info(
                "server_started",
                url=self.url,
                max_inflight=self.config.max_inflight,
                tracing=self.config.tracing,
                num_tables=self.service.num_tables,
            )
        return self

    def close(self, drain_timeout: Optional[float] = None) -> None:
        """Drain in-flight requests, then stop serving (idempotent).

        New requests arriving during the drain are answered 503; requests
        admitted before it began run to completion (bounded by
        ``drain_timeout``, default ``config.drain_timeout``).  With
        ``config.close_service`` the wrapped service's worker pool is
        released as well.
        """
        if self._closed:
            return
        self._draining.set()
        deadline = time.monotonic() + (
            self.config.drain_timeout if drain_timeout is None else drain_timeout
        )
        with self._idle:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(timeout=remaining)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self.config.close_service:
            self.service.close()
        self._closed = True
        _log.info("server_closed", url=self.url)

    def __enter__(self) -> "ChartSearchServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Request bookkeeping (called from handler threads)
    # ------------------------------------------------------------------ #
    def _enter_request(self) -> None:
        with self._inflight_lock:
            self._inflight += 1

    def _exit_request(self) -> None:
        with self._idle:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.notify_all()

    # ------------------------------------------------------------------ #
    # Endpoint implementations (called under admission; service calls
    # additionally take the service lock)
    # ------------------------------------------------------------------ #
    def handle_query(
        self,
        read_body: Callable[[], object],
        request_start: Optional[float] = None,
    ) -> Tuple[int, Dict]:
        """Serve one ``POST /query``.

        ``read_body`` is deferred so a traced request's payload read +
        chart render land inside the trace's ``render`` span;
        ``request_start`` (the dispatcher's clock at request entry) becomes
        the pre-measured ``admission`` span.  Untraced requests — no server
        tracing, no ``debug`` flags — take the plain path and produce
        byte-identical response bodies.
        """
        spec = self.service.model.config.chart_spec
        if self.config.tracing:
            with start_trace("http_query") as root:
                if request_start is not None:
                    admission = Span("admission")
                    admission.duration = time.perf_counter() - request_start
                    root.attach(admission)
                with span("render"):
                    payload = read_body()
                    chart, k, strategy = parse_query_payload(payload, spec)
                    debug = parse_query_debug(payload)
                root.attributes.update(k=k, strategy=strategy)
                status, body = self._query_service(chart, k, strategy, debug)
            return status, self._finish_trace(root, body, debug)
        payload = read_body()
        chart, k, strategy = parse_query_payload(payload, spec)
        debug = parse_query_debug(payload)
        if debug["trace"]:
            # Per-request opt-in on an untraced server: the body is already
            # parsed, so the tree starts at the service stages.
            with start_trace("http_query", k=k, strategy=strategy) as root:
                status, body = self._query_service(chart, k, strategy, debug)
            return status, self._finish_trace(root, body, debug)
        return self._query_service(chart, k, strategy, debug)

    def _query_service(
        self, chart, k: int, strategy: str, debug: Dict[str, bool]
    ) -> Tuple[int, Dict]:
        """The service call under the lock (+ optional per-request profile)."""
        profile_capture = None
        with self._service_lock:
            if self.service.num_tables == 0:
                return 200, {
                    "k": k,
                    "strategy": strategy,
                    "ranking": [],
                    "candidates": 0,
                    "total_tables": 0,
                    "seconds": 0.0,
                }
            if debug["profile"]:
                # Scoped to exactly this request's service call: neighbours
                # on other handler threads are queued on the service lock
                # anyway, so nothing else runs under the profiler.
                with profile_block() as profile_capture:
                    result = self.service.query(chart, k, strategy=strategy)
            else:
                result = self.service.query(chart, k, strategy=strategy)
        body = query_result_to_dict(result, k, strategy)
        if profile_capture is not None:
            body.setdefault("debug", {})["profile"] = profile_capture.text(top=30)
        return 200, body

    def _finish_trace(
        self, root: Span, body: Dict, debug: Dict[str, bool]
    ) -> Dict:
        """Record a finished query trace; return ``body`` (+- debug.trace)."""
        tree = root.to_dict()
        self.last_trace = tree
        maybe_log_slow_query(tree)
        if debug["trace"]:
            body.setdefault("debug", {})["trace"] = tree
        return body

    def handle_add_tables(self, payload: object) -> Tuple[int, Dict]:
        tables = parse_tables_payload(payload)
        with self._service_lock:
            known = set(self.service.table_ids)
            self.service.add_tables(tables)
            added = [t.table_id for t in tables if t.table_id not in known]
            skipped = [t.table_id for t in tables if t.table_id in known]
            num_tables = self.service.num_tables
        return 200, {
            "added": added,
            "already_indexed": skipped,
            "num_tables": num_tables,
        }

    def handle_remove_table(self, table_id: str) -> Tuple[int, Dict]:
        with self._service_lock:
            removed = self.service.remove_tables([table_id])
            num_tables = self.service.num_tables
        if removed == 0:
            raise ProtocolError(f"unknown table id {table_id!r}", status=404)
        return 200, {"removed": table_id, "num_tables": num_tables}

    def handle_list_tables(self) -> Tuple[int, Dict]:
        with self._service_lock:
            ids = sorted(self.service.table_ids)
        return 200, {"num_tables": len(ids), "table_ids": ids}

    # -- streaming ingest + subscriptions ------------------------------ #
    def handle_append_rows(
        self, table_id: str, read_body: Callable[[], object]
    ) -> Tuple[int, Dict]:
        """Serve one ``POST /tables/{id}/rows`` (streaming ingest).

        With server tracing on, the whole batch — payload parse, segment
        re-encode, subscription notification — runs under one
        ``http_append_rows`` trace (the service's ``append_rows`` /
        ``notify`` / per-``subscription`` spans attach to it), mirroring
        the traced ``POST /query`` path.
        """
        if not table_id:
            raise ProtocolError("missing table id in path", status=404)
        if self.config.tracing:
            with start_trace("http_append_rows", table_id=table_id) as root:
                with span("render"):
                    columns, roles = parse_rows_payload(read_body())
                status, body = self._append_service(table_id, columns, roles)
            tree = root.to_dict()
            self.last_trace = tree
            maybe_log_slow_query(tree)
            return status, body
        columns, roles = parse_rows_payload(read_body())
        return self._append_service(table_id, columns, roles)

    def _append_service(
        self, table_id: str, columns: Dict, roles: Dict[str, str]
    ) -> Tuple[int, Dict]:
        with self._service_lock:
            try:
                result = self.service.append_rows(
                    table_id, columns, roles=roles or None
                )
            except ValueError as exc:
                raise ProtocolError(str(exc)) from exc
        return 200, {
            "table_id": result.table_id,
            "rows_appended": int(result.rows_appended),
            "total_rows": int(result.total_rows),
            "segments_total": int(result.segments_total),
            "dirty_segments": list(result.dirty_segments),
            "reencode_fraction": float(result.reencode_fraction),
            "created": bool(result.created),
            "events_fired": int(result.events_fired),
        }

    def handle_subscribe(self, payload: object) -> Tuple[int, Dict]:
        spec = self.service.model.config.chart_spec
        chart, k, threshold = parse_subscribe_payload(payload, spec)
        with self._service_lock:
            subscription_id = self.service.subscribe(
                chart, k=k, threshold=threshold
            )
        return 200, {
            "subscription_id": subscription_id,
            "k": k,
            "threshold": threshold,
        }

    def handle_list_subscriptions(self) -> Tuple[int, Dict]:
        with self._service_lock:
            engine = self.service.subscriptions
            entries = [
                {
                    "subscription_id": subscription_id,
                    "k": engine.get(subscription_id).k,
                    "threshold": engine.get(subscription_id).threshold,
                    "pending": len(engine.get(subscription_id).events),
                    "stats": engine.get(subscription_id).stats.to_dict(),
                }
                for subscription_id in engine.active
            ]
        return 200, {"subscriptions": entries}

    def handle_poll_subscription(
        self, subscription_id: str, max_events: Optional[int]
    ) -> Tuple[int, Dict]:
        with self._service_lock:
            try:
                subscription = self.service.subscriptions.get(subscription_id)
                events = self.service.poll(
                    subscription_id, max_events=max_events
                )
            except KeyError:
                raise ProtocolError(
                    f"unknown subscription {subscription_id!r}", status=404
                ) from None
            pending = len(subscription.events)
            stats = subscription.stats.to_dict()
        return 200, {
            "subscription_id": subscription_id,
            "events": [event.to_dict() for event in events],
            "pending": pending,
            "stats": stats,
        }

    def handle_unsubscribe(self, subscription_id: str) -> Tuple[int, Dict]:
        with self._service_lock:
            removed = self.service.unsubscribe(subscription_id)
        if not removed:
            raise ProtocolError(
                f"unknown subscription {subscription_id!r}", status=404
            )
        return 200, {"removed": subscription_id}

    def handle_snapshot(self, payload: object) -> Tuple[int, Dict]:
        path, append = parse_snapshot_payload(
            payload, self.config.snapshot_path
        )
        with self._service_lock:
            written = self.service.save_index(path, append=append)
            num_tables = self.service.num_tables
        return 200, {
            "path": str(written),
            "append": append,
            "num_tables": num_tables,
        }

    def handle_healthz(self) -> Tuple[int, Dict]:
        status = "draining" if self.draining else "ok"
        body = {
            "status": status,
            "num_tables": self.service.num_tables,
            "inflight": self.inflight,
        }
        return (503 if self.draining else 200), body

    def _mirror_service_metrics(self) -> None:
        """Mirror service/admission state into the Prometheus registry.

        :class:`~repro.serving.service.ServiceStats` stays the source of
        truth (the JSON body reads it directly); this copies the current
        totals into obs counters/gauges at scrape time so both formats
        always agree.
        """
        registry = self.metrics.registry
        service_stats = self.service.stats

        registry.gauge(
            "http_uptime_seconds", "Seconds since the server started."
        ).set(time.monotonic() - self._started_monotonic)
        registry.gauge(
            "http_inflight_requests", "Admitted requests currently in flight."
        ).set(self.inflight)
        registry.gauge(
            "service_tables", "Tables currently in the live index."
        ).set(self.service.num_tables)

        queries = registry.counter(
            "service_queries_total", "Queries served, by indexing strategy."
        )
        cache_hits = registry.counter(
            "service_cache_hits_total", "Result-cache hits, by strategy."
        )
        for strategy, stats in service_stats.summary().items():
            queries.set_total(stats["queries"], strategy=strategy)
            cache_hits.set_total(stats["cache_hits"], strategy=strategy)
        registry.counter(
            "service_tables_added_total", "Tables added to the live index."
        ).set_total(service_stats.tables_added)
        registry.counter(
            "service_tables_removed_total", "Tables removed from the index."
        ).set_total(service_stats.tables_removed)
        registry.counter(
            "service_cache_invalidations_total",
            "Result-cache invalidations caused by index mutations.",
        ).set_total(service_stats.invalidations)
        registry.counter(
            "service_worker_queries_total",
            "Queries whose verification ran on the worker pool.",
        ).set_total(service_stats.worker_queries)
        registry.counter(
            "service_worker_fallbacks_total",
            "Queries that fell back to in-process verification.",
        ).set_total(service_stats.worker_fallbacks)
        registry.counter(
            "service_rows_appended_total", "Rows ingested via append_rows."
        ).set_total(service_stats.rows_appended)
        registry.counter(
            "service_append_batches_total", "Ingest batches processed."
        ).set_total(service_stats.append_batches)
        registry.counter(
            "service_segments_encoded_total",
            "Window segments (re-)encoded by streaming ingest.",
        ).set_total(service_stats.segments_encoded)
        registry.counter(
            "service_subscription_events_total",
            "Subscription events fired by ingest batches.",
        ).set_total(service_stats.subscription_events)
        registry.gauge(
            "service_subscriptions_active", "Standing subscriptions registered."
        ).set(float(len(self.service.subscriptions)))
        candidate_fallbacks = registry.counter(
            "repro_candidates_fallback_total",
            "Queries whose candidate set fell back to every table, by reason.",
        )
        for reason, count in service_stats.candidate_fallbacks.items():
            candidate_fallbacks.set_total(count, reason=reason)
        fallback_active = registry.gauge(
            "service_worker_fallback_active",
            "1 while the worker pool is sticky-disabled, by cause.",
        )
        active_kind = service_stats.worker_fallback_kind
        for kind in ("failure", "closed"):
            fallback_active.set(
                1.0 if kind == active_kind else 0.0, kind=kind
            )

    def handle_metrics(self, fmt: str = "json") -> Tuple[int, Union[Dict, str]]:
        if fmt not in ("json", "prometheus"):
            raise ProtocolError(
                f"unknown metrics format {fmt!r}; expected 'json' or "
                "'prometheus'"
            )
        self._mirror_service_metrics()
        if fmt == "prometheus":
            return 200, self.metrics.registry.render_prometheus()
        service_stats = self.service.stats
        body = {
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "endpoints": self.metrics.snapshot(),
            "admission": {
                "max_inflight": self.config.max_inflight,
                "inflight": self.inflight,
                "rejected_429": self.metrics.rejected_429,
                "draining_503": self.metrics.draining_503,
            },
            "service": {
                "num_tables": self.service.num_tables,
                "per_strategy": service_stats.summary(),
                "tables_added": service_stats.tables_added,
                "tables_removed": service_stats.tables_removed,
                "invalidations": service_stats.invalidations,
                "worker_queries": service_stats.worker_queries,
                "worker_fallbacks": service_stats.worker_fallbacks,
                "worker_fallback_reason": self.service.worker_fallback_reason,
                "worker_fallback_kind": service_stats.worker_fallback_kind,
                "rows_appended": service_stats.rows_appended,
                "append_batches": service_stats.append_batches,
                "segments_encoded": service_stats.segments_encoded,
                "subscription_events": service_stats.subscription_events,
                "subscriptions_active": len(self.service.subscriptions),
                "candidate_fallbacks": dict(service_stats.candidate_fallbacks),
            },
        }
        return 200, body


class _RequestHandler(BaseHTTPRequestHandler):
    """Routes requests into the owning :class:`ChartSearchServer`."""

    #: Injected per server instance (``type(..., {"owner": self})``).
    owner: ChartSearchServer

    server_version = "repro-serving/1"
    protocol_version = "HTTP/1.1"
    #: Idle keep-alive connections give up after this, so drained servers
    #: do not accumulate parked handler threads.
    timeout = 30.0

    # Quiet by default: the serving metrics are the observable surface.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _send_json(
        self,
        status: int,
        body: Dict,
        extra_headers: Optional[List[Tuple[str, str]]] = None,
    ) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(int(status))
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            # Tell HTTP/1.1 clients the truth when an early rejection left
            # the request body unread and the connection must go down.
            self.send_header("Connection", "close")
        for name, value in extra_headers or []:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _send_text(self, status: int, body: str) -> None:
        """Send a Prometheus text-exposition body (the one non-JSON reply)."""
        data = body.encode("utf-8")
        self.send_response(int(status))
        self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _read_json_body(self) -> object:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise ProtocolError("Content-Length is required", status=411)
        try:
            length = int(length_header)
        except ValueError:
            raise ProtocolError("invalid Content-Length", status=400) from None
        if length > self.owner.config.max_body_bytes:
            # Refuse before reading; the unread body makes the connection
            # unusable for keep-alive, so close it.
            self.close_connection = True
            raise ProtocolError(
                f"request body of {length} bytes exceeds the "
                f"{self.owner.config.max_body_bytes}-byte limit",
                status=413,
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ProtocolError("empty request body")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed JSON body: {exc}") from exc

    def _route(self, method: str):
        """Resolve ``(endpoint_label, thunk, needs_admission)`` or raise."""
        owner = self.owner
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            return "GET /healthz", owner.handle_healthz, False
        if method == "GET" and path == "/metrics":
            query_string = self.path.partition("?")[2]
            fmt = parse_qs(query_string).get("format", ["json"])[0]
            return "GET /metrics", lambda: owner.handle_metrics(fmt), False
        if method == "GET" and path == "/tables":
            return "GET /tables", owner.handle_list_tables, True
        # Bodies are read inside the thunk: after admission (a rejected
        # request never pays the read) and under the endpoint's own metrics
        # label (a malformed /query body is a `POST /query` 400).
        if method == "POST" and path == "/query":
            # The body-reading callable is handed over uncalled so a traced
            # request can parse it inside its `render` span.
            return (
                "POST /query",
                lambda: owner.handle_query(
                    self._read_json_body, request_start=self._dispatch_start
                ),
                True,
            )
        if method == "POST" and path == "/tables":
            return (
                "POST /tables",
                lambda: owner.handle_add_tables(self._read_json_body()),
                True,
            )
        if (
            method == "POST"
            and path.startswith("/tables/")
            and path.endswith("/rows")
        ):
            table_id = path[len("/tables/") : -len("/rows")]
            return (
                "POST /tables/<id>/rows",
                lambda: owner.handle_append_rows(table_id, self._read_json_body),
                True,
            )
        if path == "/subscriptions":
            if method == "POST":
                return (
                    "POST /subscriptions",
                    lambda: owner.handle_subscribe(self._read_json_body()),
                    True,
                )
            if method == "GET":
                return (
                    "GET /subscriptions",
                    owner.handle_list_subscriptions,
                    True,
                )
        if path.startswith("/subscriptions/"):
            rest = path[len("/subscriptions/") :]
            if method == "GET" and rest.endswith("/events"):
                subscription_id = rest[: -len("/events")]
                query_string = self.path.partition("?")[2]
                raw_max = parse_qs(query_string).get("max", [None])[0]
                max_events: Optional[int] = None
                if raw_max is not None:
                    try:
                        max_events = int(raw_max)
                    except ValueError:
                        raise ProtocolError(
                            f"max must be an integer, got {raw_max!r}"
                        ) from None
                    if max_events < 1:
                        raise ProtocolError(f"max must be >= 1, got {max_events}")
                return (
                    "GET /subscriptions/<id>/events",
                    lambda: owner.handle_poll_subscription(
                        subscription_id, max_events
                    ),
                    True,
                )
            if method == "DELETE" and "/" not in rest:
                return (
                    "DELETE /subscriptions/<id>",
                    lambda: owner.handle_unsubscribe(rest),
                    True,
                )
        if method == "POST" and path == "/snapshot":
            return (
                "POST /snapshot",
                lambda: owner.handle_snapshot(
                    self._read_json_body()
                    if self.headers.get("Content-Length") not in (None, "0")
                    else None
                ),
                True,
            )
        if method == "DELETE" and path.startswith("/tables/"):
            table_id = path[len("/tables/") :]
            return (
                "DELETE /tables/<id>",
                lambda: owner.handle_remove_table(table_id),
                True,
            )
        known_paths = {
            "/healthz",
            "/metrics",
            "/tables",
            "/query",
            "/snapshot",
            "/subscriptions",
        }
        if (
            path in known_paths
            or path.startswith("/tables/")
            or path.startswith("/subscriptions/")
        ):
            raise ProtocolError(
                f"method {method} not allowed on {path}", status=405
            )
        raise ProtocolError(f"unknown path {path}", status=404)

    def _dispatch(self, method: str) -> None:
        owner = self.owner
        # Unrouted requests share one metrics label: arbitrary client paths
        # must not grow the per-endpoint registry without bound.
        endpoint = f"{method} <unrouted>"
        start = time.perf_counter()
        # Exposed so the /query route can hand the request's entry time to
        # the tracer (the `admission` span measures routing + admission).
        self._dispatch_start = start
        status = 500
        owner._enter_request()
        try:
            try:
                endpoint, thunk, needs_admission = self._route(method)
            except ProtocolError as exc:
                status = exc.status
                self._send_json(status, {"error": str(exc)})
                return
            if needs_admission:
                if owner.draining:
                    # The request body was never read: the connection is
                    # not reusable, close it after answering.
                    status = 503
                    self.close_connection = True
                    self._send_json(
                        status, {"error": "server is draining; not admitting"}
                    )
                    return
                if not owner._admission.acquire(blocking=False):
                    status = 429
                    self.close_connection = True
                    retry_after = str(
                        int(math.ceil(owner.config.retry_after_seconds))
                    )
                    self._send_json(
                        status,
                        {
                            "error": (
                                "server saturated: "
                                f"{owner.config.max_inflight} requests already "
                                "in flight; retry shortly"
                            ),
                            "max_inflight": owner.config.max_inflight,
                        },
                        extra_headers=[("Retry-After", retry_after)],
                    )
                    return
                try:
                    status, body = thunk()
                finally:
                    owner._admission.release()
            else:
                status, body = thunk()
            if isinstance(body, str):
                self._send_text(status, body)
            else:
                self._send_json(status, body)
        except ProtocolError as exc:
            status = exc.status
            self._send_json(status, {"error": str(exc)})
        except (BrokenPipeError, ConnectionResetError):
            status = 499  # client went away; nothing to send
            self.close_connection = True
        except Exception as exc:  # a genuine server-side defect
            status = 500
            try:
                self._send_json(
                    status, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except OSError:
                self.close_connection = True
        finally:
            owner.metrics.observe(
                endpoint, status, time.perf_counter() - start
            )
            owner._exit_request()

    # ------------------------------------------------------------------ #
    # HTTP verbs
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")
