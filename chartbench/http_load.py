"""The ``http_mixed_1k`` workload: an open loop against a server process.

One client process (this one) sends a seeded schedule at a constant rate
from two sender threads.  Each request's latency runs from the moment it was
*due*, so a stall delays the requests queued behind it too; how late the
generator sent them is reported as its lag.  Three requests in four are Zipf
draws from a pool of charts the result cache already holds; the rest are
charts the server has not seen.

Queries go out on a fresh connection each.  The server writes a response's
headers and body in two writes, so on a keep-alive connection Nagle's
algorithm holds the body until the client's delayed ACK (~40 ms); whether a
paced request hits that depends on the kernel's ACK state, which made query
latency bimodal from run to run (median spread 0.47 over ten seeds).  The
append probe keeps two keep-alive connections busy back to back, where every
response stalls, so the stall is measured there, steadily.
"""

from __future__ import annotations

import http.client
import json
import math
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import layers
from .common import (
    APPEND_TAIL,
    MAX_SERIES,
    NUM_CLUSTERS,
    PROBE_BATCHES_HTTP,
    PROBE_STREAMS,
    SETUP_REPEATS,
    TOP_K,
    WORK,
    Outcome,
    SeriesStrata,
    percentile,
    ranking_problem,
    recall,
    same_cluster_share,
    snapshot_mb,
    stream_batch,
    tail_note,
    tail_or_fail,
)
from .tracing import Span, Tracer

#: Offered load, sent at a constant rate (as wrk2 does): requests are due
#: every ``1 / RATE_PER_S`` seconds whatever the server does.  A request
#: takes ~10-30 ms on a cache hit and ~20-80 ms on a miss, so two senders
#: keep the queue short.
RATE_PER_S = 10.0
CONNECTIONS = 2
POOL_SIZE = 50
FRESH_SHARE = 0.25
ZIPF_EXPONENT = 1.0
#: Requests per run at least: enough for a steady median and a p95 with ten
#: samples beyond it.
MIN_REQUESTS = 200
QUERY_TAIL = 0.95
PARITY_SAMPLE = 8
RECALL_SAMPLE = 120
REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 120.0
HEADERS = {"Content-Type": "application/json"}


# --------------------------------------------------------------------------- #
# Server process
# --------------------------------------------------------------------------- #
class ServerProcess:
    """A ``server_main.py`` child: start, command, stop, always reaped."""

    def __init__(self, snapshot: Path, result: Path) -> None:
        self._snapshot = snapshot
        self._result = result
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError("server did not answer in time")
        return self.proc.stdout.readline().strip()

    def start(self) -> float:
        """Launch and wait until ``/healthz`` answers; returns the seconds."""
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("server_main.py")),
             "--snapshot", str(self._snapshot), "--result", str(self._result)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self._readline(START_TIMEOUT_S)
        if not line.startswith("READY "):
            raise RuntimeError(f"server failed to start: {line!r}")
        self.port = int(line.split()[1])
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10.0)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"/healthz answered {response.status}")
        finally:
            conn.close()
        return time.perf_counter() - start

    def command(self, command: str, answer: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        line = self._readline(60.0)
        if line != answer:
            raise RuntimeError(f"server answered {line!r} to {command}")

    def stop(self) -> Dict:
        self.command("STOP", "STOPPED")
        self.proc.wait(timeout=60.0)
        return json.loads(self._result.read_text())

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30.0)


# --------------------------------------------------------------------------- #
# Load generation
# --------------------------------------------------------------------------- #
@dataclass
class Request:
    due: float          # seconds after the schedule's start
    body: bytes
    chart: int          # corpus index the chart was drawn from
    path: str = "/query"


@dataclass
class Record:
    due: float          # absolute perf_counter times from here on
    sent: float
    done: float
    status: int
    body: Optional[Dict]
    port: int
    seq: int

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return max(0.0, self.sent - self.due)


class Client:
    """Up to :data:`CONNECTIONS` connections to the server, one per sender
    thread.  Keep-alive connections are kept for the run; with
    ``keep_alive=False`` each request opens its own and asks the server to
    close it (``Connection: close``)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conns: List[Optional[http.client.HTTPConnection]] = [None] * CONNECTIONS

    def close(self) -> None:
        for conn in self._conns:
            if conn is not None:
                conn.close()
        self._conns = [None] * CONNECTIONS

    def run(self, requests: Sequence[Request], assign=None, keep_alive: bool = True) -> List[Record]:
        """Send ``requests`` on their schedule.  A request goes out on
        whichever sender frees first, unless ``assign(i)`` pins it to one
        (which keeps a stream's appends in order)."""
        records: List[Optional[Record]] = [None] * len(requests)
        headers = dict(HEADERS) if keep_alive else {**HEADERS, "Connection": "close"}
        origin = time.perf_counter() + 0.05
        shared = iter(range(len(requests)))
        lock = threading.Lock()

        def next_index(own):
            if own is not None:
                return next(own, None)
            with lock:
                return next(shared, None)

        def worker(w: int) -> None:
            own = None
            if assign is not None:
                own = iter(i for i in range(len(requests)) if assign(i) == w)
            while (i := next_index(own)) is not None:
                due = origin + requests[i].due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                records[i] = self._send(w, requests[i], due, headers)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return records

    def _send(self, w: int, request: Request, due: float, headers: Dict) -> Record:
        sent = time.perf_counter()
        status, body, keep, local_port, seq = -1, None, False, 0, 0
        conn = self._conns[w]
        try:
            if conn is None:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
                conn.connect()
                conn.sent_count = 0
                self._conns[w] = conn
            local_port, seq = conn.sock.getsockname()[1], conn.sent_count
            conn.sent_count += 1
            conn.request("POST", request.path, body=request.body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            status = response.status
            body = json.loads(raw) if status == 200 else None
            keep = not response.will_close
        except (OSError, http.client.HTTPException, ValueError):
            pass
        done = time.perf_counter()
        if not keep and conn is not None:
            conn.close()
            self._conns[w] = None
        return Record(due, sent, done, status, body, local_port, seq)


def _payload(corpus, index: int) -> bytes:
    from repro.data import synth_table
    from repro.serving.http.protocol import chart_payload_from_series

    table = synth_table(index, corpus)
    series = table.to_underlying_data(table.column_names).series
    return json.dumps({"chart": chart_payload_from_series(series), "k": TOP_K}).encode()


def build_schedule(corpus, seed: int, count: int) -> Tuple[List[Request], List[Request]]:
    """``(pool warm-up requests, measured schedule)`` for one seed.

    Charts are stratified by series count (see :class:`SeriesStrata`): pool
    rank ``r`` and the ``j``-th fresh chart plot ``1 + r % 3`` and
    ``1 + j % 3`` series.  The seed picks the tables and the order of the
    Zipf-weighted pool requests.
    The second half of the schedule repeats the first half's pool draws,
    with new fresh charts of the same sizes, so the untraced and the traced
    half of a ``--trace 1`` run offer the same mix.
    """
    rng = np.random.default_rng((seed, 0x4770))
    strata = SeriesStrata(corpus, seed, 0x4771)
    pool = [strata.take(1 + rank % MAX_SERIES) for rank in range(POOL_SIZE)]
    pool_bodies = {i: _payload(corpus, i) for i in pool}
    weights = 1.0 / np.arange(1, POOL_SIZE + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    every = round(1 / FRESH_SHARE)
    half = (count + 1) // 2
    # Each pool chart gets its Zipf share of the half's pool slots (largest
    # remainders round), in seeded order, so the mix of chart sizes does
    # not vary with the draws.
    slots = sum(1 for slot in range(half) if slot % every != every - 1)
    expected = slots * weights
    counts = np.floor(expected).astype(int)
    counts[np.argsort(counts - expected)[: slots - counts.sum()]] += 1
    draws = iter(rng.permutation(np.repeat(np.arange(POOL_SIZE), counts)).tolist())
    picks = {}
    schedule = []
    for i, t in enumerate(np.arange(count) / RATE_PER_S):
        slot = i % half
        if slot % every == every - 1:
            index = strata.take(1 + (slot // every) % MAX_SERIES)
            body = _payload(corpus, index)
        else:
            if slot not in picks:
                picks[slot] = pool[next(draws)]
            index = picks[slot]
            body = pool_bodies[index]
        schedule.append(Request(float(t), body, index))
    warm = [Request(0.0, pool_bodies[i], i) for i in pool]
    return warm, schedule


def append_requests(seed: int, batches: int) -> List[Request]:
    """The append probe as ``POST /tables/<stream>/rows`` requests."""
    out = []
    for i in range(batches):
        stream = i % PROBE_STREAMS
        rows = stream_batch(seed, 1000 + stream, i // PROBE_STREAMS)
        body = {"columns": [{"name": n, "values": v} for n, v in rows.items()]}
        out.append(Request(0.0, json.dumps(body).encode(), -1,
                           path=f"/tables/probe{stream:02d}/rows"))
    return out


# --------------------------------------------------------------------------- #
# The workload
# --------------------------------------------------------------------------- #
def _check_queries(outcome: Outcome, records: Sequence[Record], known) -> None:
    for record in records:
        if record.status != 200 or record.body is None:
            outcome.fail(f"POST /query answered {record.status}")
            continue
        ranking = [(t, s) for t, s in record.body["ranking"]]
        outcome.check(ranking_problem(ranking, TOP_K, record.body["candidates"], known))


def _pair_traces(traces: Sequence[List[Span]], records: Sequence[Record]):
    """Match server traces to client records by TCP port and order on that
    connection; returns ``(traces, latencies, wire)`` in record order, where
    wire is the client's latency minus the server root span's duration."""
    per_port: Dict[int, List[List[Span]]] = {}
    for members in traces:
        per_port.setdefault(members[0].attrs.get("port", 0), []).append(members)
    paired, latencies, wire = [], [], []
    first_seq: Dict[int, int] = {}
    for record in records:
        first_seq.setdefault(record.port, record.seq)
    for record in records:
        members = per_port.get(record.port, [])
        position = record.seq - first_seq[record.port]
        if position >= len(members):
            raise ValueError(f"no server trace for request {record.seq} on port {record.port}")
        root = members[position][0]
        paired.append(members[position])
        latencies.append(record.done - record.sent)
        wire.append((record.done - record.sent) - root.duration)
    return paired, latencies, wire


def run_http_1k(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.data import synth_tables
    from repro.serving import SearchService, ServingConfig

    from .common import corpus_config, load_model

    outcome = Outcome()
    model = load_model()
    corpus = corpus_config(1_000, seed)
    tables = list(synth_tables(corpus))
    known = frozenset(t.table_id for t in tables)
    tracer = Tracer() if trace else None
    if tracer is not None:
        layers.install_build_path(tracer)
    WORK.mkdir(parents=True, exist_ok=True)
    folder = Path(tempfile.mkdtemp(prefix="http-", dir=WORK))
    servers: List[ServerProcess] = []
    try:
        snapshot = folder / "index.npz"
        writer = SearchService(model, ServingConfig(quantized_prefilter=True))
        writer.build(tables)
        writer.save_index(snapshot, layout="v2")
        writer.close()
        exact = SearchService.load_index(model, snapshot, config=ServingConfig())
        if tracer is not None:
            tracer.uninstall()
        parity = SearchService.load_index(
            model, snapshot, config=ServingConfig(quantized_prefilter=True)
        )

        count = max(math.ceil(RATE_PER_S * seconds), MIN_REQUESTS)
        warm, schedule = build_schedule(corpus, seed, count)
        setups = []
        for repeat in range(1 if trace else SETUP_REPEATS):
            server = ServerProcess(snapshot, folder / f"server{repeat}.json")
            servers.append(server)
            setups.append(server.start())
            if repeat + 1 < (1 if trace else SETUP_REPEATS):
                server.stop()
        client = Client(server.port)
        try:
            _check_queries(outcome, client.run(warm, keep_alive=False), known)
            if trace:
                half = (len(schedule) + 1) // 2
                base = client.run(schedule[:half], keep_alive=False)
                server.command("TRACE", "TRACING")
                traced = client.run(schedule[half:], keep_alive=False)
                records = base + traced
            else:
                records = client.run(schedule, keep_alive=False)
            _check_queries(outcome, records, known)
            probe = client.run(append_requests(seed, PROBE_BATCHES_HTTP),
                               assign=lambda i: i % CONNECTIONS)
        finally:
            client.close()
        for record in probe:
            ok = record.status == 200 and record.body["rows_appended"] == 32
            outcome.check(None if ok else f"append answered {record.status}")
        result = server.stop()

        _quality(outcome, model, parity, exact, schedule, records)
        lags = [r.lag for r in records]
        outcome.notes.update(
            rate_per_s=RATE_PER_S, requests=len(records),
            generator_lag_p95_ms=1e3 * percentile(lags, 0.95),
            generator_lag_max_ms=1e3 * max(lags),
        )
        if trace:
            spans = [Span.from_dict(raw) for raw in result["spans"]]
            _layer_report(outcome, tracer, spans, base, traced, probe, lags, result,
                          snapshot_mb(snapshot))
        else:
            _e2e_report(outcome, records, probe, setups, result)
        exact.close()
        parity.close()
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(folder, ignore_errors=True)
    return outcome


def _quality(outcome, model, parity, exact, schedule, records) -> None:
    """Wire == in-process parity, recall@10 and ranking fullness."""
    from repro.serving.http.protocol import parse_chart_payload

    spec = model.config.chart_spec
    seen, sample = set(), []
    for request, record in zip(schedule, records):
        if request.chart not in seen and record.body is not None:
            seen.add(request.chart)
            sample.append((request, record))
    recalls = []
    for n, (request, record) in enumerate(sample[:max(PARITY_SAMPLE, RECALL_SAMPLE)]):
        chart = parse_chart_payload(json.loads(request.body)["chart"], spec)
        wire = record.body["ranking"]
        if n < PARITY_SAMPLE:
            local = [[t, float(s)] for t, s in parity.query(chart, TOP_K).ranking]
            outcome.check(None if json.dumps(local) == json.dumps(wire)
                          else "wire ranking differs from in-process ranking")
        if n < RECALL_SAMPLE:
            full = exact.query(chart, TOP_K, strategy="none").ranking
            recalls.append(recall([tuple(e) for e in wire], full))
    answered = [(q, r) for q, r in zip(schedule, records) if r.body is not None]
    outcome.metrics["recall_at_10"] = statistics.fmean(recalls)
    outcome.metrics["full_ranking_ratio"] = statistics.fmean(
        len(r.body["ranking"]) == TOP_K for _, r in answered
    )
    outcome.metrics["quality.cluster_precision_at_10"] = statistics.fmean(
        same_cluster_share(q.chart % NUM_CLUSTERS, r.body["ranking"]) for q, r in answered
    )


def _e2e_report(outcome, records, probe, setups, result) -> None:
    latencies = [r.latency for r in records]
    appends = [r.done - r.sent for r in probe]
    span = max(r.done for r in records) - min(r.due for r in records)
    outcome.metrics.update({
        "query_p50_ms": 1e3 * percentile(latencies, 0.5),
        "append_tail_ms": 1e3 * tail_or_fail(appends, APPEND_TAIL, outcome, "append tail"),
        "rows_per_s": 32 * len(probe) / (max(r.done for r in probe) - min(r.sent for r in probe)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    })
    outcome.notes.update(query_tail=tail_note(latencies, QUERY_TAIL),
                         achieved_rate_per_s=len(records) / span,
                         append_samples=len(appends), append_p50_ms=1e3 * percentile(appends, 0.5),
                         setup_seconds=setups)


def _layer_report(outcome, tracer, spans, base, traced, probe, lags, result, size_mb) -> None:
    metrics = {name: 0.0 for name in layers.LAYER_UNITS if name not in outcome.metrics}
    metrics.update(layers.build_layer_metrics(tracer.spans))
    metrics["serving.persistence.snapshot_mb"] = size_mb
    traces, latencies, wire = _pair_traces(layers.query_traces(spans), traced)
    metrics.update(layers.query_layer_metrics(traces, latencies, wire))
    metrics.update(layers.append_layer_metrics(spans))
    _, _, append_wire = _pair_traces(
        layers.rooted_traces(spans, ("serving.http.handle_append",)), probe
    )
    metrics["serving.http.append_wire_ms"] = 1e3 * statistics.fmean(append_wire)
    metrics["serving.http.rejected_429"] = result["rejected_429"]
    metrics["serving.service.invalidations"] = result["invalidations"]
    metrics["loadgen.lag_p95_ms"] = 1e3 * percentile(lags, 0.95)
    metrics["trace.overhead_ratio"] = (
        percentile([r.latency for r in traced], 0.5) / percentile([r.latency for r in base], 0.5)
    )
    outcome.metrics.update(metrics)
    outcome.notes["spans"] = tracer.dump() + [s.to_dict() for s in spans]
