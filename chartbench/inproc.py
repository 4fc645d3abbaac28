"""The in-process workloads: ``search_10k`` and ``ingest_subscribe_1k``."""

from __future__ import annotations

import gc
import itertools
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import layers
from .common import (
    APPEND_TAIL,
    NUM_CLUSTERS,
    PARITY_TOL,
    PROBE_BATCHES_INPROC,
    PROBE_STREAMS,
    SETUP_REPEATS,
    TOP_K,
    WORK,
    Outcome,
    SeriesStrata,
    min_samples,
    percentile,
    ranking_problem,
    recall,
    same_cluster_share,
    snapshot_mb,
    stream_batch,
    tail_note,
    tail_or_fail,
    vm_hwm_mb,
)
from .tracing import Tracer

#: Query tails in the run report: search_10k's ~0.1-0.3 s queries give
#: ~50-100 samples a run, so its tail is p75; ingest_subscribe_1k runs one
#: query per eight operations, so p90.
SEARCH_QUERY_TAIL = 0.75
INGEST_QUERY_TAIL = 0.90
#: All-table answers compared with exhaustive scoring per run (see
#: :class:`RecallMeter`).
EXHAUSTIVE_CHECKS = 4
#: Queries compared between the streamed and the rebuilt service.
REBUILT_SAMPLE = 8
#: A loop that cannot gather its tail samples stops at this multiple of
#: ``--seconds`` (and the run then fails its sample-count rule).
MAX_STRETCH = 4.0

INGEST_STREAMS = 32
INGEST_SUBSCRIPTIONS = 4
QUERY_EVERY = 8
#: ``ingest_subscribe_1k`` runs a fixed number of operations per second of
#: ``--seconds`` (its busy time is about ``--seconds`` on a 2-core host).
#: Each append grows a stream that every later query verifies, so a run
#: bounded by time instead would leave a slower build less state to query.
INGEST_OPS_PER_S = 70


def chart_feed(corpus, indices: Iterable[int], batch: int = 16) -> Iterator[Tuple[int, object]]:
    """``(table index, chart)`` for distinct tables, rendered ``batch`` at a
    time so rendering never falls inside a timed call."""
    from repro.charts.rasterizer import render_chart_for_table
    from repro.data import synth_table

    indices = iter(indices)
    while chunk := list(itertools.islice(indices, batch)):
        rendered = []
        for index in chunk:
            table = synth_table(index, corpus)
            rendered.append((index, render_chart_for_table(table, table.column_names)))
        yield from rendered


def timed_setup(model, tables, repeats: int, tracer: Optional[Tracer] = None):
    """Encode, index, save (v2) and copy-load ``repeats`` times.

    Returns the last loaded service, the per-repeat seconds and the
    snapshot size.  With ``tracer`` the build-side wrappers time one set-up.
    """
    from repro.serving import SearchService, ServingConfig

    if tracer is not None:
        layers.install_build_path(tracer)
    seconds, loaded, size_mb = [], None, 0.0
    WORK.mkdir(parents=True, exist_ok=True)
    for _ in range(repeats):
        if loaded is not None:
            loaded.close()
            loaded = None
        gc.collect()
        folder = Path(tempfile.mkdtemp(prefix="snap-", dir=WORK))
        try:
            path = folder / "index.npz"
            start = time.perf_counter()
            writer = SearchService(model, ServingConfig())
            writer.build(tables)
            writer.save_index(path, layout="v2")
            loaded = SearchService.load_index(model, path, config=ServingConfig())
            seconds.append(time.perf_counter() - start)
            writer.close()
            del writer
            size_mb = snapshot_mb(path)
        finally:
            shutil.rmtree(folder, ignore_errors=True)
    if tracer is not None:
        tracer.uninstall()
    return loaded, seconds, size_mb


class RecallMeter:
    """recall@10 of every query against exhaustive exact scoring.

    Exhaustive scoring costs as much as the query it checks (~0.1-0.3 s at
    10^4 tables), so it runs, outside the timed call, only where it can
    differ: for queries whose candidate set was pruned.  A query the service
    reports as having verified every table without the prefilter
    (``candidates == total_tables``, ``prefiltered is None``) served the
    exhaustive ranking; the first :data:`EXHAUSTIVE_CHECKS` of those are
    compared with ``strategy="none"`` all the same, as an output check.
    """

    def __init__(self, outcome: Outcome) -> None:
        self.values: List[float] = []
        self._outcome = outcome
        self._checked = 0

    def add(self, service, chart, result) -> None:
        every_table = result.candidates == result.total_tables and result.prefiltered is None
        if every_table and self._checked >= EXHAUSTIVE_CHECKS:
            self.values.append(1.0)
            return
        exact = service.query(chart, k=TOP_K, strategy="none").ranking
        if every_table:
            self._checked += 1
            self._outcome.check(None if exact == result.ranking
                                else "an all-table answer differs from exhaustive scoring")
        self.values.append(recall(result.ranking, exact))


def _timed(fn: Callable, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def append_probe(service, seed: int, outcome: Outcome, batches: int) -> List[float]:
    """Round-robin 32-row appends into fresh streams; returns latencies."""
    latencies = []
    for i in range(batches):
        stream = i % PROBE_STREAMS
        rows = stream_batch(seed, 1000 + stream, i // PROBE_STREAMS)
        result, seconds = _timed(service.append_rows, f"probe{stream:02d}", rows)
        latencies.append(seconds)
        outcome.check(None if result.rows_appended == 32 else "append lost rows")
    return latencies


def _append_metrics(latencies: Sequence[float], outcome: Outcome) -> Dict[str, float]:
    outcome.notes["append_p50_ms"] = 1e3 * percentile(latencies, 0.5)
    return {
        "append_tail_ms": 1e3 * tail_or_fail(latencies, APPEND_TAIL, outcome, "append tail"),
        "rows_per_s": 32 * len(latencies) / sum(latencies),
    }


# --------------------------------------------------------------------------- #
# search_10k
# --------------------------------------------------------------------------- #
def _query_loop(service, feed, known, outcome, seconds, need, records, meter=None):
    """Closed loop over ``feed`` until ``seconds`` busy and ``need`` samples."""
    busy, latencies = 0.0, []
    for index, chart in feed:
        result, elapsed = _timed(service.query, chart, k=TOP_K)
        busy += elapsed
        latencies.append(elapsed)
        outcome.check(ranking_problem(result.ranking, TOP_K, result.candidates, known))
        records.append((index, chart, result.ranking))
        if meter is not None:
            meter.add(service, chart, result)
        if busy >= seconds and len(latencies) >= need:
            break
        if busy >= MAX_STRETCH * seconds:
            break
    return latencies, busy


def run_search_10k(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.data import synth_tables

    from .common import corpus_config, load_model

    outcome = Outcome()
    model = load_model()
    corpus = corpus_config(10_000, seed)
    tables = list(synth_tables(corpus))
    known = frozenset(t.table_id for t in tables)
    tracer = Tracer() if trace else None
    service, setups, size_mb = timed_setup(
        model, tables, 1 if trace else SETUP_REPEATS, tracer
    )
    del tables
    feed = chart_feed(corpus, SeriesStrata(corpus, seed, 0x5EA).cycle())
    records: List = []

    meter = RecallMeter(outcome)
    if not trace:
        latencies, busy = _query_loop(
            service, feed, known, outcome, seconds, min_samples(SEARCH_QUERY_TAIL), records, meter
        )
        probe = append_probe(service, seed, outcome, PROBE_BATCHES_INPROC)
    else:
        base, _ = _query_loop(service, feed, known, outcome, seconds / 2, 1, records, meter)
        invalidations = service.stats.invalidations
        layers.install_query_path(tracer)
        layers.install_ingest_path(tracer)
        latencies, busy = _query_loop(service, feed, known, outcome, seconds / 2, 1, records)
        probe = append_probe(service, seed, outcome, 64)
        tracer.uninstall()
        _layer_report(outcome, tracer, latencies, base, size_mb, extra={
            "serving.service.invalidations": service.stats.invalidations - invalidations,
        })

    outcome.metrics["recall_at_10"] = statistics.fmean(meter.values)
    _ranking_quality(outcome, records)
    if not trace:
        outcome.metrics.update({
            "query_p50_ms": 1e3 * percentile(latencies, 0.5),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": vm_hwm_mb(),
            **_append_metrics(probe, outcome),
        })
        outcome.notes.update(query_tail=tail_note(latencies, SEARCH_QUERY_TAIL),
                             queries_per_s=len(latencies) / busy,
                             append_samples=len(probe), setup_seconds=setups)
    service.close()
    return outcome


def _ranking_quality(outcome: Outcome, records) -> None:
    """Full-ranking share and same-cluster precision over every query."""
    outcome.metrics["full_ranking_ratio"] = statistics.fmean(
        len(ranking) == TOP_K for _, _, ranking in records
    )
    outcome.metrics["quality.cluster_precision_at_10"] = statistics.fmean(
        same_cluster_share(index % NUM_CLUSTERS, ranking) for index, _, ranking in records
    )


def _layer_report(outcome, tracer, latencies, base, size_mb, extra=None) -> None:
    """Every per-layer metric from an in-process traced run."""
    spans = list(tracer.spans)
    traces = layers.query_traces(spans)
    metrics = {name: 0.0 for name in layers.LAYER_UNITS if name not in outcome.metrics}
    metrics.update(layers.build_layer_metrics(spans))
    metrics["serving.persistence.snapshot_mb"] = size_mb
    if len(traces) != len(latencies):
        outcome.fail(f"{len(traces)} query traces for {len(latencies)} traced queries")
    else:
        metrics.update(layers.query_layer_metrics(traces, latencies))
    metrics.update(layers.append_layer_metrics(spans))
    metrics["trace.overhead_ratio"] = percentile(latencies, 0.5) / percentile(base, 0.5)
    metrics.update(extra or {})
    outcome.metrics.update(metrics)
    outcome.notes["spans"] = tracer.dump()


# --------------------------------------------------------------------------- #
# ingest_subscribe_1k
# --------------------------------------------------------------------------- #
def run_ingest_1k(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.data import synth_tables
    from repro.serving import SearchService, ServingConfig

    from .common import corpus_config, load_model

    outcome = Outcome()
    model = load_model()
    corpus = corpus_config(1_000, seed)
    tables = list(synth_tables(corpus))
    static_ids = frozenset(t.table_id for t in tables)
    tracer = Tracer() if trace else None
    service, setups, size_mb = timed_setup(
        model, tables, 1 if trace else SETUP_REPEATS, tracer
    )
    stream_ids = [f"stream{s:02d}" for s in range(INGEST_STREAMS)]
    known = static_ids | frozenset(stream_ids)

    indices = SeriesStrata(corpus, seed, 0x1A6).cycle()
    subscriptions = [
        service.subscribe(chart, k=1, threshold=0.0)
        for _, chart in chart_feed(corpus, itertools.islice(indices, INGEST_SUBSCRIPTIONS))
    ]
    feed = chart_feed(corpus, indices)
    history: Dict[str, List[Dict[str, List[float]]]] = {sid: [] for sid in stream_ids}
    state = {"op": 0}
    records: List = []
    meter = RecallMeter(outcome)

    def loop(ops: int, meter=None):
        q_lat, a_lat = [], []
        for _ in range(ops):
            op = state["op"]
            state["op"] += 1
            if op % QUERY_EVERY == QUERY_EVERY - 1:
                index, chart = next(feed)
                result, elapsed = _timed(service.query, chart, k=TOP_K)
                q_lat.append(elapsed)
                outcome.check(ranking_problem(result.ranking, TOP_K, result.candidates, known))
                records.append((index, chart, result.ranking))
                if meter is not None:
                    meter.add(service, chart, result)
                for sid in subscriptions:
                    service.poll(sid)
            else:
                n = op - op // QUERY_EVERY
                sid = stream_ids[n % INGEST_STREAMS]
                rows = stream_batch(seed, n % INGEST_STREAMS, len(history[sid]))
                result, elapsed = _timed(service.append_rows, sid, rows)
                history[sid].append(rows)
                a_lat.append(elapsed)
                outcome.check(None if result.rows_appended == 32 else "append lost rows")
        return q_lat, a_lat

    def sub_totals():
        stats = [service.subscriptions.get(sid).stats for sid in subscriptions]
        return (sum(s.events_delivered for s in stats), sum(s.events_dropped for s in stats),
                service.stats.invalidations)

    # At least enough queries for their reported tail (appends then have more).
    ops = max(round(INGEST_OPS_PER_S * seconds), QUERY_EVERY * min_samples(INGEST_QUERY_TAIL))
    if not trace:
        q_lat, a_lat = loop(ops, meter)
    else:
        base, _ = loop(ops // 2, meter)
        before = sub_totals()
        layers.install_query_path(tracer)
        layers.install_ingest_path(tracer)
        q_lat, a_lat = loop(ops - ops // 2)
        tracer.uninstall()
        after = sub_totals()
        _layer_report(outcome, tracer, q_lat, base, size_mb, extra={
            "serving.streaming.events_delivered": after[0] - before[0],
            "serving.streaming.events_dropped": after[1] - before[1],
            "serving.service.invalidations": after[2] - before[2],
        })

    _check_rebuilt(outcome, model, tables, service, history, records)
    outcome.metrics["recall_at_10"] = statistics.fmean(meter.values)
    _ranking_quality(outcome, records)
    if not trace:
        outcome.metrics.update({
            "query_p50_ms": 1e3 * percentile(q_lat, 0.5),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": vm_hwm_mb(),
            **_append_metrics(a_lat, outcome),
        })
        outcome.notes.update(query_tail=tail_note(q_lat, INGEST_QUERY_TAIL),
                             queries_per_s=len(q_lat) / (sum(q_lat) + sum(a_lat)),
                             append_samples=len(a_lat), setup_seconds=setups)
    service.close()
    return outcome


def _check_rebuilt(outcome, model, tables, service, history, records) -> None:
    """Streamed == rebuilt: replay each stream's full history in one batch
    into a fresh service and compare rankings on a sample of queries."""
    from repro.serving import SearchService, ServingConfig

    rebuilt = SearchService(model, ServingConfig())
    rebuilt.build(tables)
    for sid, batches in history.items():
        if batches:
            rows = {name: [v for b in batches for v in b[name]] for name in batches[0]}
            rebuilt.append_rows(sid, rows)
    step = max(1, len(records) // REBUILT_SAMPLE)
    for _, chart, _ in records[::step][:REBUILT_SAMPLE]:
        live = service.query(chart, k=TOP_K).ranking
        fresh = rebuilt.query(chart, k=TOP_K).ranking
        same = [t for t, _ in live] == [t for t, _ in fresh] and all(
            abs(a - b) <= PARITY_TOL for (_, a), (_, b) in zip(live, fresh)
        )
        outcome.check(None if same else "streamed ranking differs from rebuilt")
    rebuilt.close()
