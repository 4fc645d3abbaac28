"""Synthetic-corpus scale sweep: build → snapshot → load → query at 10²…10⁵.

The paper's retrieval experiments run against repositories of ~10⁵ tables;
this harness walks a deterministic synthetic corpus (:mod:`repro.data.synth`)
up in decades and records, per scale:

* **build time** — encoding + indexing through :class:`SearchService.build`;
* **snapshot size** — the v2 base archive plus its flat ``.npy`` sidecars;
* **load time, copy vs. mmap** — a full ``load_index`` with materialised
  arrays against the zero-copy memory-mapped path, with a strict ranking
  parity check between the two services;
* **query latency** — hybrid-strategy top-k over rendered synthetic charts;
* **exhaustive verification vs. the int8 prefilter** — warm
  ``strategy="none"`` latency of exact verification against the int8
  quantized-prefilter path, and the prefilter's top-k recall against
  exact scoring;
* **LSH bucket recall vs. exhaustive scoring** — the fraction of the
  exhaustive (``strategy="none"``) top-k that survives LSH candidate
  pruning, plus the candidate fraction.

The model is the deterministic *trained* checkpoint fixture
(:func:`repro.bench.fixture.trained_fixture_model`, pinned seed, cached in
``tests/fixtures/``), so candidate pruning and the prefilter act on a
calibrated embedding space and the recorded recalls mean something; the
controlled-embedding recall pin additionally lives in
``tests/test_index.py::TestLSHBucketRecall``.

A second benchmark measures what the mmap layout is *for*: the per-worker
private memory cost of a :class:`QueryWorkerPool` that opens the snapshot
mapping (``mmap_snapshot=``) against one that receives pickled encodings.
Memory is read as ``Private_Dirty`` from ``/proc/<pid>/smaps_rollup`` —
robust against fork copy-on-write inheritance and against file-backed mmap
pages being charged to ``Pss``/``Private_Clean`` — and the parent warms the
snapshot-reading path before forking, as a service that loaded its index
would have.  At the default scale the mmap delta must stay under 10% of the
copy delta (skipped under ``REPRO_SKIP_PERF_TESTS=1``).

Scales: ``REPRO_BENCH_SCALE=smoke`` → 10²; default → 10², 10³, 10⁴;
``REPRO_BENCH_SCALE=full`` additionally runs the 10⁵ point (minutes of
encode time and ~1 GB of snapshot — deliberately opt-in).  Results land in
``BENCH_scale.json`` at the repository root and
``benchmarks/results/scale_sweep.txt``.
"""

from __future__ import annotations

import gc
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench.fixture import trained_fixture_model
from repro.data import SynthConfig, synth_query_charts, synth_tables
from repro.fcm import FCMConfig, FCMModel
from repro.index import LSHConfig
from repro.serving import SearchService, ServingConfig
from repro.serving.persistence import snapshot_encodings
from repro.serving.workers import QueryWorkerPool

from provenance import stamp_results

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_scale.json"

#: Max |score difference| between copy-loaded and mmap-loaded rankings.
PARITY_TOL = 1e-8
#: Per-worker Private_Dirty under mmap must stay below this fraction of copy.
RSS_RATIO_CEILING = 0.10
TOP_K = 10

#: Sweep model: small enough that the 10⁴ point builds in seconds, real
#: enough (multi-head, segment attention) that encode cost scales like FCM.
SWEEP_FCM = FCMConfig(
    embed_dim=32,
    num_heads=2,
    num_layers=1,
    data_segment_size=32,
    max_data_segments=8,
    beta=2,
)

#: RSS-parity model: fat per-table encodings (33 segments × 64 dims), so the
#: measured ratio reflects array payload, not Python fixed costs.
RSS_FCM = FCMConfig(
    embed_dim=64,
    num_heads=4,
    num_layers=1,
    data_segment_size=32,
    max_data_segments=32,
    beta=2,
)


def _skip_perf_assertions() -> bool:
    return os.environ.get("REPRO_SKIP_PERF_TESTS", "").lower() in ("1", "true", "yes")


def _bench_mode() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "default").lower()


def _sweep_scales() -> list:
    if _bench_mode() == "smoke":
        return [100]
    if _bench_mode() == "full":
        return [100, 1_000, 10_000, 100_000]
    return [100, 1_000, 10_000]


def _sweep_corpus(num_tables: int) -> SynthConfig:
    return SynthConfig(
        num_tables=num_tables,
        num_rows=256,
        max_columns=3,
        num_clusters=16,
        seed=11,
    )


def _lsh_config() -> LSHConfig:
    return LSHConfig(num_bits=16, hamming_radius=2, seed=0)


def _snapshot_bytes(path: Path) -> int:
    """Base archive + every sidecar generation next to it."""
    return sum(
        candidate.stat().st_size
        for candidate in path.parent.glob(path.stem + "*")
        if candidate.suffix in (".npz", ".npy")
    )


def _rankings_match(a, b) -> None:
    assert [t for t, _ in a.ranking] == [t for t, _ in b.ranking]
    if a.ranking:
        worst = max(
            abs(x - y) for (_, x), (_, y) in zip(a.ranking, b.ranking)
        )
        assert worst <= PARITY_TOL, f"copy/mmap score divergence {worst:.3e}"


def _num_queries(num_tables: int) -> int:
    return 2 if num_tables >= 100_000 else 3


def test_scale_sweep(record_result):
    scales = _sweep_scales()
    per_scale = []
    lines = [f"Scale sweep ({_bench_mode()} mode, scales {scales})"]
    for num_tables in scales:
        corpus = _sweep_corpus(num_tables)
        tables = synth_tables(corpus)  # lazy generator, built per scale
        model = trained_fixture_model(SWEEP_FCM)
        config = ServingConfig(lsh_config=_lsh_config())
        service = SearchService(model, config=config)
        start = time.perf_counter()
        service.build(tables)
        build_seconds = time.perf_counter() - start

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scale_index.npz"
            start = time.perf_counter()
            service.save_index(path, layout="v2")
            save_seconds = time.perf_counter() - start
            snapshot_bytes = _snapshot_bytes(path)

            # Best of two attempts per mode: single-CPU load times here
            # show multi-× noise spikes (allocator/page-cache hiccups), and
            # one spike must not decide the copy-vs-mmap comparison.  A
            # collection before each attempt puts both modes on equal
            # generational-GC footing.
            def _timed_load(load_config):
                best, instance = None, None
                for _ in range(2):
                    gc.collect()
                    start = time.perf_counter()
                    candidate = SearchService.load_index(
                        model, path, config=load_config
                    )
                    elapsed = time.perf_counter() - start
                    if best is None or elapsed < best:
                        best = elapsed
                    if instance is not None:
                        instance.close()
                    instance = candidate
                return best, instance

            copy_load_seconds, copy_service = _timed_load(config)
            mmap_load_seconds, mmap_service = _timed_load(
                ServingConfig(lsh_config=_lsh_config(), mmap_index=True)
            )
            assert mmap_service.mmap_active

            charts = [
                chart
                for _, chart in synth_query_charts(corpus, _num_queries(num_tables))
            ]
            latencies, recalls, fractions = [], [], []
            for chart in charts:
                start = time.perf_counter()
                mmap_hybrid = mmap_service.query(chart, k=TOP_K)
                latencies.append(time.perf_counter() - start)
                copy_hybrid = copy_service.query(chart, k=TOP_K)
                _rankings_match(copy_hybrid, mmap_hybrid)

                exhaustive = copy_service.query(chart, k=TOP_K, strategy="none")
                pruned = copy_service.query(chart, k=TOP_K, strategy="lsh")
                exhaustive_ids = {t for t, _ in exhaustive.ranking}
                pruned_ids = {t for t, _ in pruned.ranking}
                recalls.append(
                    len(exhaustive_ids & pruned_ids) / max(len(exhaustive_ids), 1)
                )
                fractions.append(pruned.candidates / max(pruned.total_tables, 1))

            # Exhaustive verification (warm) and the int8 prefilter — on
            # cache-less services, so every timed query is scored.
            timing_service = SearchService.load_index(
                model,
                path,
                config=ServingConfig(lsh_config=_lsh_config(), result_cache_size=0),
            )
            prefilter_service = SearchService.load_index(
                model,
                path,
                config=ServingConfig(
                    lsh_config=_lsh_config(),
                    result_cache_size=0,
                    quantized_prefilter=True,
                ),
            )
            overscan = prefilter_service.config.prefilter_overscan
            timing_service.query(charts[0], k=TOP_K, strategy="none")  # warm
            prefilter_service.query(charts[0], k=TOP_K, strategy="none")
            exact_s, prefilter_s, prefilter_recalls = [], [], []
            for chart in charts:
                # Per-chart warm pass: neither timed variant should absorb
                # this chart's pad-cache misses.
                timing_service.query(chart, k=TOP_K, strategy="none")
                prefilter_service.query(chart, k=TOP_K, strategy="none")
                start = time.perf_counter()
                exact = timing_service.query(chart, k=TOP_K, strategy="none")
                exact_s.append(time.perf_counter() - start)
                start = time.perf_counter()
                approx = prefilter_service.query(chart, k=TOP_K, strategy="none")
                prefilter_s.append(time.perf_counter() - start)
                exact_ids = {t for t, _ in exact.ranking}
                approx_ids = {t for t, _ in approx.ranking}
                prefilter_recalls.append(
                    len(exact_ids & approx_ids) / max(len(exact_ids), 1)
                )
            # Drop the mapping before the TemporaryDirectory is removed.
            mmap_service.close()
            del mmap_service

        entry = {
            "num_tables": num_tables,
            "build_seconds": build_seconds,
            "build_ms_per_table": build_seconds * 1e3 / num_tables,
            "snapshot_bytes": snapshot_bytes,
            "snapshot_bytes_per_table": snapshot_bytes / num_tables,
            "save_seconds": save_seconds,
            "copy_load_seconds": copy_load_seconds,
            "mmap_load_seconds": mmap_load_seconds,
            "query_seconds_mean": float(np.mean(latencies)),
            "lsh_topk_recall_vs_exhaustive": float(np.mean(recalls)),
            "lsh_candidate_fraction": float(np.mean(fractions)),
            "exhaustive_seconds_mean": float(np.mean(exact_s)),
            "prefilter_seconds_mean": float(np.mean(prefilter_s)),
            "prefilter_speedup_vs_exhaustive": float(
                np.mean(exact_s) / np.mean(prefilter_s)
            ),
            "prefilter_topk_recall": float(np.mean(prefilter_recalls)),
            "prefilter_overscan": overscan,
        }
        per_scale.append(entry)
        lines.append(
            f"  n={num_tables:>6}: build {build_seconds:7.2f}s "
            f"({entry['build_ms_per_table']:.2f}ms/t), "
            f"snapshot {snapshot_bytes / 1e6:7.1f}MB, "
            f"load copy/mmap {copy_load_seconds:.2f}s/{mmap_load_seconds:.2f}s, "
            f"query {entry['query_seconds_mean'] * 1e3:.1f}ms, "
            f"LSH recall {entry['lsh_topk_recall_vs_exhaustive']:.2f} "
            f"@ {entry['lsh_candidate_fraction']:.2f} candidates, "
            f"exhaustive {entry['exhaustive_seconds_mean'] * 1e3:.1f}ms, prefilter "
            f"{entry['prefilter_seconds_mean'] * 1e3:.1f}ms "
            f"(recall {entry['prefilter_topk_recall']:.2f})"
        )

    results = {
        "benchmark": "scale_sweep",
        "mode": _bench_mode(),
        "num_cpus": os.cpu_count(),
        "single_cpu": (os.cpu_count() or 1) <= 1,
        "top_k": TOP_K,
        "recall_caveat": (
            "trained fixture weights (repro.bench.fixture, pinned seed): "
            "recalls reflect a calibrated embedding space; the "
            "controlled-embedding recall floor is additionally pinned in "
            "tests/test_index.py::TestLSHBucketRecall and the prefilter "
            "recall floor in tests/test_fastpath.py"
        ),
        "scales": per_scale,
    }
    existing = {}
    if BENCH_JSON.exists():
        try:
            existing = json.loads(BENCH_JSON.read_text())
        except ValueError:
            existing = {}
    existing.update(results)
    BENCH_JSON.write_text(json.dumps(stamp_results(existing), indent=2) + "\n")
    lines.append(f"  -> {BENCH_JSON.name}")
    record_result("scale_sweep", "\n".join(lines))

    # The mmap load defers array reads to first touch: at the largest scale
    # it must not be meaningfully slower than materialising every array up
    # front.  With the page cache warm (the snapshot was just written) both
    # loads are dominated by the same per-table restore work, so the honest
    # claim is parity-within-noise, not strict victory — a 25% margin
    # absorbs single-CPU timer jitter on what is otherwise a dead heat.
    if not _skip_perf_assertions() and per_scale[-1]["num_tables"] >= 10_000:
        assert (
            per_scale[-1]["mmap_load_seconds"]
            <= per_scale[-1]["copy_load_seconds"] * 1.25
        ), per_scale[-1]


# --------------------------------------------------------------------------- #
# Per-worker memory: mmap-shared snapshot vs. pickled copies
# --------------------------------------------------------------------------- #
def _worker_private_dirty_kb(pid: int) -> int:
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith("Private_Dirty:"):
                return int(line.split()[1])
    raise OSError(f"no Private_Dirty line for pid {pid}")


def _mean_pool_dirty_kb(model, mmap_snapshot=None, sync_encodings=None) -> float:
    pool = QueryWorkerPool(
        model, 2, start_timeout=120.0, mmap_snapshot=mmap_snapshot
    )
    pool.start()
    try:
        if sync_encodings is not None:
            pool.sync(sync_encodings, [], timeout=600.0)
        time.sleep(0.5)  # let allocator/page state settle before sampling
        samples = [_worker_private_dirty_kb(pid) for pid in pool.worker_pids]
    finally:
        pool.close()
    return sum(samples) / len(samples)


def test_mmap_worker_memory_parity(record_result):
    if not Path("/proc/self/smaps_rollup").exists():
        pytest.skip("needs /proc/<pid>/smaps_rollup (Linux)")
    smoke = _bench_mode() == "smoke"
    num_tables = 200 if smoke else 2_000
    corpus = SynthConfig(
        num_tables=num_tables,
        num_rows=1024,
        max_columns=3,
        num_clusters=16,
        seed=11,
    )
    model = FCMModel(RSS_FCM)
    service = SearchService(model, config=ServingConfig(lsh_config=_lsh_config()))
    service.build(synth_tables(corpus))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rss_index.npz"
        service.save_index(path, layout="v2")
        payload_bytes = sum(
            int(e.representations.nbytes) + int(e.column_embeddings.nbytes)
            for e in (service.scorer.encoded_table(t) for t in service.table_ids)
        )
        # Warm the parent's snapshot-reading path before any fork, as a
        # service that loaded its index before starting workers would be —
        # otherwise the first mmap worker is charged the one-off cost of
        # cold np.load machinery and the comparison is corpus-independent
        # noise, not layout signal.
        del service
        snapshot_encodings(path, mmap=True)

        baseline_kb = _mean_pool_dirty_kb(model)
        mmap_kb = _mean_pool_dirty_kb(model, mmap_snapshot=path)
        encodings = snapshot_encodings(path)  # materialised, as sync pickles
        copy_kb = _mean_pool_dirty_kb(model, sync_encodings=encodings)

    mmap_delta_kb = max(mmap_kb - baseline_kb, 0.0)
    copy_delta_kb = max(copy_kb - baseline_kb, 0.0)
    ratio = mmap_delta_kb / copy_delta_kb if copy_delta_kb else float("inf")
    results = {
        "worker_memory": {
            "num_tables": num_tables,
            "query_workers": 2,
            "encoding_payload_bytes": payload_bytes,
            "baseline_private_dirty_kb": baseline_kb,
            "mmap_delta_kb_per_worker": mmap_delta_kb,
            "copy_delta_kb_per_worker": copy_delta_kb,
            "mmap_over_copy_ratio": ratio,
            "ratio_ceiling": RSS_RATIO_CEILING,
            "asserted": not (smoke or _skip_perf_assertions()),
        }
    }
    existing = {}
    if BENCH_JSON.exists():
        try:
            existing = json.loads(BENCH_JSON.read_text())
        except ValueError:
            existing = {}
    existing.update(results)
    BENCH_JSON.write_text(json.dumps(stamp_results(existing), indent=2) + "\n")
    record_result(
        "scale_worker_memory",
        (
            f"Worker memory ({num_tables} tables, payload "
            f"{payload_bytes / 1e6:.0f}MB): per-worker Private_Dirty delta "
            f"mmap {mmap_delta_kb / 1024:.1f}MB vs copy "
            f"{copy_delta_kb / 1024:.1f}MB (ratio {ratio:.3f}, "
            f"ceiling {RSS_RATIO_CEILING})"
        ),
    )

    # Smoke scale is dominated by fixed per-process costs, not per-table
    # payload — record the numbers but only hold the ceiling at full scale.
    if not smoke and not _skip_perf_assertions():
        assert ratio < RSS_RATIO_CEILING, results["worker_memory"]
