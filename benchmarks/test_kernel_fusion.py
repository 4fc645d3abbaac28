"""Kernel microbenchmark: the fused matcher forward, and the int8
prefilter end to end.

Two measurements feed ``BENCH_kernels.json``:

* **fused matcher-forward cost** — one padded candidate batch scored by the
  fused kernel of :mod:`repro.fcm.fastpath` (preallocated NumPy
  contractions, no Tensor machinery), with a score-parity check against the
  differentiable ``model.match_pairs`` (the query chart repeated per pair).
* **exact vs int8-prefilter+rescore query latency** — end-to-end
  ``strategy="none"`` (exhaustive verification) queries through
  :class:`SearchService` at 10³ and 10⁴ tables (smoke mode: 10³ only),
  with the quantized pre-filter's top-k recall against exact scoring.

The model is the deterministic trained fixture
(:mod:`repro.bench.fixture`), so prefilter recall is measured on a
calibrated embedding space.  ``os.cpu_count()`` and a ``single_cpu`` flag
ride along in the JSON — all numbers here are single-process.

Results land in ``BENCH_kernels.json`` at the repository root and
``benchmarks/results/kernel_fusion.txt``.  Timings are recorded, not gated.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench.fixture import trained_fixture_model
from repro.data import SynthConfig, synth_query_charts, synth_tables
from repro.fcm import FCMConfig
from repro.index import LSHConfig
from repro.nn import Tensor
from repro.serving import SearchService, ServingConfig

from provenance import stamp_results

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_kernels.json"

TOP_K = 10

#: Same sweep model as benchmarks/test_scale_sweep.py — numbers line up.
KERNEL_FCM = FCMConfig(
    embed_dim=32,
    num_heads=2,
    num_layers=1,
    data_segment_size=32,
    max_data_segments=8,
    beta=2,
)


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SCALE", "default").lower() == "smoke"


def _corpus(num_tables: int) -> SynthConfig:
    return SynthConfig(
        num_tables=num_tables,
        num_rows=256,
        max_columns=3,
        num_clusters=16,
        seed=11,
    )


def _write_json(results: dict) -> None:
    BENCH_JSON.write_text(json.dumps(stamp_results(results), indent=2) + "\n")


def test_kernel_fusion(record_result):
    model = trained_fixture_model(KERNEL_FCM)
    rounds = 2 if _smoke() else 5
    batch_tables = 128 if _smoke() else 256

    # ------------------------------------------------------------------ #
    # 1. One padded matcher batch through the fused kernel
    # ------------------------------------------------------------------ #
    corpus = _corpus(batch_tables)
    service = SearchService(
        model, config=ServingConfig(lsh_config=LSHConfig(num_bits=16, seed=0))
    )
    service.build(synth_tables(corpus))
    chart = synth_query_charts(corpus, 1)[0][1]
    scorer = service.scorer
    chart_input = scorer.prepare_query(chart)
    ids = scorer.indexed_table_ids
    with model.inference():
        chart_data = np.ascontiguousarray(model.encode_chart(chart_input).numpy())
    batch, segment_mask, column_mask = scorer._padded_batch(
        ids, chart_input.y_range
    )
    kernel = scorer._kernel
    fused = np.atleast_1d(
        kernel.score_batch(chart_data, batch, segment_mask, column_mask)
    )  # warmup (and parity sample)
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        kernel.score_batch(chart_data, batch, segment_mask, column_mask)
        samples.append(time.perf_counter() - start)
    fused_seconds = float(np.mean(samples))
    chart_batch = np.repeat(chart_data[None], len(ids), axis=0)
    with model.inference():
        reference = model.match_pairs(
            Tensor(chart_batch),
            Tensor(batch),
            np.ones(chart_batch.shape[:-1], dtype=bool),
            segment_mask,
        ).numpy()
    parity = float(np.max(np.abs(fused - reference)))
    assert parity < 1e-8, f"fused kernel diverges from forward_pairs: {parity:.3e}"

    stage_results = {
        "batch_tables": len(ids),
        "rounds": rounds,
        "fused_seconds": fused_seconds,
        "score_parity_max_abs_diff": parity,
    }

    # ------------------------------------------------------------------ #
    # 2. Exact vs int8-prefilter+rescore, end to end
    # ------------------------------------------------------------------ #
    scales = [1_000] if _smoke() else [1_000, 10_000]
    num_queries = 2 if _smoke() else 3
    per_scale = []
    for num_tables in scales:
        corpus = _corpus(num_tables)
        build_service = SearchService(
            model, config=ServingConfig(lsh_config=LSHConfig(num_bits=16, seed=0))
        )
        build_service.build(synth_tables(corpus))
        # Encode once, then load the timing services from a v2 snapshot —
        # which also routes the prefilter through the q8 sidecar path.  No
        # result cache, so every timed query is scored.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "kernels_index.npz"
            build_service.save_index(path, layout="v2")
            del build_service
            exact_service = SearchService.load_index(
                model,
                path,
                config=ServingConfig(
                    lsh_config=LSHConfig(num_bits=16, seed=0),
                    result_cache_size=0,
                ),
            )
            prefilter_service = SearchService.load_index(
                model,
                path,
                config=ServingConfig(
                    lsh_config=LSHConfig(num_bits=16, seed=0),
                    result_cache_size=0,
                    quantized_prefilter=True,
                ),
            )
        charts = [c for _, c in synth_query_charts(corpus, num_queries)]
        # Warm pools, pad caches and the quantized pack.
        exact_service.query(charts[0], k=TOP_K, strategy="none")
        prefilter_service.query(charts[0], k=TOP_K, strategy="none")
        exact_s, prefilter_s, recalls = [], [], []
        for chart in charts:
            # Per-chart warm pass so neither timed variant pays the pad-cache
            # misses for this chart's y-range (the first-timed path would
            # otherwise absorb them all).
            exact_service.query(chart, k=TOP_K, strategy="none")
            prefilter_service.query(chart, k=TOP_K, strategy="none")
            start = time.perf_counter()
            exact = exact_service.query(chart, k=TOP_K, strategy="none")
            exact_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            approx = prefilter_service.query(chart, k=TOP_K, strategy="none")
            prefilter_s.append(time.perf_counter() - start)
            exact_ids = {t for t, _ in exact.ranking}
            recalls.append(
                len(exact_ids & {t for t, _ in approx.ranking})
                / max(len(exact_ids), 1)
            )
        per_scale.append(
            {
                "num_tables": num_tables,
                "num_queries": len(charts),
                "prefilter_overscan": prefilter_service.config.prefilter_overscan,
                "exact_seconds_mean": float(np.mean(exact_s)),
                "prefilter_seconds_mean": float(np.mean(prefilter_s)),
                "prefilter_speedup_vs_exact": float(
                    np.mean(exact_s) / np.mean(prefilter_s)
                ),
                "prefilter_topk_recall": float(np.mean(recalls)),
            }
        )

    results = {
        "benchmark": "kernel_fusion",
        "mode": "smoke" if _smoke() else "default",
        "num_cpus": os.cpu_count(),
        "single_cpu": (os.cpu_count() or 1) <= 1,
        "top_k": TOP_K,
        "model": "trained fixture (repro.bench.fixture, pinned seed)",
        "matcher_forward": stage_results,
        "end_to_end": per_scale,
    }
    _write_json(results)

    lines = [
        f"Kernel fusion ({results['mode']} mode, trained fixture)",
        (
            f"  fused matcher forward x{stage_results['batch_tables']}: "
            f"{fused_seconds * 1e3:.1f}ms (parity {parity:.1e} vs forward_pairs)"
        ),
    ]
    for entry in per_scale:
        lines.append(
            f"  n={entry['num_tables']:>6}: exhaustive "
            f"{entry['exact_seconds_mean'] * 1e3:.1f}ms, prefilter "
            f"{entry['prefilter_seconds_mean'] * 1e3:.1f}ms "
            f"({entry['prefilter_speedup_vs_exact']:.1f}x, "
            f"recall {entry['prefilter_topk_recall']:.2f} "
            f"@ overscan {entry['prefilter_overscan']})"
        )
    lines.append(f"  -> {BENCH_JSON.name}")
    record_result("kernel_fusion", "\n".join(lines))
