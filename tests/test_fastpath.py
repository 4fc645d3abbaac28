"""Tests for :mod:`repro.fcm.fastpath`: fused kernels + quantized pre-filter.

Four contracts are pinned down here:

* **fused == forward_pairs** — the fused inference kernel must reproduce the
  differentiable ``matcher.forward_pairs`` with the query chart repeated per
  pair (bitwise in float64, rounding noise in float32) across matcher
  variants, chunkings and ragged candidate shapes, and the worker-pool path
  must rank like the in-process one;
* **quantization edge cases** — all-zero tables take the ``scale = 0.0``
  guard, round-trip error respects the symmetric-quantization bound, the
  pooled pack's geometry/masks mirror the encodings, and the cached coarse
  pass equals :func:`quantized_scores` (a dequantize-then-score oracle
  kept here);
* **pre-filter semantics** — overscan covers-all is the identity, the kept
  set is deterministic, the serving flag validates, and on the *trained*
  fixture the top-k recall against exact scoring holds the pinned floor;
* **q8 sidecar persistence** — v2 snapshots round-trip the quantized copy
  exactly, v1 → v2 compaction builds it, snapshots without the sidecar
  (older writers) requantize lazily to identical rankings, and corrupt
  sidecars surface :class:`SnapshotError` instead of garbage rankings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.charts import ChartSpec, render_chart_for_table
from repro.data import Column, Table
from repro.fcm import FCMConfig, FCMModel, FCMScorer
from repro.fcm.fastpath import (
    PREFILTER_DTYPE,
    PREFILTER_POOL,
    FusedMatchKernel,
    QuantizedPack,
    build_coarse_cache,
    build_quantized_pack,
    coarse_scores,
    quantize_table,
)
from repro.fcm.scorer import pad_candidate_batch
from repro.index import LSHConfig
from repro.nn import Tensor
from repro.obs import get_registry
from repro.serving import (
    SearchService,
    ServingConfig,
    SnapshotError,
    compact_snapshot,
)
from repro.serving import persistence

from conftest import active_dtype, dtype_tol


def _tiny_config(**overrides) -> FCMConfig:
    base = dict(
        embed_dim=16,
        num_heads=2,
        num_layers=1,
        data_segment_size=32,
        beta=2,
        max_data_segments=4,
    )
    base.update(overrides)
    return FCMConfig(**base)


def _make_repository(num_tables: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    tables = []
    for i in range(num_tables):
        n = int(rng.integers(60, 200))
        columns = [Column("x", np.arange(n, dtype=float), role="x")]
        for c in range(int(rng.integers(1, 5))):
            offset = float(rng.standard_normal()) * 4.0
            columns.append(
                Column(f"y{c}", offset + np.cumsum(rng.standard_normal(n)), role="y")
            )
        tables.append(Table(f"tbl{i:03d}", columns))
    return tables


@pytest.fixture(scope="module")
def repository():
    return _make_repository(10)


@pytest.fixture(scope="module")
def query_chart(repository):
    table = repository[0]
    lines = [c.name for c in table.columns if c.role == "y"][:2]
    return render_chart_for_table(table, lines, x_column="x", spec=ChartSpec())


def _make_service(model, **config_kwargs) -> SearchService:
    config_kwargs.setdefault("lsh_config", LSHConfig(num_bits=6, hamming_radius=1))
    return SearchService(model, ServingConfig(**config_kwargs))


def quantized_scores(
    pack: QuantizedPack, chart_repr: np.ndarray, table_ids, score_fn
) -> np.ndarray:
    """Oracle for :func:`coarse_scores`: dequantize the pack rows of
    ``table_ids`` and run ``score_fn(chart_repr, batch, segment_mask,
    column_mask)`` on them.  Unknown ids score ``-inf``."""
    chart = np.ascontiguousarray(chart_repr)
    out = np.full(len(table_ids), -np.inf, dtype=np.float64)
    positions = np.asarray(
        [pack.index.get(table_id, -1) for table_id in table_ids], dtype=np.int64
    )
    known = positions >= 0
    if known.any():
        rows = positions[known]
        batch = pack.codes[rows].astype(chart.dtype)
        batch *= pack.scales[rows][:, None, None, None].astype(chart.dtype)
        out[known] = np.atleast_1d(
            score_fn(chart, batch, pack.segment_mask[rows], pack.column_mask[rows])
        )
    return out


def forward_pairs_scores(scorer, chart_input, table_ids, batch_size):
    """Oracle for the fused verify path: ``model.match_pairs`` over the same
    padded chunks, with the query chart repeated once per candidate."""
    ids = list(table_ids)
    chunk = len(ids) if not batch_size else batch_size
    scores = {}
    with scorer.model.inference():
        chart_repr = scorer.model.encode_chart(chart_input).numpy()
        for start in range(0, len(ids), chunk):
            chunk_ids = ids[start : start + chunk]
            batch, segment_mask, _ = scorer._padded_batch(
                chunk_ids, chart_input.y_range
            )
            charts = np.repeat(chart_repr[None], len(chunk_ids), axis=0)
            chart_mask = np.ones(charts.shape[:-1], dtype=bool)
            out = scorer.model.match_pairs(
                Tensor(charts), Tensor(batch), chart_mask, segment_mask
            ).numpy()
            scores.update(zip(chunk_ids, np.atleast_1d(out).tolist()))
    return scores


# --------------------------------------------------------------------------- #
# Fused kernel vs forward_pairs
# --------------------------------------------------------------------------- #
class TestFusedParity:
    @pytest.fixture(
        scope="class", params=["hcman+da", "hcman-only", "averaged"]
    )
    def scorer(self, request, repository):
        variant = {
            "hcman+da": dict(use_hcman=True, enable_da_layers=True),
            "hcman-only": dict(use_hcman=True, enable_da_layers=False),
            "averaged": dict(use_hcman=False, enable_da_layers=True),
        }[request.param]
        scorer = FCMScorer(FCMModel(_tiny_config(**variant)))
        scorer.index_repository(repository)
        return scorer

    @pytest.mark.parametrize("batch_size", [None, 3])
    def test_fused_matches_forward_pairs(self, scorer, query_chart, batch_size):
        fused = scorer.score_chart_batch(query_chart, batch_size=batch_size)
        reference = forward_pairs_scores(
            scorer,
            scorer.prepare_query(query_chart),
            scorer.indexed_table_ids,
            batch_size,
        )
        assert set(fused) == set(reference)
        for table_id, score in reference.items():
            assert fused[table_id] == pytest.approx(
                score, abs=dtype_tol(1e-8, 5e-5)
            )
        if active_dtype() == np.float64:
            # Same NumPy expressions in the same order: bitwise equality.
            assert fused == reference

    def test_fused_matches_forward_pairs_on_ragged_shapes(self, scorer):
        model = scorer.model
        dtype = model.config.numeric_dtype
        rng = np.random.default_rng(9)
        chart = rng.standard_normal((2, 4, 16)).astype(dtype)
        reps = [
            rng.standard_normal((nc, n2, 16)).astype(dtype)
            for nc, n2 in [(1, 1), (3, 2), (2, 4), (4, 3)]
        ]
        batch, segment_mask, column_mask = pad_candidate_batch(reps)
        fused = FusedMatchKernel(model.matcher).score_batch(
            chart, batch, segment_mask, column_mask
        )
        charts = np.repeat(chart[None], len(reps), axis=0)
        with model.inference():
            reference = model.match_pairs(
                Tensor(charts),
                Tensor(batch),
                np.ones(charts.shape[:-1], dtype=bool),
                segment_mask,
            ).numpy()
        np.testing.assert_allclose(fused, reference, atol=dtype_tol(1e-8, 5e-5))
        if active_dtype() == np.float64:
            assert np.array_equal(fused, reference)

    def test_fused_chunked_matches_single_batch(self, scorer, query_chart):
        full = scorer.score_chart_batch(query_chart, batch_size=None)
        chunked = scorer.score_chart_batch(query_chart, batch_size=3)
        for table_id, score in full.items():
            assert chunked[table_id] == pytest.approx(
                score, abs=dtype_tol(1e-8, 5e-5)
            )

    def test_kernel_rejects_foreign_matcher(self):
        class _ForeignMatcher:
            pass

        with pytest.raises(TypeError, match="_ForeignMatcher"):
            FusedMatchKernel(_ForeignMatcher())

    def test_scratch_pool_reused_across_calls(self, repository, query_chart):
        scorer = FCMScorer(FCMModel(_tiny_config()))
        scorer.index_repository(repository)
        scorer.score_chart_batch(query_chart)
        kernel = scorer._kernel
        first_misses = kernel.pool.misses
        assert first_misses > 0
        scorer.score_chart_batch(query_chart)
        assert kernel.pool.misses == first_misses  # arenas served every op
        assert kernel.pool.hits > 0

    def test_pad_cache_counts_hits_and_misses(self, repository, query_chart):
        scorer = FCMScorer(FCMModel(_tiny_config()))
        scorer.index_repository(repository)
        counter = get_registry().counter("repro_pad_cache_total")
        hits_before = counter.value(result="hit")
        misses_before = counter.value(result="miss")
        scorer.score_chart_batch(query_chart)
        assert counter.value(result="miss") > misses_before
        misses_after_first = counter.value(result="miss")
        # Same chunks for the same query: served from the cache.
        scorer.score_chart_batch(query_chart)
        assert counter.value(result="miss") == misses_after_first
        assert counter.value(result="hit") > hits_before


class TestServingFusedParity:
    def test_worker_pool_matches_in_process(self, small_records):
        model = FCMModel(_tiny_config())
        tables = [record.table for record in small_records[:6]]
        chart = render_chart_for_table(
            small_records[1].table,
            list(small_records[1].spec.y_columns),
            x_column=small_records[1].spec.x_column,
            spec=model.config.chart_spec,
        )
        in_process = _make_service(model, result_cache_size=0)
        in_process.build(tables)
        pooled = _make_service(
            model, query_workers=2, result_cache_size=0, worker_timeout=120.0
        )
        pooled.build(tables)
        try:
            a = in_process.query(chart, k=5, strategy="none")
            b = pooled.query(chart, k=5, strategy="none")
            assert [t for t, _ in a.ranking] == [t for t, _ in b.ranking]
            for (_, sa), (_, sb) in zip(a.ranking, b.ranking):
                assert abs(sa - sb) <= dtype_tol(1e-8, 5e-5)
            if pooled.worker_fallback_reason is None:
                assert pooled.stats.worker_queries > 0
        finally:
            pooled.close()


# --------------------------------------------------------------------------- #
# Quantization edge cases and pack geometry
# --------------------------------------------------------------------------- #
class TestQuantization:
    def test_all_zero_table_takes_scale_zero_guard(self):
        quantized = quantize_table(np.zeros((2, 3, 4)))
        assert quantized.scale == 0.0
        assert quantized.codes.shape == (2, 3, 4)
        assert quantized.codes.dtype == np.int8
        assert not quantized.codes.any()

    def test_non_finite_amax_takes_scale_zero_guard(self):
        reps = np.zeros((1, 2, 3))
        reps[0, 0, 0] = np.inf
        assert quantize_table(reps).scale == 0.0

    def test_roundtrip_error_within_half_scale(self):
        rng = np.random.default_rng(5)
        reps = rng.standard_normal((3, 4, 8))
        quantized = quantize_table(reps)
        dequantized = quantized.codes.astype(np.float64) * quantized.scale
        assert np.max(np.abs(dequantized - reps)) <= quantized.scale / 2 + 1e-12

    def test_pack_pools_and_masks_geometry(self):
        rng = np.random.default_rng(7)
        items = [
            ("a", quantize_table(rng.standard_normal((1, 5, 8)))),
            ("b", quantize_table(rng.standard_normal((3, 2, 8)))),
            ("zero", quantize_table(np.zeros((2, 1, 8)))),
        ]
        pack = build_quantized_pack(items, pool=2)
        # NS_max = ceil(5 / 2) = 3, NC_max = 3.
        assert pack.codes.shape == (3, 3, 3, 8)
        assert pack.pool == 2
        assert pack.segment_mask[0].sum() == 1 * 3  # 5 rows -> 3 pooled
        assert pack.segment_mask[1].sum() == 3 * 1  # 2 rows -> 1 pooled
        assert pack.column_mask.tolist() == [
            [True, False, False],
            [True, True, True],
            [True, True, False],
        ]
        assert pack.scales[2] == 0.0  # all-zero table keeps the guard


# --------------------------------------------------------------------------- #
# Prebuilt coarse cache (query-independent table-side projections)
# --------------------------------------------------------------------------- #
class TestCoarseCache:
    @pytest.fixture(scope="class", params=["hcman", "averaged"])
    def scorer(self, request, repository):
        scorer = FCMScorer(
            FCMModel(_tiny_config(use_hcman=request.param == "hcman"))
        )
        scorer.index_repository(repository)
        return scorer

    def _chart_repr(self, scorer, query_chart) -> np.ndarray:
        chart_input = scorer.prepare_query(query_chart)
        with scorer.model.inference():
            chart_repr = scorer.model.encode_chart(chart_input)
        return np.ascontiguousarray(chart_repr.numpy()).astype(PREFILTER_DTYPE)

    def test_cached_scores_match_unprojected_coarse_pass(
        self, scorer, query_chart
    ):
        """The cache only moves query-independent work: per-id scores equal
        the chunk-wise dequantize-then-project flow at PREFILTER_DTYPE."""
        pack = scorer.quantized_pack()
        assert pack.pool == PREFILTER_POOL
        kernel = scorer._kernel
        cache = build_coarse_cache(kernel, pack)
        chart = self._chart_repr(scorer, query_chart)
        ids = list(pack.table_ids) + ["missing"]
        cached = coarse_scores(kernel, pack, cache, chart, ids)

        def score_fn(chart_repr, batch, segment_mask, column_mask):
            return kernel.score_batch(
                chart_repr, batch, segment_mask, column_mask, exact=False
            )

        reference = quantized_scores(pack, chart, ids, score_fn)
        assert cached[-1] == -np.inf
        np.testing.assert_allclose(cached[:-1], reference[:-1], atol=1e-5)

    def test_cache_shape_matches_matcher_variant(self, scorer):
        pack = scorer.quantized_pack()
        cache = build_coarse_cache(scorer._kernel, pack)
        if scorer.model.config.use_hcman:
            assert cache.table_vecs is None
            t, nc, ns, dim = pack.codes.shape
            assert cache.keys.shape[:2] == (t, nc * ns)
            assert cache.table_values.shape[:3] == (t, nc, ns)
            assert cache.keys.dtype == PREFILTER_DTYPE
        else:
            assert cache.keys is None and cache.table_values is None
            assert cache.table_vecs.shape[0] == len(pack.table_ids)

    def test_scoring_does_not_mutate_the_cache(self, scorer, query_chart):
        pack = scorer.quantized_pack()
        kernel = scorer._kernel
        cache = build_coarse_cache(kernel, pack)
        snapshots = [
            arr.copy()
            for arr in (cache.keys, cache.table_values, cache.table_vecs)
            if arr is not None
        ]
        chart = self._chart_repr(scorer, query_chart)
        first = coarse_scores(kernel, pack, cache, chart, list(pack.table_ids))
        second = coarse_scores(kernel, pack, cache, chart, list(pack.table_ids))
        np.testing.assert_array_equal(first, second)
        for snapshot, arr in zip(
            snapshots,
            [
                a
                for a in (cache.keys, cache.table_values, cache.table_vecs)
                if a is not None
            ],
        ):
            np.testing.assert_array_equal(snapshot, arr)

    def test_subset_and_unsorted_candidates_use_the_lookup_path(
        self, scorer, query_chart
    ):
        pack = scorer.quantized_pack()
        kernel = scorer._kernel
        cache = build_coarse_cache(kernel, pack)
        chart = self._chart_repr(scorer, query_chart)
        everything = coarse_scores(
            kernel, pack, cache, chart, sorted(pack.table_ids)
        )
        by_id = dict(zip(sorted(pack.table_ids), everything))
        subset = list(reversed(sorted(pack.table_ids)))[:5] + ["nope"]
        scores = coarse_scores(kernel, pack, cache, chart, subset)
        assert scores[-1] == -np.inf
        # Not bitwise: BLAS blocking may differ with the batch row count.
        for table_id, score in zip(subset[:-1], scores[:-1]):
            np.testing.assert_allclose(score, by_id[table_id], atol=1e-6)

    def test_scorer_invalidates_cache_with_the_pack(
        self, repository, query_chart
    ):
        scorer = FCMScorer(FCMModel(_tiny_config()))
        scorer.index_repository(repository)
        ids = scorer.indexed_table_ids
        chart_input = scorer.prepare_query(query_chart)
        scorer.prefilter_ids(chart_input, ids, 4)
        assert scorer._coarse_cache is not None
        first_cache = scorer._coarse_cache
        assert scorer.evict_table(ids[-1])
        assert scorer._coarse_cache is None
        kept = scorer.prefilter_ids(chart_input, ids[:-1], 4)
        assert scorer._coarse_cache is not first_cache
        assert set(kept) <= set(ids[:-1])


# --------------------------------------------------------------------------- #
# Pre-filter semantics through the scorer and the serving config
# --------------------------------------------------------------------------- #
class TestPrefilter:
    def test_keep_covering_all_is_identity(self, repository, query_chart):
        scorer = FCMScorer(FCMModel(_tiny_config()))
        scorer.index_repository(repository)
        ids = scorer.indexed_table_ids
        chart_input = scorer.prepare_query(query_chart)
        assert scorer.prefilter_ids(chart_input, ids, len(ids)) == ids
        assert scorer.prefilter_ids(chart_input, ids, len(ids) + 5) == ids

    def test_kept_set_is_deterministic_subset(self, repository, query_chart):
        scorer = FCMScorer(FCMModel(_tiny_config()))
        scorer.index_repository(repository)
        ids = scorer.indexed_table_ids
        chart_input = scorer.prepare_query(query_chart)
        kept = scorer.prefilter_ids(chart_input, ids, 4)
        assert len(kept) == 4
        assert set(kept) <= set(ids)
        assert kept == sorted(kept)
        assert kept == scorer.prefilter_ids(chart_input, ids, 4)

    def test_serving_flag_marks_result_and_bounds_keep(self, small_records):
        model = FCMModel(_tiny_config())
        tables = [record.table for record in small_records[:8]]
        chart = render_chart_for_table(
            small_records[2].table,
            list(small_records[2].spec.y_columns),
            x_column=small_records[2].spec.x_column,
            spec=model.config.chart_spec,
        )
        service = _make_service(
            model,
            quantized_prefilter=True,
            prefilter_overscan=2,
            result_cache_size=0,
        )
        service.build(tables)
        result = service.query(chart, k=2, strategy="none")
        assert result.prefiltered == 2 * 2
        assert len(result.ranking) == 2
        exact = _make_service(model, result_cache_size=0)
        exact.build(tables)
        assert {t for t, _ in result.ranking} <= {
            t for t, _ in exact.query(chart, k=8, strategy="none").ranking
        }

    def test_overscan_validation(self):
        with pytest.raises(ValueError, match="prefilter_overscan"):
            ServingConfig(
                lsh_config=LSHConfig(num_bits=6), prefilter_overscan=0
            )

    @pytest.mark.slow
    def test_recall_floor_on_trained_fixture(self):
        from repro.bench.fixture import trained_fixture_model
        from repro.data import SynthConfig, synth_query_charts, synth_tables

        config = FCMConfig(
            embed_dim=32,
            num_heads=2,
            num_layers=1,
            data_segment_size=32,
            max_data_segments=8,
            beta=2,
        )
        model = trained_fixture_model(config)
        corpus = SynthConfig(
            num_tables=300, num_rows=256, max_columns=3, num_clusters=16, seed=11
        )
        exact = SearchService(
            model,
            ServingConfig(lsh_config=LSHConfig(num_bits=16), result_cache_size=0),
        )
        exact.build(synth_tables(corpus))
        approx = SearchService(
            model,
            ServingConfig(
                lsh_config=LSHConfig(num_bits=16),
                result_cache_size=0,
                quantized_prefilter=True,
            ),
        )
        approx.build(synth_tables(corpus))
        recalls = []
        for _, chart in synth_query_charts(corpus, 5):
            exact_ids = {
                t for t, _ in exact.query(chart, k=10, strategy="none").ranking
            }
            approx_ids = {
                t for t, _ in approx.query(chart, k=10, strategy="none").ranking
            }
            recalls.append(len(exact_ids & approx_ids) / max(len(exact_ids), 1))
        # The coarse score is the real matcher on pooled int8 input, so the
        # exact top-k survives the default-overscan cut essentially always.
        assert float(np.mean(recalls)) >= 0.99, recalls


# --------------------------------------------------------------------------- #
# q8 sidecar persistence
# --------------------------------------------------------------------------- #
class TestQuantizedSidecar:
    def _service(self, model, tables):
        service = _make_service(model, result_cache_size=0)
        service.build(tables)
        return service

    def test_v2_roundtrips_quantized_copy_exactly(
        self, small_records, tmp_path
    ):
        model = FCMModel(_tiny_config())
        tables = [record.table for record in small_records[:5]]
        service = self._service(model, tables)
        path = service.save_index(tmp_path / "idx.npz", layout="v2")
        assert (tmp_path / "idx.g0001.q8.npy").exists()
        assert (tmp_path / "idx.g0001.qscale.npy").exists()
        loaded = SearchService.load_index(
            model, path, ServingConfig(lsh_config=LSHConfig(num_bits=6))
        )
        for table_id in service.table_ids:
            live = service.scorer.encoded_table(table_id).quantized
            restored = loaded.scorer.encoded_table(table_id).quantized
            assert restored is not None
            assert restored.codes.shape == live.codes.shape
            assert np.array_equal(restored.codes, live.codes)
            assert restored.scale == live.scale

    def test_v1_to_v2_compaction_builds_sidecar(self, small_records, tmp_path):
        model = FCMModel(_tiny_config())
        tables = [record.table for record in small_records[:4]]
        service = self._service(model, tables)
        path = service.save_index(tmp_path / "idx.npz", layout="v1")
        compact_snapshot(path, layout="v2")
        assert list(tmp_path.glob("idx.g*.q8.npy"))
        loaded = SearchService.load_index(
            model, path, ServingConfig(lsh_config=LSHConfig(num_bits=6))
        )
        for table_id in service.table_ids:
            live = service.scorer.encoded_table(table_id).quantized
            restored = loaded.scorer.encoded_table(table_id).quantized
            assert np.array_equal(restored.codes, live.codes)
            assert restored.scale == live.scale

    def test_snapshot_without_sidecar_requantizes_lazily(
        self, small_records, tmp_path, monkeypatch
    ):
        model = FCMModel(_tiny_config())
        tables = [record.table for record in small_records[:5]]
        chart = render_chart_for_table(
            small_records[0].table,
            list(small_records[0].spec.y_columns),
            x_column=small_records[0].spec.x_column,
            spec=model.config.chart_spec,
        )
        service = self._service(model, tables)
        # Simulate a pre-q8 writer: drop the new kinds for this save only.
        monkeypatch.setattr(
            persistence, "_SIDECAR_KINDS", ("reps", "colemb", "codes")
        )
        path = service.save_index(tmp_path / "old.npz", layout="v2")
        monkeypatch.undo()
        assert not list(tmp_path.glob("old.g*.q8.npy"))
        loaded = SearchService.load_index(
            model,
            path,
            ServingConfig(
                lsh_config=LSHConfig(num_bits=6),
                quantized_prefilter=True,
                prefilter_overscan=1,
                result_cache_size=0,
            ),
        )
        first = loaded.scorer.encoded_table(loaded.table_ids[0])
        assert first.quantized is None  # nothing eager on load
        result = loaded.query(chart, k=2, strategy="none")
        assert result.prefiltered == 2
        # Lazy requantization reproduces the live quantized copy exactly.
        live = service.scorer.encoded_table(loaded.table_ids[0]).quantized
        assert np.array_equal(first.quantized.codes, live.codes)

    def test_corrupt_q8_sidecar_surfaces_snapshot_error(
        self, small_records, tmp_path
    ):
        model = FCMModel(_tiny_config())
        tables = [record.table for record in small_records[:4]]
        service = self._service(model, tables)
        path = service.save_index(tmp_path / "idx.npz", layout="v2")
        sidecar = next(tmp_path.glob("idx.g*.q8.npy"))
        np.save(sidecar, np.zeros(3, dtype=np.int8))
        with pytest.raises(SnapshotError, match=r"q8\.npy is truncated"):
            SearchService.load_index(
                model, path, ServingConfig(lsh_config=LSHConfig(num_bits=6))
            )

    def test_missing_q8_sidecar_surfaces_snapshot_error(
        self, small_records, tmp_path
    ):
        model = FCMModel(_tiny_config())
        tables = [record.table for record in small_records[:4]]
        service = self._service(model, tables)
        path = service.save_index(tmp_path / "idx.npz", layout="v2")
        sidecar = next(tmp_path.glob("idx.g*.q8.npy"))
        sidecar.unlink()
        with pytest.raises(SnapshotError, match=sidecar.name):
            SearchService.load_index(
                model, path, ServingConfig(lsh_config=LSHConfig(num_bits=6))
            )
