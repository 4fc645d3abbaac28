"""Tests for the interval tree, LSH, and the hybrid query processor."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.charts import render_chart_for_table
from repro.data import Column, DataRepository, Table
from repro.fcm import FCMModel, FCMScorer
from repro.index import (
    HybridQueryProcessor,
    INDEXING_STRATEGIES,
    Interval,
    IntervalTree,
    LSHConfig,
    RandomHyperplaneLSH,
    build_interval_index,
)


class TestIntervalTree:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Interval(low=2.0, high=1.0, table_id="t", column_name="c")

    def test_basic_overlap_queries(self):
        tree = IntervalTree(
            [
                Interval(0.0, 5.0, "a", "c1"),
                Interval(10.0, 20.0, "b", "c1"),
                Interval(4.0, 12.0, "c", "c1"),
            ]
        )
        assert tree.query_table_ids(4.5, 4.6) == {"a", "c"}
        assert tree.query_table_ids(15.0, 16.0) == {"b"}
        assert tree.query_table_ids(100.0, 200.0) == set()
        assert tree.query_table_ids(5.0, 6.0) == {"a", "c"}

    def test_query_reversed_bounds(self):
        tree = IntervalTree([Interval(0.0, 5.0, "a", "c")])
        assert tree.query_table_ids(3.0, 1.0) == {"a"}

    def test_add_table_uses_min_sum_interval(self, simple_table):
        tree = IntervalTree()
        tree.add_table(simple_table)
        tree.build()
        assert len(tree) == simple_table.num_columns
        # Every column interval must cover [min, max] of the raw values.
        for interval in tree.intervals:
            column = simple_table.column(interval.column_name)
            assert interval.low <= column.min
            assert interval.high >= column.max

    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False), st.floats(0, 50, allow_nan=False)
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(-120, 120, allow_nan=False),
        st.floats(0, 60, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_misses_an_overlap(self, raw_intervals, query_low, query_span):
        """Property: the tree's answer equals the brute-force answer exactly."""
        intervals = [
            Interval(low, low + span, f"t{i}", "c")
            for i, (low, span) in enumerate(raw_intervals)
        ]
        tree = IntervalTree(intervals)
        query_high = query_low + query_span
        expected = {iv.table_id for iv in intervals if iv.overlaps(query_low, query_high)}
        assert tree.query_table_ids(query_low, query_high) == expected

    def test_build_interval_index_over_repository(self, small_records):
        tables = [r.table for r in small_records[:4]]
        tree = build_interval_index(tables)
        # A query covering everything returns every table.
        lows = [c.index_interval()[0] for t in tables for c in t.columns]
        highs = [c.index_interval()[1] for t in tables for c in t.columns]
        assert tree.query_table_ids(min(lows), max(highs)) == {t.table_id for t in tables}


class TestLSH:
    def test_hash_is_deterministic(self):
        lsh = RandomHyperplaneLSH(8, LSHConfig(num_bits=8, seed=1))
        vector = np.random.default_rng(0).standard_normal(8)
        assert lsh.hash_vector(vector) == lsh.hash_vector(vector)

    def test_dimension_validation(self):
        lsh = RandomHyperplaneLSH(4)
        with pytest.raises(ValueError):
            lsh.hash_vector(np.zeros(5))
        with pytest.raises(ValueError):
            RandomHyperplaneLSH(0)
        with pytest.raises(ValueError):
            LSHConfig(num_bits=0)

    def test_identical_vectors_collide(self):
        lsh = RandomHyperplaneLSH(16, LSHConfig(num_bits=10, hamming_radius=0))
        vector = np.random.default_rng(1).standard_normal(16)
        lsh.add("a", vector[None, :])
        lsh.add("b", vector[None, :])
        assert lsh.query(vector[None, :]) == {"a", "b"}

    def test_similar_vectors_more_likely_to_collide_than_dissimilar(self):
        rng = np.random.default_rng(2)
        lsh = RandomHyperplaneLSH(32, LSHConfig(num_bits=10, hamming_radius=1, seed=3))
        base = rng.standard_normal(32)
        similar = base + 0.01 * rng.standard_normal(32)
        opposite = -base
        lsh.add("similar", similar[None, :])
        lsh.add("opposite", opposite[None, :])
        hits = lsh.query(base[None, :])
        assert "similar" in hits
        assert "opposite" not in hits

    def test_hamming_distance(self):
        assert RandomHyperplaneLSH.hamming_distance(0b1010, 0b0010) == 1
        assert RandomHyperplaneLSH.hamming_distance(0, 0) == 0


class TestHybridProcessor:
    @pytest.fixture(scope="class")
    def processor_setup(self, small_records, tiny_fcm_config):
        tables = [r.table for r in small_records[:6]]
        repository = DataRepository(tables)
        model = FCMModel(tiny_fcm_config)
        scorer = FCMScorer(model)
        processor = HybridQueryProcessor(scorer, lsh_config=LSHConfig(num_bits=6, hamming_radius=2))
        processor.index_repository(repository.tables)
        record = small_records[0]
        chart = render_chart_for_table(
            record.table,
            list(record.spec.y_columns),
            x_column=record.spec.x_column,
            spec=tiny_fcm_config.chart_spec,
        )
        return processor, chart, tables, record

    def test_build_stats(self, processor_setup):
        processor, _, tables, _ = processor_setup
        assert processor.build_stats.num_tables == len(tables)
        assert processor.build_stats.interval_seconds >= 0

    def test_all_strategies_return_results(self, processor_setup):
        processor, chart, tables, _ = processor_setup
        for strategy in INDEXING_STRATEGIES:
            result = processor.query(chart, k=3, strategy=strategy)
            assert len(result.ranking) <= 3
            assert 0 < result.candidates <= len(tables)
            assert result.seconds >= 0
            assert 0.0 <= result.pruned_fraction <= 1.0

    def test_interval_strategy_keeps_source_table(self, processor_setup):
        """The interval tree must never prune the query's own source table."""
        processor, chart, _, record = processor_setup
        candidates = processor.candidates(chart, "interval")
        assert record.table.table_id in candidates

    def test_candidate_monotonicity(self, processor_setup):
        """Hybrid candidates are a subset of each individual strategy's."""
        processor, chart, _, _ = processor_setup
        interval = processor.candidates(chart, "interval")
        lsh = processor.candidates(chart, "lsh")
        hybrid = processor.candidates(chart, "hybrid")
        none = processor.candidates(chart, "none")
        assert hybrid <= interval and hybrid <= lsh
        assert interval <= none and lsh <= none

    def test_unknown_strategy_rejected(self, processor_setup):
        processor, chart, _, _ = processor_setup
        with pytest.raises(ValueError):
            processor.candidates(chart, "bogus")

    @pytest.mark.parametrize(
        "found, reason", [(0, "empty"), (1, "short"), (2, "short"), (3, "short")]
    )
    def test_too_few_candidates_fall_back_to_every_table(
        self, processor_setup, monkeypatch, found, reason
    ):
        """An index answer of 0 to k-1 candidates still yields exactly k
        results: every table is verified, as an exhaustive scan would."""
        processor, chart, tables, _ = processor_setup
        k = 4
        exhaustive = processor.query(chart, k=k, strategy="none")
        ids = sorted(table.table_id for table in tables)
        monkeypatch.setattr(
            processor, "candidates", lambda chart, strategy: set(ids[:found])
        )
        result = processor.query(chart, k=k, strategy="hybrid")
        assert result.fallback == reason
        assert len(result.ranking) == k
        assert result.ranking == exhaustive.ranking
        assert result.candidates == result.total_tables == len(tables)
        assert exhaustive.fallback is None

    @pytest.mark.parametrize("k, found", [(4, 4), (10, 6)])
    def test_candidates_filling_the_ranking_take_no_fallback(
        self, processor_setup, monkeypatch, k, found
    ):
        """``k`` candidates — or every table when ``k`` exceeds the
        repository — are verified as they are."""
        processor, chart, tables, _ = processor_setup
        ids = sorted(table.table_id for table in tables)[:found]
        monkeypatch.setattr(
            processor, "candidates", lambda chart, strategy: set(ids)
        )
        result = processor.query(chart, k=k, strategy="hybrid")
        assert result.fallback is None
        assert result.candidates == found
        assert sorted(table_id for table_id, _ in result.ranking) == ids


class TestLSHBucketRecall:
    """Regression pin: hashing quality on a corpus with known neighbours.

    ``clustered_embeddings`` plants explicit cluster structure (measured
    within-cluster cosine ≈ 0.99 at this noise level, ≈ 0 across), so the
    true top-k of every query demonstrably sits in one bucket
    neighbourhood.  Two bounds hold simultaneously:

    * **recall floor** — a change to the hyperplane draw, the code packing
      or the Hamming-ball probe that degrades bucket quality drops recall
      below 0.95 and fails loudly;
    * **candidate-fraction ceiling** — recall achieved by returning most of
      the corpus is vacuous (an untrained encoder collapsing all embeddings
      to one bucket would "recall" everything), so the same run must also
      prune ≥ 75% of the corpus.

    Deterministic: fixed corpus seed, fixed hyperplane seed, fixed query
    perturbations.
    """

    NUM_VECTORS = 500
    EMBED_DIM = 16
    NUM_CLUSTERS = 25
    NOISE = 0.05
    TOP_K = 10
    RECALL_FLOOR = 0.95
    CANDIDATE_FRACTION_CEILING = 0.25

    def _corpus_and_lsh(self):
        from repro.data import clustered_embeddings

        vectors, labels = clustered_embeddings(
            self.NUM_VECTORS,
            self.EMBED_DIM,
            num_clusters=self.NUM_CLUSTERS,
            noise=self.NOISE,
            seed=7,
        )
        lsh = RandomHyperplaneLSH(
            self.EMBED_DIM, LSHConfig(num_bits=16, hamming_radius=4, seed=0)
        )
        for i, vector in enumerate(vectors):
            lsh.add(f"t{i:03d}", vector.reshape(1, -1))
        return vectors, labels, lsh

    def test_bucket_recall_meets_floor_without_vacuous_candidates(self):
        vectors, labels, lsh = self._corpus_and_lsh()
        prototypes = {}
        for i, label in enumerate(labels):
            prototypes.setdefault(int(label), vectors[i])
        normalised = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        rng = np.random.default_rng(123)
        recalls, fractions = [], []
        for query_number in range(50):
            label = query_number % self.NUM_CLUSTERS
            query = prototypes[label] + self.NOISE * rng.normal(size=self.EMBED_DIM)
            sims = normalised @ (query / np.linalg.norm(query))
            true_top = set(np.argsort(-sims)[: self.TOP_K])
            candidates = lsh.query(query.reshape(1, -1))
            candidate_indices = {int(c[1:]) for c in candidates}
            recalls.append(len(true_top & candidate_indices) / self.TOP_K)
            fractions.append(len(candidates) / self.NUM_VECTORS)
        mean_recall = float(np.mean(recalls))
        mean_fraction = float(np.mean(fractions))
        assert mean_recall >= self.RECALL_FLOOR, (
            f"LSH bucket recall regressed: {mean_recall:.3f} < "
            f"{self.RECALL_FLOOR} (candidate fraction {mean_fraction:.3f})"
        )
        assert mean_fraction <= self.CANDIDATE_FRACTION_CEILING, (
            f"recall {mean_recall:.3f} is vacuous: candidate set covers "
            f"{mean_fraction:.1%} of the corpus"
        )

    def test_cluster_structure_is_actually_present(self):
        """Guard the guard: the corpus the pin relies on has real structure."""
        vectors, labels, _ = self._corpus_and_lsh()
        normalised = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        sims = normalised @ normalised.T
        same = labels[:, None] == labels[None, :]
        off_diagonal = ~np.eye(len(vectors), dtype=bool)
        within = float(sims[same & off_diagonal].mean())
        across = float(sims[~same].mean())
        assert within > 0.9
        assert abs(across) < 0.1
