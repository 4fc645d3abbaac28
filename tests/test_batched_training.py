"""Equivalence and perf harness for the batched training + index-build engine.

Three contracts are pinned down here, mirroring ``test_batched_inference.py``
on the gradient side of the house:

* **batched loss == per-pair loss** — ``FCMTrainer._batch_loss`` (one stacked
  forward over every (chart, table) pair of a minibatch) must reproduce the
  per-pair reference loop's loss *and every parameter gradient* within 1e-6,
  across matcher/DA variants and negative-sampling strategies;
* **chunked index build == per-table index build** —
  ``FCMScorer.index_repository`` (one padded dataset-encoder call per chunk)
  must produce the same cached encodings, LSH entries and query results as
  ``index_table`` called per table;
* **batched training is actually faster** — a 50-example synthetic training
  set asserts the advertised ≥2× epoch speed-up (skippable on constrained
  machines via ``REPRO_SKIP_PERF_TESTS=1``).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.charts import ChartSpec, render_chart_for_table
from repro.data import Column, CorpusConfig, Table, filter_line_chart_records, generate_corpus
from repro.fcm import (
    FCMConfig,
    FCMModel,
    FCMScorer,
    FCMTrainer,
    TrainerConfig,
    build_training_data,
    relevance_matrix,
)
from repro.index import HybridQueryProcessor
from repro.nn import Adam, Tensor, pad, pad_stack

from conftest import dtype_tol

VARIANTS = {
    "hcman+da": dict(use_hcman=True, enable_da_layers=True),
    "hcman-only": dict(use_hcman=True, enable_da_layers=False),
    "averaged": dict(use_hcman=False, enable_da_layers=True),
}


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
    """Small synthetic tables with varying column counts/lengths."""
    rng = np.random.default_rng(seed)
    tables = []
    for i in range(num_tables):
        n = int(rng.integers(60, 400))
        columns = [Column("x", np.arange(n, dtype=float), role="x")]
        for c in range(int(rng.integers(1, 5))):
            offset = float(rng.standard_normal()) * 4.0
            columns.append(
                Column(f"y{c}", offset + np.cumsum(rng.standard_normal(n)), role="y")
            )
        tables.append(Table(f"tbl{i:03d}", columns))
    return tables


# --------------------------------------------------------------------------- #
# nn-level padding primitives
# --------------------------------------------------------------------------- #
class TestPadPrimitives:
    def test_pad_values_and_shape(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        out = pad(t, [(0, 1), (1, 2)])
        assert out.shape == (3, 6)
        np.testing.assert_array_equal(out.numpy()[:2, 1:4], t.numpy())
        assert out.numpy().sum() == t.numpy().sum()

    def test_pad_noop_returns_input(self):
        t = Tensor(np.ones((2, 2)))
        assert pad(t, [(0, 0), (0, 0)]) is t

    def test_pad_validation(self):
        t = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            pad(t, [(0, 1)])  # rank mismatch
        with pytest.raises(ValueError):
            pad(t, [(0, -1), (0, 0)])  # negative width

    def test_pad_gradient_slices_back(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        out = pad(t, [(0, 2), (1, 0)])
        (out * Tensor(np.arange(float(out.size)).reshape(out.shape))).sum().backward()
        expected = np.arange(16.0).reshape(4, 4)[:2, 1:]
        np.testing.assert_allclose(t.grad, expected)

    def test_pad_stack_masks(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.full((1, 5), 2.0))
        batch, mask = pad_stack([a, b])
        assert batch.shape == (2, 2, 5)
        assert mask.shape == (2, 2, 5)
        assert mask[0].sum() == 6 and mask[1].sum() == 5
        np.testing.assert_array_equal(batch.numpy()[~mask], 0.0)
        with pytest.raises(ValueError):
            pad_stack([])
        with pytest.raises(ValueError):
            pad_stack([a, Tensor(np.ones(3))])  # rank mismatch

    def test_pad_stack_accumulates_repeated_tensor_gradients(self):
        """A tensor appearing in several pairs receives the summed gradient."""
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        batch, _ = pad_stack([t, t, t])
        (batch * 2.0).sum().backward()
        np.testing.assert_allclose(t.grad, np.full((2, 2), 6.0))


# --------------------------------------------------------------------------- #
# Batched encoder calls == per-item calls
# --------------------------------------------------------------------------- #
class TestBatchedEncoders:
    @pytest.mark.parametrize("enable_da", [True, False])
    def test_dataset_forward_many_matches_per_table(self, enable_da):
        model = FCMModel(_tiny_config(enable_da_layers=enable_da))
        model.eval()
        rng = np.random.default_rng(5)
        # Ragged (NC, N2) blocks around the config's segment geometry.
        blocks = [
            rng.standard_normal((nc, n2, 32))
            for nc, n2 in [(1, 1), (3, 2), (2, 4), (4, 3)]
        ]
        batched = model.dataset_encoder.forward_many(blocks)
        for block, out in zip(blocks, batched):
            expected = model.dataset_encoder(block)
            assert out.shape == expected.shape
            np.testing.assert_allclose(
                out.numpy(), expected.numpy(), atol=dtype_tol(1e-10, 1e-5)
            )

    def test_chart_forward_many_matches_per_chart(self):
        config = _tiny_config()
        model = FCMModel(config)
        model.eval()
        rng = np.random.default_rng(6)
        f1 = config.chart_segment_feature_dim
        n1 = config.num_chart_segments
        charts = [rng.standard_normal((m, n1, f1)) for m in (1, 3, 2)]
        batched = model.chart_encoder.forward_many(charts)
        for features, out in zip(charts, batched):
            np.testing.assert_allclose(
                out.numpy(),
                model.chart_encoder(features).numpy(),
                atol=dtype_tol(1e-10, 1e-5),
            )

    def test_forward_many_validation(self):
        model = FCMModel(_tiny_config())
        with pytest.raises(ValueError):
            model.dataset_encoder.forward_many([])
        with pytest.raises(ValueError):
            model.dataset_encoder.forward_many([np.zeros((0, 2, 32))])
        with pytest.raises(ValueError):
            model.chart_encoder.forward_many(
                [np.zeros((1, 4, 8)), np.zeros((1, 5, 8))]  # mismatched N1
            )


# --------------------------------------------------------------------------- #
# Batched training loss == per-pair reference
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def training_setup():
    """Prepared training data + ground-truth relevance for a 4-example batch."""
    config = _tiny_config()
    records = filter_line_chart_records(
        generate_corpus(CorpusConfig(num_records=6, min_rows=60, max_rows=150, seed=3))
    )
    data = build_training_data(records[:4], config, aggregated_fraction=0.5, seed=0)
    relevance, order = relevance_matrix(data.examples, data.tables, max_points=24)
    table_index = {table_id: j for j, table_id in enumerate(order)}
    return data, relevance, table_index


def _losses_and_grads(model, trainer, data, relevance, table_index, batched, seed=0):
    batch = list(range(len(data.examples)))
    table_ids = sorted({example.table_id for example in data.examples})
    model.train()
    loss_fn = trainer._batch_loss if batched else trainer._batch_loss_reference
    loss = loss_fn(batch, table_ids, data, relevance, table_index, np.random.default_rng(seed))
    model.zero_grad()
    loss.backward()
    grads = {
        name: (None if p.grad is None else p.grad.copy())
        for name, p in model.named_parameters()
    }
    return float(loss.item()), grads


class TestBatchedTrainingEquivalence:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("strategy", ["semi-hard", "random"])
    def test_loss_and_gradients_match_reference(self, training_setup, variant, strategy):
        data, relevance, table_index = training_setup
        model = FCMModel(_tiny_config(**VARIANTS[variant]))
        trainer = FCMTrainer(
            model, TrainerConfig(epochs=1, batch_size=8, num_negatives=2, strategy=strategy)
        )
        ref_loss, ref_grads = _losses_and_grads(
            model, trainer, data, relevance, table_index, batched=False
        )
        bat_loss, bat_grads = _losses_and_grads(
            model, trainer, data, relevance, table_index, batched=True
        )
        assert bat_loss == pytest.approx(ref_loss, abs=dtype_tol(1e-6, 1e-4))
        assert set(ref_grads) == set(bat_grads)
        for name in ref_grads:
            ref, bat = ref_grads[name], bat_grads[name]
            assert (ref is None) == (bat is None), name
            if ref is not None:
                np.testing.assert_allclose(
                    bat,
                    ref,
                    atol=dtype_tol(1e-6, 1e-3),
                    rtol=dtype_tol(1e-6, 1e-2),
                    err_msg=name,
                )

    def test_one_optimizer_step_matches_reference(self, training_setup):
        """One Adam step from identical weights lands on identical parameters."""
        data, relevance, table_index = training_setup
        batch = list(range(len(data.examples)))
        table_ids = sorted({example.table_id for example in data.examples})

        results = []
        for batched in (False, True):
            model = FCMModel(_tiny_config())
            trainer = FCMTrainer(model, TrainerConfig(epochs=1, batch_size=8, num_negatives=2))
            optimizer = Adam(model.parameters(), lr=1e-3)
            model.train()
            loss_fn = trainer._batch_loss if batched else trainer._batch_loss_reference
            loss = loss_fn(
                batch, table_ids, data, relevance, table_index, np.random.default_rng(0)
            )
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            results.append(model.state_dict())
        reference, batched_state = results
        for name in reference:
            np.testing.assert_allclose(
                batched_state[name],
                reference[name],
                atol=dtype_tol(1e-8, 2e-3),
                err_msg=name,
            )

    @pytest.mark.slow
    def test_train_runs_with_either_path(self, training_setup):
        data, relevance, table_index = training_setup
        order = sorted(table_index, key=table_index.get)
        for batched in (True, False):
            model = FCMModel(_tiny_config())
            trainer = FCMTrainer(
                model, TrainerConfig(epochs=1, batch_size=4, num_negatives=1)
            )
            if not batched:
                trainer._batch_loss = trainer._batch_loss_reference
            history = trainer.train(data, relevance=relevance, table_order=order)
            assert len(history.epochs) == 1
            assert np.isfinite(history.final_loss)


# --------------------------------------------------------------------------- #
# Chunked index build == per-table index build
# --------------------------------------------------------------------------- #
class TestBatchedIndexBuild:
    @pytest.fixture(scope="class")
    def repository(self):
        return _make_repository(12)

    @pytest.fixture(scope="class")
    def model(self):
        return FCMModel(_tiny_config())

    @pytest.fixture(scope="class")
    def per_table_scorer(self, model, repository):
        scorer = FCMScorer(model)
        for table in repository:
            scorer.index_table(table)
        return scorer

    @pytest.mark.parametrize("batch_size", [1, 4, None, 0])
    def test_cached_encodings_identical(self, model, repository, per_table_scorer, batch_size):
        scorer = FCMScorer(model)
        scorer.index_repository(repository, batch_size=batch_size)
        assert scorer.indexed_table_ids == per_table_scorer.indexed_table_ids
        for table in repository:
            batched = scorer.encoded_table(table.table_id)
            reference = per_table_scorer.encoded_table(table.table_id)
            assert batched.column_names == reference.column_names
            assert batched.column_ranges == reference.column_ranges
            np.testing.assert_allclose(
                batched.representations,
                reference.representations,
                atol=dtype_tol(1e-12, 1e-5),
            )
            np.testing.assert_allclose(
                batched.column_embeddings,
                reference.column_embeddings,
                atol=dtype_tol(1e-12, 1e-5),
            )

    def test_index_repository_is_idempotent_and_mixes_with_index_table(
        self, model, repository
    ):
        scorer = FCMScorer(model)
        scorer.index_table(repository[0])
        scorer.index_repository(repository)
        assert len(scorer.indexed_table_ids) == len(repository)
        before = scorer.encoded_table(repository[3].table_id).representations.copy()
        scorer.index_repository(repository)  # no-op second pass
        np.testing.assert_array_equal(
            scorer.encoded_table(repository[3].table_id).representations, before
        )
        # Duplicate tables inside one call are encoded once.
        scorer2 = FCMScorer(model)
        scorer2.index_repository(list(repository) + list(repository))
        assert len(scorer2.indexed_table_ids) == len(repository)

    def test_hybrid_index_queries_match_per_table_build(
        self, model, repository, per_table_scorer
    ):
        """LSH entries and query results agree between the two build paths."""
        reference = HybridQueryProcessor(per_table_scorer)
        reference.index_repository(repository)
        batched = HybridQueryProcessor(FCMScorer(model))
        batched.index_repository(repository)

        table = repository[0]
        chart = render_chart_for_table(
            table,
            [c.name for c in table.columns if c.role == "y"][:2],
            x_column="x",
            spec=ChartSpec(),
        )
        for strategy in ("interval", "lsh", "hybrid"):
            assert batched.candidates(chart, strategy) == reference.candidates(
                chart, strategy
            ), strategy
        ref_ranking = reference.query(chart, k=5, strategy="hybrid").ranking
        bat_ranking = batched.query(chart, k=5, strategy="hybrid").ranking
        assert [tid for tid, _ in bat_ranking] == [tid for tid, _ in ref_ranking]
        for (_, ref_score), (_, bat_score) in zip(ref_ranking, bat_ranking):
            assert bat_score == pytest.approx(ref_score, abs=dtype_tol(1e-10, 5e-5))


# --------------------------------------------------------------------------- #
# Perf regression: the batched trainer must beat the per-pair loop
# --------------------------------------------------------------------------- #
@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_TESTS") == "1",
    reason="perf regression thresholds disabled via REPRO_SKIP_PERF_TESTS=1 "
    "(constrained or heavily-loaded machine)",
)
class TestBatchedTrainingPerf:
    def test_batched_epoch_is_at_least_2x_faster_on_50_examples(self):
        config = _tiny_config()
        records = filter_line_chart_records(
            generate_corpus(
                CorpusConfig(num_records=60, min_rows=60, max_rows=200, seed=7)
            )
        )
        data = build_training_data(records[:50], config, aggregated_fraction=0.5, seed=0)
        assert len(data.examples) == 50
        # A synthetic relevance matrix keeps the fixture cost out of the
        # timing: negative *selection* only needs a ranking per row, and both
        # paths draw from the same matrix, so the comparison is unaffected.
        order = data.table_ids
        relevance = np.random.default_rng(0).random((len(data.examples), len(order)))

        def epoch_seconds(batched: bool):
            model = FCMModel(config)
            trainer = FCMTrainer(
                model, TrainerConfig(epochs=1, batch_size=8, num_negatives=3)
            )
            if not batched:
                trainer._batch_loss = trainer._batch_loss_reference
            start = time.perf_counter()
            history = trainer.train(data, relevance=relevance, table_order=order)
            return time.perf_counter() - start, history.final_loss

        reference_seconds, reference_loss = epoch_seconds(False)
        batched_seconds, batched_loss = epoch_seconds(True)
        assert batched_loss == pytest.approx(reference_loss, abs=1e-6)
        speedup = reference_seconds / batched_seconds
        assert speedup >= 2.0, (
            f"batched training only {speedup:.2f}x faster "
            f"({reference_seconds:.2f}s vs {batched_seconds:.2f}s per epoch)"
        )
