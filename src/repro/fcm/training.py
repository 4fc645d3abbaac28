"""FCM training: example construction, ground-truth relevance, training loop.

Training follows Sec. V-E of the paper:

* training triplets ``(V_i, D_i, T_i)`` come from the training split of the
  corpus — the chart ``V_i`` is rendered from the table ``T_i`` using its
  visualization spec, optionally through a sampled aggregation operator;
* negatives are drawn from the mini-batch with a configurable strategy
  (semi-hard by default) using the ground-truth relevance ``Rel(D, T)``,
  which is available during training because the underlying data is known;
* the objective is the class-balanced binary cross-entropy of Eq. 2,
  optimised with Adam.

Since the batched-training engine landed, each minibatch's loss is computed
in a **single stacked forward/backward**: all charts are encoded in one
chart-encoder call, every distinct table in one padded dataset-encoder call,
and the (positive + negatives) pairs are zero-padded and scored by one
:meth:`FCMModel.match_pairs` forward.  The per-pair loop survives as
:meth:`FCMTrainer._batch_loss_reference`, the ground truth the equivalence
tests compare against.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..charts.rasterizer import LineChart, render_chart_for_table
from ..charts.spec import ChartSpec
from ..data.aggregation import AggregationSpec, sample_aggregation_spec
from ..data.corpus import CorpusRecord
from ..data.table import Table, UnderlyingData
from ..nn import Adam, GradientClipper, balanced_binary_cross_entropy, pad_stack, stack
from ..obs import get_logger
from ..relevance import RelevanceComputer, relevance_cache
from ..relevance.cache import data_fingerprint, table_fingerprint
from ..vision.extractor import VisualElementExtractor
from .config import FCMConfig
from .model import FCMModel
from .preprocessing import (
    ChartInput,
    TableInput,
    prepare_chart_input,
    prepare_table_input,
    resample_series,
)
from .sampling import NEGATIVE_STRATEGIES, batch_indices, select_negatives_batch

_log = get_logger("repro.fcm.training")


# --------------------------------------------------------------------------- #
# Training examples
# --------------------------------------------------------------------------- #
@dataclass
class TrainingExample:
    """One training triplet ``(V, D, T)`` in model-ready form."""

    chart_input: ChartInput
    underlying: UnderlyingData
    table_id: str
    num_lines: int
    aggregation: Optional[AggregationSpec] = None
    chart: Optional[LineChart] = None

    @property
    def is_aggregated(self) -> bool:
        return self.aggregation is not None and not self.aggregation.is_identity


@dataclass
class TrainingData:
    """Everything the trainer needs: examples plus the candidate tables."""

    examples: List[TrainingExample]
    tables: Dict[str, Table]
    table_inputs: Dict[str, TableInput]

    @property
    def table_ids(self) -> List[str]:
        return list(self.tables.keys())


def build_training_data(
    records: Sequence[CorpusRecord],
    config: FCMConfig,
    extractor: Optional[VisualElementExtractor] = None,
    aggregated_fraction: float = 0.5,
    seed: int = 0,
    keep_charts: bool = False,
) -> TrainingData:
    """Render charts for the training records and preprocess everything.

    Parameters
    ----------
    aggregated_fraction:
        Probability that a record's chart is rendered through a sampled
        aggregation operator (the paper trains on a mixture of DA and non-DA
        charts).
    keep_charts:
        Keep the rendered :class:`LineChart` objects on the examples (useful
        for diagnostics; costs memory).
    """
    extractor = extractor or VisualElementExtractor()
    rng = np.random.default_rng(seed)
    examples: List[TrainingExample] = []
    tables: Dict[str, Table] = {}
    table_inputs: Dict[str, TableInput] = {}

    for record in records:
        if record.spec.chart_type != "line":
            continue
        table = record.table
        tables[table.table_id] = table
        table_inputs[table.table_id] = prepare_table_input(table, config)

        aggregation: Optional[AggregationSpec] = None
        if rng.random() < aggregated_fraction:
            aggregation = sample_aggregation_spec(table.num_rows, rng)
        chart = render_chart_for_table(
            table,
            list(record.spec.y_columns),
            x_column=record.spec.x_column,
            aggregation=aggregation,
            spec=config.chart_spec,
        )
        elements = extractor.extract(chart)
        if elements.num_lines == 0:
            continue
        chart_input = prepare_chart_input(chart, elements, config)
        examples.append(
            TrainingExample(
                chart_input=chart_input,
                underlying=chart.underlying,
                table_id=table.table_id,
                num_lines=chart.num_lines,
                aggregation=aggregation,
                chart=chart if keep_charts else None,
            )
        )
    if not examples:
        raise ValueError("no line-chart training examples could be constructed")
    return TrainingData(examples=examples, tables=tables, table_inputs=table_inputs)


# --------------------------------------------------------------------------- #
# Ground-truth relevance (downsampled for training-time tractability)
# --------------------------------------------------------------------------- #
def ground_truth_relevance(
    data: UnderlyingData,
    table: Table,
    max_points: int = 48,
    computer: Optional[RelevanceComputer] = None,
) -> float:
    """``Rel(D, T)`` computed on series resampled to at most ``max_points``.

    Resampling keeps the DTW-based ground truth tractable during training and
    benchmark construction; the DTW is still exact on the resampled series.

    Scores are memoised per ``(data, table, max_points, computer)`` content
    fingerprint in the process-wide :func:`repro.relevance.relevance_cache`,
    so recomputing the same pair across negative-sampling strategies or
    epochs (the dominant fixture cost of the Figure 5 experiment) is a hash
    lookup.  Disable with ``REPRO_RELEVANCE_CACHE=0`` or
    :func:`repro.relevance.set_relevance_cache_enabled`.
    """
    computer = computer or RelevanceComputer(aggregate="mean")
    cache = relevance_cache()
    key = None
    if cache.enabled:
        key = cache.key(data, table, max_points, computer.signature)
        hit = cache.get(key)
        if hit is not None:
            return hit
    from ..data.column import Column
    from ..data.table import DataSeries

    series = []
    for s in data:
        y = resample_series(s.y, min(max_points, len(s.y)))
        series.append(DataSeries(x=np.arange(len(y), dtype=np.float64), y=y, name=s.name))
    columns = [
        Column(c.name, resample_series(c.values, min(max_points, len(c))), role=c.role)
        for c in table.columns
    ]
    small_data = UnderlyingData(series=series)
    small_table = Table(table.table_id, columns)
    score = computer.score(small_data, small_table)
    if key is not None:
        cache.put(key, score)
    return score


#: Per-process state for the parallel cold relevance pass: set once by the
#: pool initializer so the (potentially large) series/tables cross the
#: process boundary a single time rather than once per task.
_RELEVANCE_WORKER_STATE: Optional[Tuple[List[UnderlyingData], List[Table], int]] = None


def _init_relevance_worker(
    underlyings: List[UnderlyingData], tables: List[Table], max_points: int
) -> None:
    global _RELEVANCE_WORKER_STATE
    _RELEVANCE_WORKER_STATE = (underlyings, tables, max_points)


def _relevance_rows(row_indices: List[int]) -> Tuple[List[int], np.ndarray]:
    """Compute the relevance-matrix rows for ``row_indices`` in a worker."""
    if _RELEVANCE_WORKER_STATE is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("relevance worker used before initialisation")
    underlyings, tables, max_points = _RELEVANCE_WORKER_STATE
    computer = RelevanceComputer(aggregate="mean")
    rows = np.zeros((len(row_indices), len(tables)))
    for r, i in enumerate(row_indices):
        for j, table in enumerate(tables):
            rows[r, j] = ground_truth_relevance(
                underlyings[i], table, max_points=max_points, computer=computer
            )
    return row_indices, rows


def relevance_matrix(
    examples: Sequence[TrainingExample],
    tables: Dict[str, Table],
    max_points: int = 48,
    num_workers: int = 1,
    timeout: Optional[float] = None,
) -> Tuple[np.ndarray, List[str]]:
    """Ground-truth relevance of every example against every table.

    Returns the matrix (``num_examples x num_tables``) and the table-id order
    of its columns.

    The **cold** pass is the dominant fixture cost of training — O(examples
    x tables) DTW sweeps.  With ``num_workers > 1`` the example rows are
    fanned across a process pool (same pattern as
    :mod:`repro.serving.sharding`: pool-lifetime initializer, graceful
    in-process fallback on any pool failure, optional ``timeout``); each
    entry is a deterministic function of the data contents, so the parallel
    matrix is identical to the serial one.  Worker results are written back
    into the process-wide relevance memo, and a fully-warm call is served
    from the memo *without spawning a pool at all* — so recomputation across
    negative-sampling strategies stays a pure cache hit exactly as in the
    serial path.
    """
    table_ids = list(tables.keys())
    computer = RelevanceComputer(aggregate="mean")
    if num_workers > 1 and len(examples) > 1 and table_ids:
        cache = relevance_cache()
        keys = None
        if cache.enabled:
            # A warm pass must stay a pure cache hit (no pool spawn, no
            # pickling the corpus into workers): probe the memo first and
            # only fan out when something is actually missing.  Fingerprints
            # are hashed once per example/table (O(E+T)), not per pair.
            data_fps = [data_fingerprint(example.underlying) for example in examples]
            table_fps = [table_fingerprint(tables[tid]) for tid in table_ids]
            keys = [
                [
                    cache.key_from_fingerprints(
                        data_fp, table_fp, max_points, computer.signature
                    )
                    for table_fp in table_fps
                ]
                for data_fp in data_fps
            ]
            cached = [[cache.get(key) for key in row] for row in keys]
            if all(value is not None for row in cached for value in row):
                return np.asarray(cached, dtype=np.float64), table_ids
        matrix = _relevance_matrix_sharded(
            examples, [tables[tid] for tid in table_ids], max_points,
            num_workers=num_workers, timeout=timeout,
        )
        if matrix is not None:
            if keys is not None:
                for i, row in enumerate(keys):
                    for j, key in enumerate(row):
                        cache.put(key, float(matrix[i, j]))
            return matrix, table_ids
    matrix = np.zeros((len(examples), len(table_ids)))
    for i, example in enumerate(examples):
        for j, table_id in enumerate(table_ids):
            matrix[i, j] = ground_truth_relevance(
                example.underlying, tables[table_id], max_points=max_points, computer=computer
            )
    return matrix, table_ids


def _relevance_matrix_sharded(
    examples: Sequence[TrainingExample],
    tables: List[Table],
    max_points: int,
    num_workers: int,
    timeout: Optional[float] = None,
) -> Optional[np.ndarray]:
    """Row-sharded relevance matrix; ``None`` signals in-process fallback."""
    num_workers = max(1, min(int(num_workers), len(examples)))
    if num_workers <= 1:
        return None
    row_shards = [
        [int(i) for i in shard]
        for shard in np.array_split(np.arange(len(examples)), num_workers)
        if len(shard)
    ]
    underlyings = [example.underlying for example in examples]
    start = time.perf_counter()
    pool: Optional[ProcessPoolExecutor] = None
    try:
        context = multiprocessing.get_context()
        pool = ProcessPoolExecutor(
            max_workers=len(row_shards),
            mp_context=context,
            initializer=_init_relevance_worker,
            initargs=(underlyings, tables, max_points),
        )
        futures = [pool.submit(_relevance_rows, shard) for shard in row_shards]
        deadline = None if timeout is None else start + timeout
        matrix = np.zeros((len(examples), len(tables)))
        for future in futures:
            remaining = None if deadline is None else max(0.0, deadline - time.perf_counter())
            row_indices, rows = future.result(timeout=remaining)
            matrix[row_indices] = rows
        pool.shutdown(wait=True)
        return matrix
    except Exception as exc:  # degrade to the serial pass, never fail training
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        warnings.warn(
            "parallel relevance pass fell back to the serial in-process sweep: "
            f"{type(exc).__name__}: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


# --------------------------------------------------------------------------- #
# Trainer
# --------------------------------------------------------------------------- #
@dataclass
class TrainerConfig:
    """Optimisation hyper-parameters (Sec. VII-B, scaled)."""

    epochs: int = 10
    batch_size: int = 8
    learning_rate: float = 1e-3
    num_negatives: int = 3
    strategy: str = "semi-hard"
    grad_clip: Optional[float] = 5.0
    seed: int = 0
    relevance_max_points: int = 48
    #: Worker processes for the cold ground-truth relevance pass (the first
    #: O(examples x tables) DTW sweep); ``<= 1`` computes it in-process.
    #: Results are identical either way — see :func:`relevance_matrix`.
    relevance_workers: int = 1

    def __post_init__(self) -> None:
        if self.strategy not in NEGATIVE_STRATEGIES:
            raise ValueError(
                f"unknown negative-sampling strategy {self.strategy!r}; "
                f"expected one of {NEGATIVE_STRATEGIES}"
            )
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.num_negatives < 1:
            raise ValueError("num_negatives (N-) must be >= 1")


@dataclass
class EpochStats:
    """Per-epoch training statistics."""

    epoch: int
    loss: float
    seconds: float
    eval_metric: Optional[float] = None


@dataclass
class TrainingHistory:
    """The full training trace of one model."""

    epochs: List[EpochStats] = field(default_factory=list)

    @property
    def losses(self) -> List[float]:
        return [e.loss for e in self.epochs]

    @property
    def eval_metrics(self) -> List[Optional[float]]:
        return [e.eval_metric for e in self.epochs]

    @property
    def final_loss(self) -> float:
        if not self.epochs:
            raise ValueError("no epochs recorded")
        return self.epochs[-1].loss


class FCMTrainer:
    """Trains an :class:`FCMModel` on prepared :class:`TrainingData`."""

    def __init__(
        self,
        model: FCMModel,
        trainer_config: Optional[TrainerConfig] = None,
    ) -> None:
        self.model = model
        self.config = trainer_config or TrainerConfig()
        self._clipper = (
            GradientClipper(self.config.grad_clip) if self.config.grad_clip else None
        )

    def train(
        self,
        data: TrainingData,
        relevance: Optional[np.ndarray] = None,
        table_order: Optional[List[str]] = None,
        eval_fn: Optional[Callable[[FCMModel], float]] = None,
    ) -> TrainingHistory:
        """Run the training loop.

        Parameters
        ----------
        data:
            Output of :func:`build_training_data`.
        relevance, table_order:
            Optional precomputed ground-truth relevance matrix (and its
            column order).  Computed on demand otherwise — precomputing and
            reusing it across strategies is how the Figure 5 experiment keeps
            its cost linear in the number of strategies.
        eval_fn:
            Optional callback evaluated after every epoch (e.g. validation
            prec@k); its value is recorded in the history.
        """
        if relevance is None or table_order is None:
            relevance, table_order = relevance_matrix(
                data.examples,
                data.tables,
                max_points=self.config.relevance_max_points,
                num_workers=self.config.relevance_workers,
            )
        table_index = {table_id: j for j, table_id in enumerate(table_order)}

        optimizer = Adam(self.model.parameters(), lr=self.config.learning_rate)
        rng = np.random.default_rng(self.config.seed)
        history = TrainingHistory()

        self.model.train()
        for epoch in range(self.config.epochs):
            start = time.perf_counter()
            epoch_losses: List[float] = []
            for batch in batch_indices(len(data.examples), self.config.batch_size, rng):
                batch_table_ids = sorted({data.examples[i].table_id for i in batch})
                loss = self._batch_loss(
                    [int(i) for i in batch], batch_table_ids, data, relevance, table_index, rng
                )
                if loss is None:
                    continue
                optimizer.zero_grad()
                loss.backward()
                if self._clipper is not None:
                    self._clipper.clip(self.model.parameters())
                optimizer.step()
                epoch_losses.append(loss.item())
            elapsed = time.perf_counter() - start
            metric = None
            if eval_fn is not None:
                self.model.eval()
                metric = float(eval_fn(self.model))
                self.model.train()
            stats = EpochStats(
                epoch=epoch,
                loss=float(np.mean(epoch_losses)) if epoch_losses else float("nan"),
                seconds=elapsed,
                eval_metric=metric,
            )
            history.epochs.append(stats)
            _log.info(
                "epoch_finished",
                epoch=stats.epoch,
                total_epochs=self.config.epochs,
                loss=stats.loss,
                seconds=stats.seconds,
                eval_metric=stats.eval_metric,
                batches=len(epoch_losses),
            )
        self.model.eval()
        return history

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _select_batch_negatives(
        self,
        batch_example_indices: Sequence[int],
        batch_table_ids: List[str],
        data: TrainingData,
        relevance: np.ndarray,
        table_index: Dict[str, int],
        rng: np.random.Generator,
    ) -> List[List[int]]:
        """Negative positions (into ``batch_table_ids``) for every example.

        Shared by both loss paths so they draw *identical* negatives from the
        same generator state.
        """
        rows = [
            relevance[example_index, [table_index[t] for t in batch_table_ids]]
            for example_index in batch_example_indices
        ]
        positives = [
            batch_table_ids.index(data.examples[example_index].table_id)
            for example_index in batch_example_indices
        ]
        return select_negatives_batch(
            rows,
            positives,
            self.config.num_negatives,
            strategy=self.config.strategy,
            rng=rng,
        )

    def _batch_loss(
        self,
        batch_example_indices: Sequence[int],
        batch_table_ids: List[str],
        data: TrainingData,
        relevance: np.ndarray,
        table_index: Dict[str, int],
        rng: np.random.Generator,
    ):
        """Contrastive loss of one minibatch in a single stacked forward.

        The batched training path (the per-pair loop it replaces survives as
        :meth:`_batch_loss_reference`):

        1. every chart in the batch is encoded through *one* stacked
           chart-encoder call, every **distinct** table through *one* padded
           dataset-encoder call — the reference path re-encodes the same
           table for every pair that touches it;
        2. each example's chart representation is paired with its positive
           and each sampled negative; the ragged pair list is zero-padded and
           stacked (:func:`repro.nn.pad_stack`, differentiable) into
           ``(P, M, N1, K)`` / ``(P, NC, N2, K)`` batches;
        3. one :meth:`FCMModel.match_pairs` forward scores all ``P`` pairs,
           and the class-balanced BCE of Eq. 2 over those scores is the
           single tensor the caller backpropagates through.

        Loss and parameter gradients match the reference within
        floating-point accuracy (``tests/test_batched_training.py`` pins
        1e-6); only with ``dropout > 0`` do the paths diverge, because each
        forward samples its own dropout masks.
        """
        negatives = self._select_batch_negatives(
            batch_example_indices, batch_table_ids, data, relevance, table_index, rng
        )
        pair_slots: List[int] = []  # index into the batch's chart list, per pair
        pair_table_ids: List[str] = []
        labels: List[float] = []
        for slot, example_index in enumerate(batch_example_indices):
            example = data.examples[example_index]
            pair_slots.append(slot)
            pair_table_ids.append(example.table_id)
            labels.append(1.0)
            for pos in negatives[slot]:
                pair_slots.append(slot)
                pair_table_ids.append(batch_table_ids[pos])
                labels.append(0.0)
        if not pair_table_ids:
            return None

        chart_reprs = self.model.encode_chart_batch(
            [data.examples[i].chart_input for i in batch_example_indices]
        )
        distinct_ids = list(dict.fromkeys(pair_table_ids))
        table_reprs = dict(
            zip(
                distinct_ids,
                self.model.encode_table_batch(
                    [data.table_inputs[table_id] for table_id in distinct_ids]
                ),
            )
        )

        chart_batch, chart_mask = pad_stack([chart_reprs[slot] for slot in pair_slots])
        table_batch, table_mask = pad_stack(
            [table_reprs[table_id] for table_id in pair_table_ids]
        )
        predictions = self.model.match_pairs(
            chart_batch, table_batch, chart_mask[..., 0], table_mask[..., 0]
        )
        return balanced_binary_cross_entropy(
            predictions.reshape(-1), np.asarray(labels)
        )

    def _batch_loss_reference(
        self,
        batch_example_indices: Sequence[int],
        batch_table_ids: List[str],
        data: TrainingData,
        relevance: np.ndarray,
        table_index: Dict[str, int],
        rng: np.random.Generator,
    ):
        """Per-pair reference path: one matcher forward per (chart, table).

        Kept as the ground truth the batched-vs-reference equivalence tests
        compare against (see :meth:`_batch_loss`).
        """
        negatives = self._select_batch_negatives(
            batch_example_indices, batch_table_ids, data, relevance, table_index, rng
        )
        predictions = []
        labels: List[float] = []
        for slot, example_index in enumerate(batch_example_indices):
            example = data.examples[example_index]
            chart_repr = self.model.encode_chart(example.chart_input)

            positive_input = data.table_inputs[example.table_id]
            predictions.append(self.model.match(chart_repr, self.model.encode_table(positive_input)))
            labels.append(1.0)

            for pos in negatives[slot]:
                negative_input = data.table_inputs[batch_table_ids[pos]]
                predictions.append(
                    self.model.match(chart_repr, self.model.encode_table(negative_input))
                )
                labels.append(0.0)
        if not predictions:
            return None
        stacked = stack([p.reshape(1) for p in predictions], axis=0).reshape(-1)
        return balanced_binary_cross_entropy(stacked, np.asarray(labels))


def train_fcm(
    records: Sequence[CorpusRecord],
    config: Optional[FCMConfig] = None,
    trainer_config: Optional[TrainerConfig] = None,
    extractor: Optional[VisualElementExtractor] = None,
    aggregated_fraction: float = 0.5,
    eval_fn: Optional[Callable[[FCMModel], float]] = None,
) -> Tuple[FCMModel, TrainingHistory, TrainingData]:
    """End-to-end convenience: build data, create the model, train it."""
    config = config or FCMConfig()
    model = FCMModel(config)
    data = build_training_data(
        records,
        config,
        extractor=extractor,
        aggregated_fraction=aggregated_fraction,
        seed=(trainer_config.seed if trainer_config else 0),
    )
    trainer = FCMTrainer(model, trainer_config)
    history = trainer.train(data, eval_fn=eval_fn)
    return model, history, data
