"""Query-time scoring: rank a repository of tables for a line chart query.

The scorer wraps the trained FCM model with the pieces a deployment needs:

* the visual element extractor turning a query chart into lines + y range;
* a cache of dataset-encoder outputs so each table is encoded once and only
  the (cheap) cross-modal matcher runs per (query, table) pair;
* the y-tick column filter of Sec. IV-C, applied by *selecting* the cached
  column representations whose value range overlaps the query's y range.

Inference contract
------------------
All scoring entry points run under :meth:`repro.nn.Module.inference` — the
model is switched to eval mode and no autodiff graph is built (see the
inference-mode notes in :mod:`repro.nn.tensor`).  This is safe because query
scores are never differentiated; training goes through
:class:`~repro.fcm.training.FCMTrainer`, which calls the model directly.

Two scoring paths produce identical results:

* :meth:`FCMScorer.score_chart` — the per-pair reference path, one
  differentiable matcher forward per candidate table;
* :meth:`FCMScorer.score_chart_batch` — the serving path: the cached table
  representations of the candidates are stacked (zero-padded) along a new
  candidate axis, at most ``batch_size`` per chunk, and the fused kernel of
  :mod:`repro.fcm.fastpath` scores each chunk in one call.  Padded cells
  are excluded from every max/softmax/mean, so the scores match the
  per-pair path to floating-point accuracy.

:meth:`FCMScorer.rank` and the index layer use the batched path; the per-pair
path remains the ground truth the equivalence tests compare against.

Index builds are batched the same way: :meth:`FCMScorer.index_repository`
flattens the columns of a whole chunk of tables into one zero-padded stack
and runs the dataset-encoder transformer once per chunk (with a key-padding
attention mask), instead of once per table; :meth:`FCMScorer.index_table`
remains the per-table reference path producing identical cached encodings.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..charts.rasterizer import LineChart
from ..data.repository import DataRepository
from ..data.table import Table
from ..nn import Tensor
from ..obs import get_registry, span
from ..vision.extractor import VisualElementExtractor
from .config import FCMConfig
from .fastpath import (
    CoarseCache,
    FusedMatchKernel,
    QuantizedPack,
    QuantizedTable,
    build_coarse_cache,
    build_quantized_pack,
    coarse_scores,
    pooled_vectors,
    quantize_table,
)
from .model import FCMModel
from .preprocessing import (
    ChartInput,
    TableInput,
    prepare_chart_input,
    prepare_table_input,
)


def pad_candidate_batch(
    representations: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack per-table ``(NC_i, N2_i, K)`` representations into one batch.

    Candidates are zero-padded to the largest column/segment counts in the
    batch.  Returns ``(batch, segment_mask, column_mask)`` where ``batch`` has
    shape ``(B, NC_max, N2_max, K)``, ``segment_mask`` is boolean
    ``(B, NC_max, N2_max)`` marking real segments and ``column_mask`` is
    boolean ``(B, NC_max)`` marking real columns.

    Example
    -------
    >>> batch, seg_mask, col_mask = pad_candidate_batch(
    ...     [np.ones((2, 3, 8)), np.ones((1, 2, 8))])
    >>> batch.shape, col_mask.tolist()
    ((2, 2, 3, 8), [[True, True], [True, False]])

    (For the differentiable training-path analogue over :class:`Tensor`
    inputs see :func:`repro.nn.pad_stack`.)
    """
    if not representations:
        raise ValueError("cannot build a batch from zero candidates")
    dim = representations[0].shape[-1]
    nc_max = max(rep.shape[0] for rep in representations)
    n2_max = max(rep.shape[1] for rep in representations)
    # The padded batch inherits the cached representations' dtype, so a
    # float32 model's scoring batches stay float32 end to end.
    batch = np.zeros(
        (len(representations), nc_max, n2_max, dim), dtype=representations[0].dtype
    )
    segment_mask = np.zeros((len(representations), nc_max, n2_max), dtype=bool)
    column_mask = np.zeros((len(representations), nc_max), dtype=bool)
    for i, rep in enumerate(representations):
        nc, n2, _ = rep.shape
        batch[i, :nc, :n2] = rep
        segment_mask[i, :nc, :n2] = True
        column_mask[i, :nc] = True
    return batch, segment_mask, column_mask


@dataclass
class EncodedTable:
    """Cached dataset-encoder output for one table."""

    table_id: str
    representations: np.ndarray  # (NC, N2, K)
    column_names: List[str]
    column_ranges: List[Tuple[float, float]]
    column_embeddings: np.ndarray  # (NC, K), mean over segments
    #: int8 symmetric-quantized copy of ``representations`` for the cheap
    #: pre-filter pass; ``None`` entries (e.g. tables restored from a snapshot
    #: without the q8 sidecar) are quantized lazily at pack-build time.
    quantized: Optional[QuantizedTable] = None


class FCMScorer:
    """Ranks candidate tables for line chart queries using a trained FCM."""

    #: Number of recently prepared query charts memoised by :meth:`prepare_query`.
    QUERY_CACHE_SIZE = 16

    #: Number of padded candidate batches memoised per scorer (keyed by the
    #: chunk's table-id tuple + the query's column-filter y-range); a stable
    #: repository re-pads nothing between queries.
    PAD_CACHE_SIZE = 8

    def __init__(
        self,
        model: FCMModel,
        extractor: Optional[VisualElementExtractor] = None,
    ) -> None:
        self.model = model
        self.config: FCMConfig = model.config
        self.extractor = extractor or VisualElementExtractor()
        self._encoded: Dict[str, EncodedTable] = {}
        self._kernel = FusedMatchKernel(model.matcher)
        self._pad_cache: "OrderedDict[tuple, Tuple[np.ndarray, np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        self._quant_pack: Optional[QuantizedPack] = None
        self._coarse_cache: Optional[CoarseCache] = None
        # Stream (segment-granular) registry: a *stream* table is stored as
        # an ordered family of window-segment entries in ``_encoded`` (each
        # under a composite segment id) and scored through a composed
        # parent-level EncodedTable built by concatenating the per-window
        # representations.  ``_segments`` maps parent id -> ordered segment
        # ids, ``_segment_owner`` is the reverse map, ``_composed`` caches
        # the composed entries (invalidated per-parent when a segment of
        # that parent changes — never wholesale).
        self._segments: Dict[str, List[str]] = {}
        self._segment_owner: Dict[str, str] = {}
        self._composed: Dict[str, EncodedTable] = {}
        # Per-entry pooled coarse vectors for the quantized pack: keyed by
        # scorable/segment id and invalidated per-entry, so a dirty-segment
        # refresh re-pools only what changed instead of the whole index.
        self._pooled: Dict[str, np.ndarray] = {}
        # Maps chart *content hash* -> ChartInput (see LineChart.fingerprint):
        # equal charts share an entry even when they are distinct objects,
        # and a chart mutated in place hashes to a new key, so entries can
        # never go stale.  Preprocessing is model-independent, so entries
        # stay valid while the model trains.
        self._query_cache: "OrderedDict[str, ChartInput]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Table indexing
    # ------------------------------------------------------------------ #
    def _cache_encoding(
        self, table: Table, table_input: TableInput, representations: np.ndarray
    ) -> EncodedTable:
        encoded = EncodedTable(
            table_id=table.table_id,
            representations=representations,
            column_names=table_input.column_names,
            column_ranges=[table.column(n).value_range() for n in table_input.column_names],
            column_embeddings=representations.mean(axis=1),
            quantized=quantize_table(representations),
        )
        self._encoded[table.table_id] = encoded
        self._touch_entry(table.table_id)
        self._invalidate_candidates()
        return encoded

    def index_table(self, table: Table) -> EncodedTable:
        """Encode ``table`` once and cache the result.

        This is the per-table reference path; :meth:`index_repository` fills
        the same cache with chunked padded-batch encoder calls and is what
        bulk index builds use.
        """
        if table.table_id in self._encoded:
            return self._encoded[table.table_id]
        table_input = prepare_table_input(table, self.config)
        with self.model.inference():
            representations = self.model.encode_table(table_input).numpy()
        return self._cache_encoding(table, table_input, representations)

    #: Tables encoded per stacked dataset-encoder call during a bulk index
    #: build (bounds the zero-padded batch memory).
    INDEX_BATCH_SIZE = 32

    def index_repository(
        self,
        repository: Iterable[Table],
        batch_size: Optional[int] = None,
    ) -> None:
        """Encode every table in the repository (idempotent), in batches.

        Instead of one dataset-encoder transformer call per table, tables are
        chunked (``batch_size``, default :attr:`INDEX_BATCH_SIZE`; ``None``
        uses the default, ``0`` or negative disables chunking), their columns
        flattened into one stack, zero-padded along the segment axis to the
        chunk's largest ``N2`` and encoded by a *single* masked transformer
        forward per chunk (:meth:`FCMModel.encode_table_batch`).  The cached
        encodings match :meth:`index_table`'s to floating-point accuracy —
        padded key positions are excluded from every attention softmax.

        Example
        -------
        >>> scorer = FCMScorer(model)
        >>> scorer.index_repository(repository)          # chunked batch build
        >>> scorer.rank(chart, k=5)                      # uses the same cache
        """
        pending: List[Table] = []
        seen: set = set()
        for table in repository:
            if table.table_id in self._encoded or table.table_id in seen:
                continue
            seen.add(table.table_id)
            pending.append(table)
        if not pending:
            return
        if batch_size is None:
            batch_size = self.INDEX_BATCH_SIZE
        chunk = len(pending) if batch_size <= 0 else max(1, int(batch_size))
        for start in range(0, len(pending), chunk):
            chunk_tables = pending[start : start + chunk]
            inputs = [prepare_table_input(table, self.config) for table in chunk_tables]
            with self.model.inference():
                representations = self.model.encode_table_batch(inputs)
            for table, table_input, rep in zip(chunk_tables, inputs, representations):
                # Copy: the split tensors are views into the chunk's padded
                # batch; caching views would pin the whole batch in memory.
                self._cache_encoding(table, table_input, rep.numpy().copy())

    def add_encoded(self, encoded: EncodedTable) -> None:
        """Insert a precomputed :class:`EncodedTable` into the cache.

        This is how the serving layer merges shard-worker outputs and
        restores snapshots without re-running the dataset encoder; the entry
        is indistinguishable from one produced by :meth:`index_table`.  The
        arrays may be read-only views — e.g. zero-copy slices of a
        memory-mapped v2 snapshot (:mod:`repro.serving.persistence`); every
        scoring path only reads them (candidate gathers copy via fancy
        indexing), so mapped entries behave exactly like heap copies.
        """
        self._encoded[encoded.table_id] = encoded
        self._touch_entry(encoded.table_id)
        self._invalidate_candidates()

    def evict_table(self, table_id: str) -> bool:
        """Drop the cached encoding of ``table_id`` (incremental removal)."""
        removed = self._encoded.pop(table_id, None) is not None
        if removed:
            self._touch_entry(table_id)
            self._invalidate_candidates()
        return removed

    def _invalidate_candidates(self) -> None:
        """The table set changed: padded batches and the quantized pack built
        from the previous set can no longer be reused.  Per-entry state
        (pooled coarse vectors, composed stream entries) is invalidated at
        finer grain by :meth:`_touch_entry` — a dirty segment only discards
        its own and its parent's derived state."""
        self._pad_cache.clear()
        self._quant_pack = None
        self._coarse_cache = None

    def _touch_entry(self, table_id: str) -> None:
        """Per-entry invalidation: ``table_id``'s content changed (or it was
        evicted), so its pooled coarse vectors — and, for a stream segment,
        the owning parent's composed entry and pooled vectors — are stale."""
        self._pooled.pop(table_id, None)
        owner = self._segment_owner.get(table_id)
        if owner is not None:
            self._composed.pop(owner, None)
            self._pooled.pop(owner, None)

    # ------------------------------------------------------------------ #
    # Streams: segment families composed into parent-level entries
    # ------------------------------------------------------------------ #
    def bind_stream(self, parent_id: str, segment_ids: Sequence[str]) -> None:
        """Register (or replace) the ordered segment family of a stream.

        Every segment id must already be encoded (``_encoded``); the parent
        becomes scorable through the composed entry returned by
        :meth:`encoded_table`.  Rebinding after an append drops only the
        parent's composed/pooled state — sealed segments keep theirs.
        """
        segment_ids = list(segment_ids)
        if not segment_ids:
            raise ValueError(f"stream {parent_id!r} needs at least one segment")
        missing = [s for s in segment_ids if s not in self._encoded]
        if missing:
            raise KeyError(
                f"stream {parent_id!r} references unencoded segment(s) {missing}"
            )
        for stale in self._segments.get(parent_id, ()):  # rebind: drop old owners
            self._segment_owner.pop(stale, None)
        self._segments[parent_id] = segment_ids
        for segment_id in segment_ids:
            self._segment_owner[segment_id] = parent_id
        self._composed.pop(parent_id, None)
        self._pooled.pop(parent_id, None)
        self._invalidate_candidates()

    def drop_stream(self, parent_id: str) -> List[str]:
        """Forget a stream's registry entry; returns its segment ids.

        The segment encodings themselves are *not* evicted here — callers
        evict them individually (they may be mid-replacement).
        """
        segment_ids = self._segments.pop(parent_id, [])
        for segment_id in segment_ids:
            self._segment_owner.pop(segment_id, None)
        self._composed.pop(parent_id, None)
        self._pooled.pop(parent_id, None)
        if segment_ids:
            self._invalidate_candidates()
        return list(segment_ids)

    def is_stream(self, table_id: str) -> bool:
        return table_id in self._segments

    def segment_owner(self, table_id: str) -> Optional[str]:
        """The stream parent owning segment ``table_id`` (``None`` otherwise)."""
        return self._segment_owner.get(table_id)

    def stream_segment_ids(self, parent_id: str) -> List[str]:
        return list(self._segments.get(parent_id, ()))

    def _compose_stream(self, parent_id: str) -> EncodedTable:
        """The parent-level entry of a stream: per-window representations
        concatenated along the segment axis, ranges merged element-wise.

        Deterministic in the segment contents alone, so an incrementally
        grown stream composes bit-identically to a from-scratch rebuild
        over the same rows (the streaming-parity property).
        """
        cached = self._composed.get(parent_id)
        if cached is not None:
            return cached
        parts = [self._encoded[s] for s in self._segments[parent_id]]
        names = list(parts[0].column_names)
        for part in parts[1:]:
            if list(part.column_names) != names:
                raise ValueError(
                    f"stream {parent_id!r} has segments with mismatched "
                    f"columns: {names} vs {list(part.column_names)}"
                )
        representations = np.concatenate(
            [part.representations for part in parts], axis=1
        )
        ranges: List[Tuple[float, float]] = []
        for column in range(len(names)):
            lows_highs = [part.column_ranges[column] for part in parts]
            ranges.append(
                (
                    min(float(pair[0]) for pair in lows_highs),
                    max(float(pair[1]) for pair in lows_highs),
                )
            )
        composed = EncodedTable(
            table_id=parent_id,
            representations=representations,
            column_names=names,
            column_ranges=ranges,
            column_embeddings=representations.mean(axis=1),
            quantized=quantize_table(representations),
        )
        self._composed[parent_id] = composed
        return composed

    @property
    def indexed_table_ids(self) -> List[str]:
        """The scorable ids: plain tables plus stream parents.

        Stream *segment* ids are internal — they never appear here; the
        parent id (scored through its composed entry) does.
        """
        if not self._segments:
            return list(self._encoded.keys())
        ids = [t for t in self._encoded if t not in self._segment_owner]
        ids.extend(self._segments.keys())
        return ids

    def cache_nbytes(self) -> int:
        """Total bytes of the cached encoding arrays (reps + column embeddings).

        Counts array payloads only (not Python-object overhead).  Note that
        for memory-mapped entries this is the *mapped* size, not resident
        memory: untouched pages cost address space, no RAM — which is the
        point of ``ServingConfig(mmap_index=True)``.
        """
        return sum(
            int(e.representations.nbytes) + int(e.column_embeddings.nbytes)
            for e in self._encoded.values()
        ) + sum(
            int(e.representations.nbytes) + int(e.column_embeddings.nbytes)
            for e in self._composed.values()
        )

    def encoded_table(self, table_id: str) -> EncodedTable:
        """The cached entry for ``table_id`` — composed for stream parents.

        Plain tables and stream *segments* come straight from the cache; a
        stream parent id returns the composed (concatenated) entry, built
        lazily and cached until one of its segments changes.
        """
        if table_id in self._segments:
            return self._compose_stream(table_id)
        if table_id not in self._encoded:
            raise KeyError(f"table {table_id!r} has not been indexed")
        return self._encoded[table_id]

    # ------------------------------------------------------------------ #
    # Query processing
    # ------------------------------------------------------------------ #
    def clear_query_cache(self) -> None:
        """Drop all memoised query preparations (see :meth:`prepare_query`)."""
        self._query_cache.clear()

    def prepare_query(self, chart: LineChart) -> ChartInput:
        """Extract visual elements and build the chart encoder input.

        Results are memoised per chart *content* (small LRU keyed by
        :meth:`LineChart.fingerprint <repro.charts.rasterizer.LineChart.fingerprint>`):
        a single query is prepared once even when it is scored under several
        index strategies, against several candidate batches, or arrives as a
        *different object with equal pixels* (the same table rendered twice).
        Mutating a chart in place simply hashes to a new key — no stale
        entry can be returned.
        """
        key = chart.fingerprint()
        hit = self._query_cache.get(key)
        if hit is not None:
            self._query_cache.move_to_end(key)
            return hit
        with span("prepare_query"):
            elements = self.extractor.extract(chart)
            chart_input = prepare_chart_input(chart, elements, self.config)
        self._query_cache[key] = chart_input
        while len(self._query_cache) > self.QUERY_CACHE_SIZE:
            self._query_cache.popitem(last=False)
        return chart_input

    def query_line_embeddings(self, chart: LineChart) -> np.ndarray:
        """Line-level embeddings of a query chart (for the LSH index)."""
        chart_input = self.prepare_query(chart)
        with self.model.inference():
            return self.model.line_embeddings(chart_input)

    def _select_columns(
        self, encoded: EncodedTable, y_range: Tuple[float, float]
    ) -> np.ndarray:
        """Apply the y-tick column filter to a cached table encoding."""
        low, high = y_range
        tolerance = self.config.column_filter_tolerance
        pad = tolerance * max(abs(low), abs(high), 1.0)
        keep = [
            idx
            for idx, (c_low, c_high) in enumerate(encoded.column_ranges)
            if c_high >= low - pad and c_low <= high + pad
        ]
        if not keep:
            keep = list(range(len(encoded.column_ranges)))
        return encoded.representations[keep]

    def score_chart(
        self,
        chart: LineChart,
        table_ids: Optional[Sequence[str]] = None,
    ) -> Dict[str, float]:
        """Relevance against the indexed tables, one matcher call per table.

        This is the per-pair reference path; :meth:`score_chart_batch` returns
        the same scores with one stacked matcher call and is what the ranking
        and index layers use.
        """
        chart_input = self.prepare_query(chart)
        ids = list(table_ids) if table_ids is not None else self.indexed_table_ids
        scores: Dict[str, float] = {}
        with self.model.inference():
            chart_repr = self.model.encode_chart(chart_input)
            for table_id in ids:
                encoded = self.encoded_table(table_id)
                table_repr = Tensor(
                    self._select_columns(encoded, chart_input.y_range),
                    dtype=self.config.numeric_dtype,
                )
                scores[table_id] = float(self.model.match(chart_repr, table_repr).item())
        return scores

    def score_chart_batch(
        self,
        chart: LineChart,
        table_ids: Optional[Sequence[str]] = None,
        batch_size: Optional[int] = 256,
    ) -> Dict[str, float]:
        """Relevance against the indexed tables via stacked fused-kernel calls.

        The chart is encoded once; the cached (column-filtered) table
        representations of the candidates are zero-padded into
        ``(B, NC_max, N2_max, K)`` batches and each batch is scored by one
        :meth:`FusedMatchKernel.score_batch
        <repro.fcm.fastpath.FusedMatchKernel.score_batch>` call.  Scores
        match :meth:`score_chart` to floating-point accuracy.

        Parameters
        ----------
        batch_size:
            Upper bound on candidates scored per stacked forward (bounds the
            padded batch memory); ``None`` scores all candidates in one call.

        Example
        -------
        >>> scorer.index_repository(repository)
        >>> scores = scorer.score_chart_batch(chart)       # {table_id: score}
        >>> reference = scorer.score_chart(chart)          # per-pair path
        >>> max(abs(scores[t] - reference[t]) for t in scores) < 1e-8
        True
        """
        chart_input = self.prepare_query(chart)
        ids = list(table_ids) if table_ids is not None else self.indexed_table_ids
        return self.score_encoded_batch(chart_input, ids, batch_size=batch_size)

    def _padded_batch(
        self, chunk_ids: Sequence[str], y_range: Tuple[float, float]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Column-filter + zero-pad one candidate chunk, memoised.

        Keyed by the chunk's table ids and the query's y-range (the column
        filter depends on both); any table add/evict clears the whole cache.
        Hits and misses are counted in the metrics registry under
        ``repro_pad_cache_total``.
        """
        key = (tuple(chunk_ids), (float(y_range[0]), float(y_range[1])))
        cached = self._pad_cache.get(key)
        counter = get_registry().counter(
            "repro_pad_cache_total", "padded candidate-batch cache lookups"
        )
        if cached is not None:
            self._pad_cache.move_to_end(key)
            counter.inc(result="hit")
            return cached
        counter.inc(result="miss")
        selected = [
            self._select_columns(self.encoded_table(tid), y_range)
            for tid in chunk_ids
        ]
        padded = pad_candidate_batch(selected)
        self._pad_cache[key] = padded
        while len(self._pad_cache) > self.PAD_CACHE_SIZE:
            self._pad_cache.popitem(last=False)
        return padded

    def score_encoded_batch(
        self,
        chart_input: ChartInput,
        table_ids: Sequence[str],
        batch_size: Optional[int] = 256,
    ) -> Dict[str, float]:
        """Score a *prepared* query against a shard of cached table encodings.

        The shard-local entry point of the process-parallel query engine
        (:mod:`repro.serving.workers`): the parent process extracts visual
        elements and preprocesses the chart **once** (:meth:`prepare_query`),
        then ships the resulting :class:`~repro.fcm.preprocessing.ChartInput`
        to each worker together with that worker's shard of candidate table
        ids.  Because the chart input, the cached encodings and the model
        weights are all identical to the parent's, the scores are identical
        to the single-process :meth:`score_chart_batch` path.

        Every listed table id must already be in the encoding cache
        (:meth:`index_repository` / :meth:`add_encoded`); unknown ids raise
        ``KeyError``.  ``batch_size`` caps the candidates per padded batch
        (one fused-kernel call each), which bounds the batch memory on large
        candidate sets; falsy values score every candidate in one batch.
        """
        ids = list(table_ids)
        if not ids:
            return {}
        scores: Dict[str, float] = {}
        chunk = len(ids) if not batch_size else max(1, int(batch_size))
        with self.model.inference():
            with span("encode_chart"):
                chart_repr = self.model.encode_chart(chart_input)
        chart_data = np.ascontiguousarray(chart_repr.numpy())
        with span("verify_fused", tables=len(ids)):
            for start in range(0, len(ids), chunk):
                chunk_ids = ids[start : start + chunk]
                batch, segment_mask, column_mask = self._padded_batch(
                    chunk_ids, chart_input.y_range
                )
                batch_scores = np.atleast_1d(
                    self._kernel.score_batch(
                        chart_data, batch, segment_mask, column_mask
                    )
                )
                for table_id, score in zip(chunk_ids, batch_scores):
                    scores[table_id] = float(score)
        return scores

    # ------------------------------------------------------------------ #
    # Quantized pre-filter
    # ------------------------------------------------------------------ #
    def quantized_pack(self) -> QuantizedPack:
        """The packed int8 copy of every cached encoding, built lazily.

        Tables whose :attr:`EncodedTable.quantized` is ``None`` (snapshots
        predating the q8 sidecar, worker sync payloads from older peers) are
        quantized here from their float representations.  The pack covers
        every scorable id (plain tables + composed stream parents) **and**
        every stream segment id, so the coarse pass serves both query
        pre-filtering (parents) and subscription notification on dirty
        windows (segments).  The padded pack arrays are rebuilt whenever
        the table set changes, but the per-entry pooled vectors are cached
        and only recomputed for entries whose content changed — the
        dirty-segment refresh: a tail-window append re-pools one segment
        and its parent, not the whole index.
        """
        if self._quant_pack is None:
            ids = list(self._encoded.keys())
            ids.extend(self._segments.keys())
            items = []
            pooled: List[np.ndarray] = []
            for table_id in ids:
                encoded = self.encoded_table(table_id)
                quantized = encoded.quantized
                if quantized is None:
                    quantized = quantize_table(encoded.representations)
                    encoded.quantized = quantized
                vectors = self._pooled.get(table_id)
                if vectors is None:
                    vectors = pooled_vectors(quantized)
                    self._pooled[table_id] = vectors
                items.append((table_id, quantized))
                pooled.append(vectors)
            self._quant_pack = build_quantized_pack(items, pooled=pooled)
        return self._quant_pack

    def prefilter_ids(
        self,
        chart_input: ChartInput,
        table_ids: Sequence[str],
        keep: int,
    ) -> List[str]:
        """Rank ``table_ids`` by the coarse int8 score and keep the best.

        The coarse score runs the real matcher (the fused kernel) on the
        segment-pooled quantized pack — see
        :func:`repro.fcm.fastpath.coarse_scores`.  Returns up to ``keep``
        table ids (lexicographically sorted, like the candidate sets the
        verify stage consumes); ties break on table id so the cut is
        deterministic.  When ``keep`` covers the whole candidate set this is
        the identity.
        """
        ids = list(table_ids)
        if keep >= len(ids):
            return ids
        with self.model.inference():
            chart_repr = self.model.encode_chart(chart_input)
        chart_data = np.ascontiguousarray(chart_repr.numpy())
        # The coarse pass only ranks for the overscan cut, so it runs at
        # PREFILTER_DTYPE (float32) with native-dtype accumulation even
        # under a float64 session — the exact re-score of the survivors
        # restores full precision.  The table side (dequantize + key/
        # value projections) is query-independent and served from a
        # per-pack cache, so each query pays only the chart-side
        # projections and the attention/head chain.
        pack = self.quantized_pack()
        if self._coarse_cache is None:
            self._coarse_cache = build_coarse_cache(self._kernel, pack)
        scores = coarse_scores(
            self._kernel, pack, self._coarse_cache, chart_data, ids
        )
        # Descending score, ties broken on table id, so the cut is
        # deterministic.  Partitioning first restricts the id-aware sort to
        # the survivors plus their boundary ties instead of every candidate.
        keep = max(int(keep), 0)
        if keep == 0:
            return []
        ids_arr = np.asarray(ids)
        neg = -scores
        threshold = np.partition(neg, keep - 1)[keep - 1]
        surviving = np.flatnonzero(neg <= threshold)
        order = np.lexsort((ids_arr[surviving], neg[surviving]))
        return sorted(ids_arr[surviving[order[:keep]]].tolist())

    def rank(
        self,
        chart: LineChart,
        k: Optional[int] = None,
        table_ids: Optional[Sequence[str]] = None,
    ) -> List[Tuple[str, float]]:
        """Top-``k`` (table_id, score) pairs for the query chart."""
        scores = self.score_chart_batch(chart, table_ids=table_ids)
        ranked = sorted(scores.items(), key=lambda item: item[1], reverse=True)
        return ranked if k is None else ranked[:k]

    def top_k_ids(
        self,
        chart: LineChart,
        k: int,
        table_ids: Optional[Sequence[str]] = None,
    ) -> List[str]:
        return [table_id for table_id, _ in self.rank(chart, k=k, table_ids=table_ids)]


def build_scorer_for_repository(
    model: FCMModel,
    repository: DataRepository,
    extractor: Optional[VisualElementExtractor] = None,
) -> FCMScorer:
    """Create a scorer and pre-index the whole repository."""
    scorer = FCMScorer(model, extractor=extractor)
    scorer.index_repository(repository)
    return scorer
