"""Hybrid index and query processor (Sec. VI-A).

Four query-processing strategies are compared in Table VIII:

* **no index** — score every table with FCM (linear scan);
* **interval tree** — only tables whose column ranges overlap the query's
  y-axis range are scored (never loses a true candidate);
* **LSH** — only tables whose column codes collide with a query line's code
  are scored (may lose candidates, bigger reduction);
* **hybrid** — the intersection of the two candidate sets.

The query processor measures the candidate-set sizes and wall-clock time per
query so the efficiency/effectiveness trade-off of Table VIII can be
reproduced directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..charts.rasterizer import LineChart
from ..data.table import Table
from ..fcm.scorer import FCMScorer
from ..obs import span
from .interval_tree import IntervalTree
from .lsh import LSHConfig, RandomHyperplaneLSH

INDEXING_STRATEGIES = ("none", "interval", "lsh", "hybrid")


@dataclass
class QueryResult:
    """Outcome of one indexed query."""

    ranking: List[Tuple[str, float]]
    candidates: int
    total_tables: int
    seconds: float
    #: Candidates surviving the quantized pre-filter (``None`` when the
    #: pre-filter was off or did not engage because the candidate set was
    #: already at or below the keep budget).
    prefiltered: Optional[int] = None
    #: Why the candidate set was replaced by every table: ``"empty"`` (the
    #: index strategies found nothing) or ``"short"`` (fewer than ``k``
    #: candidates in a repository of at least ``k`` tables); ``None`` when
    #: the index strategies' own candidate set was verified.
    fallback: Optional[str] = None

    @property
    def pruned_fraction(self) -> float:
        if self.total_tables == 0:
            return 0.0
        return 1.0 - self.candidates / self.total_tables

    def top_k_ids(self, k: int) -> List[str]:
        return [table_id for table_id, _ in self.ranking[:k]]


@dataclass
class IndexBuildStats:
    """Time spent building each index structure."""

    interval_seconds: float = 0.0
    lsh_seconds: float = 0.0
    num_tables: int = 0


class HybridQueryProcessor:
    """Candidate generation (interval tree + LSH) followed by FCM verification."""

    def __init__(
        self,
        scorer: FCMScorer,
        lsh_config: Optional[LSHConfig] = None,
    ) -> None:
        self.scorer = scorer
        self.lsh_config = lsh_config or LSHConfig()
        self.interval_tree = IntervalTree()
        self.lsh: Optional[RandomHyperplaneLSH] = None
        self.build_stats = IndexBuildStats()
        # ``None`` values mark tables known only through a restored snapshot
        # (their encodings are cached, the raw Table object was not saved).
        self._tables: Dict[str, Optional[Table]] = {}
        # Streaming tables: parent id -> ordered window-segment ids.  The
        # segments live in the index structures and the scorer's encoding
        # cache; the parent lives in ``_tables`` (value ``None``) so queries
        # rank parents, never raw segments.  ``stream_states`` carries the
        # append-engine bookkeeping (row counts, unsealed tail rows) owned by
        # ``repro.serving.streaming`` — kept here so persistence can snapshot
        # and restore it without an import cycle.
        self._streams: Dict[str, List[str]] = {}
        self.stream_states: Dict[str, dict] = {}

    # ------------------------------------------------------------------ #
    # Build phase
    # ------------------------------------------------------------------ #
    def index_repository(self, tables: Iterable[Table]) -> IndexBuildStats:
        """Encode every table with FCM and build both index structures.

        This is a **from-scratch (re)build**: the interval tree, the LSH and
        the table registry are replaced wholesale, so calling it again on a
        long-lived processor leaves every strategy consistent with exactly
        the tables passed (previously cached encodings stay in the scorer —
        re-indexing a known table is free).  Use :meth:`add_tables` /
        :meth:`remove_tables` for incremental maintenance.

        Table encoding runs through the scorer's chunked padded-batch path
        (:meth:`FCMScorer.index_repository`): one masked dataset-encoder
        transformer call per chunk of tables instead of one call per table,
        producing the same cached encodings the per-table path would.
        """
        tables = list(tables)
        for parent_id in list(self._streams):
            for seg_id in self.scorer.drop_stream(parent_id):
                self.scorer.evict_table(seg_id)
        self._streams = {}
        self.stream_states = {}
        self._tables = {table.table_id: table for table in tables}
        self.scorer.index_repository(tables)

        start = time.perf_counter()
        self.interval_tree = IntervalTree()
        for table in tables:
            self.interval_tree.add_table(table)
        self.interval_tree.build()
        interval_seconds = time.perf_counter() - start

        start = time.perf_counter()
        embedding_dim = self.scorer.config.embed_dim
        self.lsh = RandomHyperplaneLSH(
            embedding_dim,
            config=self.lsh_config,
            dtype=self.scorer.config.numeric_dtype,
        )
        for table in tables:
            encoded = self.scorer.encoded_table(table.table_id)
            self.lsh.add(table.table_id, encoded.column_embeddings)
        lsh_seconds = time.perf_counter() - start

        self.build_stats = IndexBuildStats(
            interval_seconds=interval_seconds,
            lsh_seconds=lsh_seconds,
            num_tables=len(self._tables),
        )
        return self.build_stats

    # ------------------------------------------------------------------ #
    # Incremental maintenance (see repro.serving.SearchService)
    # ------------------------------------------------------------------ #
    def _ensure_lsh(self) -> RandomHyperplaneLSH:
        if self.lsh is None:
            self.lsh = RandomHyperplaneLSH(
                self.scorer.config.embed_dim,
                config=self.lsh_config,
                dtype=self.scorer.config.numeric_dtype,
            )
        return self.lsh

    def add_tables(self, tables: Iterable[Table]) -> IndexBuildStats:
        """Incrementally index new tables without rebuilding anything.

        Encodings run through the same chunked batched path as a bulk build;
        the interval tree absorbs the new intervals into its pending buffer
        and the LSH gains the new codes, so subsequent queries are identical
        to a from-scratch :meth:`index_repository` over the union (a property
        ``tests/test_serving.py`` pins).  Already-indexed table ids are
        skipped.  Build timings accumulate into :attr:`build_stats`.
        """
        new_tables = [t for t in tables if t.table_id not in self._tables]
        for table in new_tables:
            self._tables[table.table_id] = table
        if not new_tables:
            self.build_stats.num_tables = len(self._tables)
            return self.build_stats
        self.scorer.index_repository(new_tables)

        start = time.perf_counter()
        for table in new_tables:
            self.interval_tree.add_table(table)
        interval_seconds = time.perf_counter() - start

        start = time.perf_counter()
        lsh = self._ensure_lsh()
        for table in new_tables:
            encoded = self.scorer.encoded_table(table.table_id)
            lsh.add(table.table_id, encoded.column_embeddings)
        lsh_seconds = time.perf_counter() - start

        self.build_stats.interval_seconds += interval_seconds
        self.build_stats.lsh_seconds += lsh_seconds
        self.build_stats.num_tables = len(self._tables)
        return self.build_stats

    def remove_tables(self, table_ids: Iterable[str]) -> int:
        """Drop tables from every structure; returns how many were removed.

        Interval-tree entries are tombstoned (reclaimed on compaction), LSH
        buckets shed the ids immediately, and the scorer's cached encodings
        are evicted so the memory actually comes back.
        """
        removed = 0
        for table_id in table_ids:
            if table_id not in self._tables:
                continue
            del self._tables[table_id]
            if table_id in self._streams:
                # A streaming table lives in the structures as its window
                # segments: drop each segment everywhere, then the family.
                for seg_id in self._streams.pop(table_id):
                    self.interval_tree.remove_table(seg_id)
                    if self.lsh is not None:
                        self.lsh.remove(seg_id)
                    self.scorer.evict_table(seg_id)
                self.scorer.drop_stream(table_id)
                self.stream_states.pop(table_id, None)
            else:
                self.interval_tree.remove_table(table_id)
                if self.lsh is not None:
                    self.lsh.remove(table_id)
                self.scorer.evict_table(table_id)
            removed += 1
        self.build_stats.num_tables = len(self._tables)
        return removed

    def register_table(self, table_id: str, table: Optional[Table] = None) -> None:
        """Track ``table_id`` as part of the repository (snapshot restore).

        The serving persistence layer registers ids whose encodings were
        loaded from disk; the raw :class:`Table` is optional because queries
        only touch the cached encodings and index structures.
        """
        self._tables[table_id] = table
        self.build_stats.num_tables = len(self._tables)

    def register_stream(
        self,
        parent_id: str,
        segment_ids: Sequence[str],
        state: Optional[dict] = None,
    ) -> None:
        """Track ``parent_id`` as a streaming table made of ``segment_ids``.

        Called by the append engine (``repro.serving.streaming``) when a
        stream is created or its segment family changes, and by the
        persistence layer when restoring a snapshot that carried streams.
        The segments must already be encoded in the scorer; the parent is
        registered as a queryable id backed by the scorer's composed entry.
        """
        self._tables[parent_id] = None
        self._streams[parent_id] = list(segment_ids)
        if state is not None:
            self.stream_states[parent_id] = state
        self.scorer.bind_stream(parent_id, segment_ids)
        self.build_stats.num_tables = len(self._tables)

    @property
    def streams(self) -> Dict[str, List[str]]:
        """Parent id -> ordered segment ids for every streaming table."""
        return {parent: list(segs) for parent, segs in self._streams.items()}

    @property
    def table_ids(self) -> List[str]:
        return list(self._tables.keys())

    @property
    def persisted_table_ids(self) -> List[str]:
        """The ids whose encodings a snapshot must carry.

        Static tables persist as themselves; a streaming table persists as
        its window segments (the parent's composed entry is derived state,
        rebuilt from the segments on load), so parents are replaced by their
        segment families here.
        """
        ids = [tid for tid in self._tables if tid not in self._streams]
        for parent in self._streams:
            ids.extend(self._streams[parent])
        return ids

    def _to_parents(self, found: Set[str]) -> Set[str]:
        """Map segment ids in a raw candidate set to their stream parents."""
        if not self._streams:
            return found
        owner = self.scorer.segment_owner
        return {owner(table_id) or table_id for table_id in found}

    # ------------------------------------------------------------------ #
    # Candidate generation
    # ------------------------------------------------------------------ #
    def _interval_candidates(self, chart_input) -> Set[str]:
        low, high = chart_input.y_range
        return self.interval_tree.query_table_ids(low, high)

    def _lsh_candidates(self, chart: LineChart) -> Set[str]:
        if self.lsh is None:
            raise RuntimeError("index_repository() must be called before querying")
        line_embeddings = self.scorer.query_line_embeddings(chart)
        return self.lsh.query(line_embeddings)

    def candidates(self, chart: LineChart, strategy: str) -> Set[str]:
        """The candidate table ids a strategy would verify with FCM."""
        if strategy not in INDEXING_STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {INDEXING_STRATEGIES}"
            )
        all_ids = set(self._tables.keys())
        if strategy == "none":
            return all_ids
        chart_input = self.scorer.prepare_query(chart)
        # Streaming tables are indexed as window segments, so raw index hits
        # are mapped segment -> parent *before* intersecting: a hit on any
        # window of a stream makes the whole stream a candidate.
        if strategy == "interval":
            with span("interval_tree") as sp:
                found = self._to_parents(self._interval_candidates(chart_input))
                found &= all_ids
                if sp is not None:
                    sp.attributes["candidates"] = len(found)
            return found
        if strategy == "lsh":
            with span("lsh_lookup") as sp:
                found = self._to_parents(self._lsh_candidates(chart)) & all_ids
                if sp is not None:
                    sp.attributes["candidates"] = len(found)
            return found
        with span("interval_tree") as sp:
            interval_set = self._to_parents(self._interval_candidates(chart_input))
            if sp is not None:
                sp.attributes["candidates"] = len(interval_set)
        with span("lsh_lookup") as sp:
            lsh_set = self._to_parents(self._lsh_candidates(chart))
            if sp is not None:
                sp.attributes["candidates"] = len(lsh_set)
        return interval_set & lsh_set & all_ids

    # ------------------------------------------------------------------ #
    # Query phase
    # ------------------------------------------------------------------ #
    def query(
        self,
        chart: LineChart,
        k: int,
        strategy: str = "hybrid",
        verifier: Optional[Callable[..., Optional[Dict[str, float]]]] = None,
        prefilter_keep: Optional[int] = None,
    ) -> QueryResult:
        """Run one top-``k`` query under the chosen indexing strategy.

        A candidate set that cannot fill the ranking falls back to verifying
        every table: an empty set (``fallback="empty"``) and, when the
        repository holds at least ``k`` tables, a non-empty set smaller than
        ``k`` (``fallback="short"``).  The reason is reported on
        :attr:`QueryResult.fallback`; :class:`~repro.serving.SearchService`
        counts it per reason.

        ``verifier`` optionally replaces the in-process verification stage:
        it is called as ``verifier(chart_input, ordered_ids)`` and must
        return ``{table_id: score}`` covering every candidate — or ``None``
        to decline, in which case verification runs in-process as usual.
        This is the hook the serving layer routes its process-level
        :class:`~repro.serving.workers.QueryWorkerPool` through (returning
        ``None`` on any pool failure, so a query is never lost to a dead
        worker).  In-process verification is bounded by the scorer's
        ``batch_size`` chunking (:meth:`FCMScorer.score_encoded_batch`).

        ``prefilter_keep`` (when set) runs the int8 quantized pre-filter
        before verification whenever more candidates than that survive the
        index strategies: only the best ``prefilter_keep`` by the cheap proxy
        score go on to exact scoring (in-process *or* worker-pool).
        """
        start = time.perf_counter()
        total_tables = len(self._tables)
        fallback: Optional[str] = None
        with span("candidates", strategy=strategy) as sp:
            candidate_ids = self.candidates(chart, strategy)
            # A filter that leaves too few candidates should degrade, not
            # crash or truncate the ranking: fall back to verifying
            # everything (still counted in the timing).
            if not candidate_ids:
                fallback = "empty"
            elif len(candidate_ids) < min(int(k), total_tables):
                fallback = "short"
            if fallback is not None:
                candidate_ids = set(self._tables.keys())
                if sp is not None:
                    sp.attributes["fallback"] = fallback
                    if fallback == "empty":
                        sp.attributes["empty_fallback"] = True
            if sp is not None:
                sp.attributes["candidates"] = len(candidate_ids)
                sp.attributes["total_tables"] = total_tables
        ordered = sorted(candidate_ids)
        prefiltered: Optional[int] = None
        if prefilter_keep is not None and 0 < prefilter_keep < len(ordered):
            with span(
                "prefilter", candidates=len(ordered), keep=int(prefilter_keep)
            ):
                ordered = self.scorer.prefilter_ids(
                    self.scorer.prepare_query(chart), ordered, int(prefilter_keep)
                )
            prefiltered = len(ordered)
        scores: Optional[Dict[str, float]] = None
        with span("verify", candidates=len(ordered)) as sp:
            if verifier is not None:
                scores = verifier(self.scorer.prepare_query(chart), ordered)
                if sp is not None:
                    sp.attributes["via_worker_pool"] = scores is not None
            if scores is None:
                scores = self.scorer.score_chart_batch(chart, table_ids=ordered)
        with span("merge", scored=len(scores)):
            ranking = sorted(scores.items(), key=lambda item: item[1], reverse=True)[
                :k
            ]
        elapsed = time.perf_counter() - start
        return QueryResult(
            ranking=ranking,
            candidates=len(candidate_ids),
            total_tables=total_tables,
            seconds=elapsed,
            prefiltered=prefiltered,
            fallback=fallback,
        )
