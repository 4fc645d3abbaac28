"""Inference-only fused kernels and the int8 quantized pre-filter.

Two independent speed layers for query-time scoring:

* **Fused kernels** (:class:`FusedMatchKernel`) — the matcher's inference
  forward for one chart against a padded candidate batch, the only one the
  scorer runs.  The SL-SAN → LL-SAN → interaction-head chain is written as
  plain ``np.matmul(..., out=)`` calls over a per-scorer scratch-buffer
  pool (:class:`ScratchPool`): no :class:`~repro.nn.Tensor` objects, no
  autograd graph, and the large per-op temporaries (key projections,
  similarity matrices, value projections, weighted products) are written
  into preallocated arenas instead of fresh allocations.  Every operation
  reproduces the exact NumPy expression the Tensor op would have run —
  including the float64 accumulation in ``sum``/``softmax`` denominators and
  the scalar-lifting dtype rules — so fused scores are bit-identical to the
  differentiable :meth:`HCMANMatcher.forward_pairs` (chart repeated per
  pair) in float64 and agree to normal rounding noise in float32; the tests
  keep ``forward_pairs`` as the oracle.

* **Quantized pre-filter** (:func:`quantize_table`,
  :func:`build_quantized_pack`, :func:`coarse_scores`) — an int8
  symmetric-quantized copy of the cached table encodings with one scale
  factor per table (``x ≈ codes · scale``, ``scale = max|x| / 127``).  At
  pack-build time each table is dequantized, groups of
  :data:`PREFILTER_POOL` consecutive segment rows are mean-pooled, and the
  pooled vectors are re-quantized into one padded int8 batch.  The
  pre-filter then scores every candidate with the **real matcher** (the
  fused kernel) on that ``pool``-times-smaller input and keeps only the
  ``top-(k · overscan)`` candidates for exact float re-scoring.  Because the
  coarse score passes through the same attention and MLP nonlinearities as
  the exact one, its ranking tracks the exact ranking closely — a raw
  dot-product proxy does not (the matcher's output is not monotone in
  representation similarity).  The coarse score never replaces the exact
  one: the final ranking is always produced by the full matcher on the kept
  set, so parity is a recall property (pinned by tests on the trained
  fixture) rather than a numerical one.

The module deliberately has no dependency on the scorer or serving layers;
it consumes raw ``np.ndarray`` encodings plus live parameter references from
the matcher modules (weights are read at call time, so training steps or
``load_state_dict`` are picked up without invalidation).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .matcher import AveragedMatcher, HCMANMatcher

__all__ = [
    "ScratchPool",
    "FusedMatchKernel",
    "QuantizedTable",
    "QuantizedPack",
    "PREFILTER_DTYPE",
    "PREFILTER_POOL",
    "quantize_table",
    "pooled_vectors",
    "build_quantized_pack",
    "CoarseCache",
    "build_coarse_cache",
    "coarse_scores",
]


class ScratchPool:
    """Per-scorer pool of reusable scratch arenas.

    One flat arena per ``(tag, dtype)``; :meth:`take` returns a contiguous
    view of the requested shape, growing the arena when the batch shape
    outgrows it.  Chunked scoring over a stable repository therefore
    allocates only on the first pass (and whenever a new largest shape
    appears); every later chunk is served from the arena.  ``hits`` /
    ``misses`` feed the observability counters.
    """

    __slots__ = ("_arenas", "hits", "misses")

    def __init__(self) -> None:
        self._arenas: Dict[Tuple[str, np.dtype], np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def take(self, tag: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A writable scratch array of ``shape``/``dtype`` (contents arbitrary)."""
        dtype = np.dtype(dtype)
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arena = self._arenas.get((tag, dtype))
        if arena is None or arena.size < size:
            arena = np.empty(max(size, 1), dtype=dtype)
            self._arenas[(tag, dtype)] = arena
            self.misses += 1
        else:
            self.hits += 1
        return arena[:size].reshape(shape)

    def nbytes(self) -> int:
        return sum(arena.nbytes for arena in self._arenas.values())

    def clear(self) -> None:
        self._arenas.clear()


def _linear(
    pool: ScratchPool, tag: str, x: np.ndarray, weight, bias, exact: bool = True
) -> np.ndarray:
    """``x @ W + b`` into a pooled buffer — the exact :class:`Linear` forward.

    When ``x`` is narrower than the stored weights (the pre-filter's float32
    coarse pass under a float64 session) the tiny weight/bias matrices are
    cast down so the GEMM runs at the input precision instead of silently
    promoting to a float64 contraction.

    ``exact=True`` calls ``np.matmul`` on the operand shapes the Tensor op
    would see (bitwise parity with :meth:`HCMANMatcher.forward_pairs`).  ``exact=False``
    flattens the batch axes into one 2-D GEMM first: the coarse pass feeds
    this helper ``(B, few, K)`` stacks whose stacked matmul dispatches B
    tiny per-slice GEMMs.
    """
    w = weight.data
    if w.dtype != x.dtype:
        w = w.astype(x.dtype)
    out = pool.take(tag, x.shape[:-1] + (w.shape[1],), x.dtype)
    if exact or x.ndim <= 2:
        np.matmul(x, w, out=out)
    else:
        np.matmul(
            x.reshape(-1, x.shape[-1]), w, out=out.reshape(-1, w.shape[1])
        )
    if bias is not None:
        b = bias.data
        out += b.astype(x.dtype) if b.dtype != x.dtype else b
    return out


def _softmax(
    pool: ScratchPool, tag: str, x: np.ndarray, exact: bool = True
) -> np.ndarray:
    """Replicates ``Tensor.softmax(axis=-1)`` including the float64 denominator.

    ``exact=False`` (the pre-filter's coarse pass) accumulates the
    denominator in the input dtype instead — mixed-precision reductions
    fall off NumPy's vectorized path and dominate the float32 profile.
    """
    shifted = pool.take(tag + ".shift", x.shape, x.dtype)
    np.subtract(x, x.max(axis=-1, keepdims=True), out=shifted)
    np.exp(shifted, out=shifted)
    acc = np.float64 if exact else x.dtype
    denom = shifted.sum(axis=-1, keepdims=True, dtype=acc)
    return (shifted / denom).astype(x.dtype, copy=False)


def _sum_cast(x: np.ndarray, axis, exact: bool = True) -> np.ndarray:
    """Replicates ``Tensor.sum``: accumulate in float64, cast back.

    ``exact=False`` accumulates natively (see :func:`_softmax`).
    """
    if not exact:
        return x.sum(axis=axis)
    out = x.sum(axis=axis, dtype=np.float64)
    return np.asarray(out).astype(x.dtype, copy=False)


def _mean_cast(x: np.ndarray, axis, exact: bool = True) -> np.ndarray:
    """Replicates ``Tensor.mean``: float64-accumulated sum times ``1/count``."""
    axes = axis if isinstance(axis, tuple) else (axis,)
    count = int(np.prod([x.shape[a] for a in axes]))
    inv = np.asarray(1.0 / count, dtype=x.dtype)
    return _sum_cast(x, axis, exact) * inv


def _masked_fill_(x: np.ndarray, keep: np.ndarray, fill: float) -> np.ndarray:
    """In-place ``masked_keep``: positions where ``keep`` is False get ``fill``."""
    np.copyto(x, np.asarray(fill, dtype=x.dtype), where=~keep)
    return x


def _masked_mean(
    values: np.ndarray, mask: np.ndarray, exact: bool = True
) -> np.ndarray:
    """Replicates :func:`repro.fcm.matcher._masked_mean` on raw arrays."""
    axes = tuple(range(1, values.ndim))
    counts = np.asarray(mask, dtype=bool).sum(axis=axes).astype(values.dtype)
    kept = np.where(mask, values, np.asarray(0.0, dtype=values.dtype))
    total = _sum_cast(kept, axes, exact)
    return (total * (1.0 / np.maximum(counts, 1.0))).reshape(-1, 1)


class FusedMatchKernel:
    """Fused, graph-free inference forward of the matcher.

    Covers the two matchers :func:`~repro.fcm.matcher.build_matcher` returns
    (:class:`HCMANMatcher` and the :class:`AveragedMatcher` ablation); any
    other matcher raises :class:`TypeError` at construction.  The kernel
    holds only a :class:`ScratchPool` and a reference to the matcher —
    parameters are read live on every call.
    """

    def __init__(self, matcher) -> None:
        if not isinstance(matcher, (HCMANMatcher, AveragedMatcher)):
            raise TypeError(
                f"no fused kernel for matcher {type(matcher).__name__}; "
                "expected HCMANMatcher or AveragedMatcher"
            )
        self._matcher = matcher
        self.pool = ScratchPool()

    def score_batch(
        self,
        chart_repr: np.ndarray,
        table_batch: np.ndarray,
        segment_mask: np.ndarray,
        column_mask: np.ndarray,
        exact: bool = True,
    ) -> np.ndarray:
        """``(B,)`` relevance scores of one chart against ``B`` candidates.

        ``chart_repr`` is the raw ``(M, N1, K)`` chart encoding array and
        ``table_batch`` the zero-padded ``(B, NC, N2, K)`` candidate stack in
        the same dtype; masks follow :func:`pad_candidate_batch`.

        ``exact=True`` (the default, used by exact verification) replays the
        Tensor graph's float64-accumulated reductions so float64 scores are
        bitwise identical to ``matcher.forward_pairs`` with the chart
        repeated per candidate.  ``exact=False`` (the coarse
        pre-filter pass) accumulates in the input dtype — the scores only
        feed the overscan cut, and mixed-precision reductions are the
        dominant cost of a float32 batch.
        """
        matcher = self._matcher
        if isinstance(matcher, AveragedMatcher):
            return self._averaged(chart_repr, table_batch, segment_mask, exact)
        return self._hcman(
            chart_repr, table_batch, segment_mask, column_mask, exact
        )

    # ------------------------------------------------------------------ #
    # HCMAN chain
    # ------------------------------------------------------------------ #
    def _hcman(
        self,
        chart_repr: np.ndarray,
        table_batch: np.ndarray,
        segment_mask: np.ndarray,
        column_mask: np.ndarray,
        exact: bool = True,
    ) -> np.ndarray:
        seg = self._matcher.segment_level
        b, nc, n2, dim = table_batch.shape
        table_flat = table_batch.reshape(b, nc * n2, dim)
        keys = _linear(self.pool, "sl.k", table_flat, seg.key_proj.weight, seg.key_proj.bias, exact)
        table_values = _linear(self.pool, "sl.tv", table_batch, seg.value_proj.weight, seg.value_proj.bias, exact)
        return self._hcman_core(
            chart_repr, keys, table_values, segment_mask, column_mask, exact
        )

    def _hcman_core(
        self,
        chart_repr: np.ndarray,
        keys: np.ndarray,
        table_values: np.ndarray,
        segment_mask: np.ndarray,
        column_mask: np.ndarray,
        exact: bool = True,
    ) -> np.ndarray:
        """HCMAN chain after the table-side projections.

        ``keys``/``table_values`` are the key/value projections of the
        candidate batch — computed per call by :meth:`_hcman` or served from
        a prebuilt :class:`CoarseCache` by :func:`coarse_scores` (they only
        depend on the candidates and the matcher weights, not the query).
        Both are read-only here so cached projections survive the call.
        """
        pool = self.pool
        matcher = self._matcher
        seg = matcher.segment_level
        dtype = table_values.dtype

        m, n1, dim = chart_repr.shape
        b, nc, n2, _ = table_values.shape
        chart_flat = chart_repr.reshape(m * n1, dim)
        seg_valid = np.asarray(segment_mask, dtype=bool)
        flat_valid = seg_valid.reshape(b, 1, nc * n2)
        scale = np.asarray(1.0 / np.sqrt(dim), dtype=dtype)

        # --- SL-SAN ---------------------------------------------------- #
        queries = _linear(pool, "sl.q", chart_flat, seg.query_proj.weight, seg.query_proj.bias, exact)
        sim = pool.take("sl.sim", (b, m * n1, nc * n2), dtype)
        np.matmul(queries, keys.swapaxes(-1, -2), out=sim)
        sim *= scale
        _masked_fill_(sim, flat_valid, -np.inf)

        chart_scores = sim.reshape(b, m, n1, nc * n2).max(axis=-1)  # (B, M, N1)
        # max over the chart axis equals the transposed-reshape max of the
        # Tensor path without materialising the (B, NC, N2, M*N1) copy.
        table_scores = sim.max(axis=1).reshape(b, nc, n2)  # (B, NC, N2)

        chart_weights = _softmax(pool, "sl.cw", chart_scores, exact)[..., None]
        column_alive = seg_valid.any(axis=-1)[..., None]  # (B, NC, 1)
        masked_ts = pool.take("sl.mts", table_scores.shape, dtype)
        np.copyto(masked_ts, table_scores)
        _masked_fill_(masked_ts, column_alive, 0.0)
        table_weights = _softmax(pool, "sl.tw", masked_ts, exact)[..., None]

        chart_values = _linear(pool, "sl.cv", chart_repr, seg.value_proj.weight, seg.value_proj.bias, exact)
        if exact:
            weighted = pool.take("sl.wgt", (b, m, n1, dim), dtype)
            np.multiply(chart_values, chart_weights, out=weighted)
            lines = _sum_cast(weighted, 2, exact)  # (B, M, K)
            weighted_tv = pool.take("sl.tvw", table_values.shape, dtype)
            np.multiply(table_values, table_weights, out=weighted_tv)
            columns = _sum_cast(weighted_tv, 2, exact)  # (B, NC, K)
        else:
            # One fused contraction instead of a broadcast multiply plus a
            # reduction over a (B, ·, ·, K) scratch — the multiply+sum pair
            # is the single most expensive op group of the coarse pass.
            lines = np.einsum(
                "mnk,bmn->bmk", chart_values, chart_weights[..., 0]
            )
            columns = np.einsum(
                "bcsk,bcs->bck", table_values, table_weights[..., 0]
            )
        segment_evidence = np.concatenate(
            [
                _mean_cast(chart_scores, (1, 2), exact).reshape(-1, 1),
                _masked_mean(table_scores, seg_valid, exact),
            ],
            axis=-1,
        )

        # --- LL-SAN ---------------------------------------------------- #
        line = matcher.line_level
        col_valid = np.asarray(column_mask, dtype=bool)
        lq = _linear(pool, "ll.q", lines, line.query_proj.weight, line.query_proj.bias, exact)
        lk = _linear(pool, "ll.k", columns, line.key_proj.weight, line.key_proj.bias, exact)
        sim2 = pool.take("ll.sim", (b, m, nc), dtype)
        np.matmul(lq, lk.swapaxes(-1, -2), out=sim2)
        sim2 *= scale
        _masked_fill_(sim2, col_valid[:, None, :], -np.inf)

        line_scores = sim2.max(axis=-1)  # (B, M)
        column_scores = sim2.max(axis=1)  # (B, NC); == swapaxes(-1,-2).max(-1)

        line_weights = _softmax(pool, "ll.lw", line_scores, exact)[..., None]
        column_weights = _softmax(pool, "ll.cw", column_scores, exact)[..., None]

        line_values = _linear(pool, "ll.lv", lines, line.value_proj.weight, line.value_proj.bias, exact)
        np.multiply(line_values, line_weights, out=line_values)
        chart_vecs = _sum_cast(line_values, 1, exact)  # (B, K)
        column_values = _linear(pool, "ll.cv", columns, line.value_proj.weight, line.value_proj.bias, exact)
        np.multiply(column_values, column_weights, out=column_values)
        table_vecs = _sum_cast(column_values, 1, exact)  # (B, K)
        line_evidence = np.concatenate(
            [
                _mean_cast(line_scores, (-1,), exact).reshape(-1, 1),
                _masked_mean(column_scores, col_valid, exact),
            ],
            axis=-1,
        )

        evidence = np.concatenate([segment_evidence, line_evidence], axis=-1)
        return self._head(chart_vecs, table_vecs, evidence, exact)

    # ------------------------------------------------------------------ #
    # Averaged ablation
    # ------------------------------------------------------------------ #
    def _averaged(
        self,
        chart_repr: np.ndarray,
        table_batch: np.ndarray,
        segment_mask: np.ndarray,
        exact: bool = True,
    ) -> np.ndarray:
        dtype = table_batch.dtype
        seg_valid = np.asarray(segment_mask, dtype=bool)
        counts = seg_valid.sum(axis=(1, 2))  # (B,)
        masked = self.pool.take("avg.mask", table_batch.shape, dtype)
        np.multiply(table_batch, seg_valid[..., None].astype(dtype), out=masked)
        inv = (1.0 / np.maximum(counts, 1.0))[:, None].astype(dtype)
        table_vecs = _sum_cast(masked, (1, 2), exact) * inv
        return self._averaged_core(chart_repr, table_vecs, exact)

    def _averaged_core(
        self,
        chart_repr: np.ndarray,
        table_vecs: np.ndarray,
        exact: bool = True,
    ) -> np.ndarray:
        """Averaged chain after the masked table mean (read-only, cacheable)."""
        dtype = table_vecs.dtype
        b = table_vecs.shape[0]
        chart_vec = _mean_cast(chart_repr, (0, 1), exact)  # (K,)
        chart_vecs = chart_vec[None] + np.zeros((b, 1), dtype=dtype)
        return self._head(chart_vecs, table_vecs, None, exact)

    # ------------------------------------------------------------------ #
    # Interaction head
    # ------------------------------------------------------------------ #
    def _head(
        self,
        chart_vecs: np.ndarray,
        table_vecs: np.ndarray,
        extra: Optional[np.ndarray],
        exact: bool = True,
    ) -> np.ndarray:
        pool = self.pool
        head = self._matcher.head
        dtype = chart_vecs.dtype
        eps = np.asarray(1e-8, dtype=dtype)

        product = chart_vecs * table_vecs
        difference = np.abs(chart_vecs - table_vecs)
        chart_norm = (
            _sum_cast(chart_vecs * chart_vecs, -1, exact)[..., None] + eps
        ) ** 0.5
        table_norm = (
            _sum_cast(table_vecs * table_vecs, -1, exact)[..., None] + eps
        ) ** 0.5
        cosine = _sum_cast(product, -1, exact)[..., None] / (
            chart_norm * table_norm
        )
        parts = [chart_vecs, table_vecs, product, difference, cosine]
        if head.num_extra_features:
            if extra is None:
                raise ValueError(
                    f"head expects {head.num_extra_features} extra features"
                )
            parts.append(extra.reshape(-1, head.num_extra_features))
        joint = np.concatenate(parts, axis=-1)

        fc0, fc1 = head.mlp.layers
        hidden = _linear(pool, "head.h", joint, fc0.weight, fc0.bias, exact)
        hidden *= hidden > 0  # relu, exactly as Tensor.relu computes it
        logits = _linear(pool, "head.o", hidden, fc1.weight, fc1.bias, exact)
        scores = 1.0 / (1.0 + np.exp(-logits))
        return np.squeeze(scores, axis=-1)


# ---------------------------------------------------------------------- #
# int8 symmetric quantization + packed pre-filter
# ---------------------------------------------------------------------- #
class QuantizedTable(NamedTuple):
    """int8 copy of one table's encodings: ``representations ≈ codes · scale``."""

    codes: np.ndarray  # (NC, N2, K) int8 — mirrors the representation shape
    scale: float  # dequantization multiplier; 0.0 for all-zero tables


class QuantizedPack(NamedTuple):
    """Every candidate's *pooled* quantized encoding, padded into one batch.

    The pack is the pre-filter's scoring input: per table, the int8 codes
    are dequantized, groups of :attr:`pool` consecutive segment rows are
    mean-pooled, and the pooled vectors are re-quantized to int8 (one scale
    per table).  Scoring a candidate chunk is then a single matcher call on
    a ``pool``-times-smaller batch — the pre-filter runs the *real* matcher
    (the fused kernel) on a coarse input, so its ranking tracks the exact
    score through every attention and MLP nonlinearity instead of relying
    on a raw-similarity proxy.
    """

    table_ids: Tuple[str, ...]
    codes: np.ndarray  # (T, NC_max, NS_max, K) int8 — pooled segment rows
    segment_mask: np.ndarray  # (T, NC_max, NS_max) bool
    column_mask: np.ndarray  # (T, NC_max) bool
    scales: np.ndarray  # (T,) float64
    pool: int  # segment rows mean-pooled per coarse row
    index: Dict[str, int]  # table_id -> position in the arrays above


def quantize_table(representations: np.ndarray) -> QuantizedTable:
    """Symmetric per-table int8 quantization of an ``(NC, N2, K)`` encoding.

    ``scale = max|x| / 127`` so the full dynamic range maps onto
    ``[-127, 127]``; all-zero (or non-finite-free constant-zero) tables get
    ``scale = 0.0`` and all-zero codes — the guard every consumer relies on
    instead of dividing by zero.
    """
    reps = np.asarray(representations)
    amax = float(np.max(np.abs(reps))) if reps.size else 0.0
    if not np.isfinite(amax) or amax == 0.0:
        return QuantizedTable(
            codes=np.zeros(reps.shape, dtype=np.int8), scale=0.0
        )
    scale = amax / 127.0
    codes = np.clip(np.rint(reps / scale), -127, 127).astype(np.int8)
    return QuantizedTable(codes=codes, scale=scale)


#: Precision of the coarse pre-filter pass.  The coarse score only feeds
#: the overscan cut (survivors are re-scored exactly), so it always runs
#: in float32 — under a float64 session the narrower GEMMs roughly halve
#: the coarse pass without touching the recall floor.
PREFILTER_DTYPE = np.float32

#: Default segment rows mean-pooled per coarse row of the pre-filter pack.
#: The coarse score is the real matcher on pooled input, so larger pools
#: trade score fidelity for speed: on undertrained models with near-flat
#: score landscapes a pool of 4 can push true top-k tables outside the
#: default overscan cut, while 2 keeps them at roughly half the FLOPs.
PREFILTER_POOL = 2

#: Candidate tables matcher-scored per pre-filter chunk; bounds the
#: per-chunk similarity and weighting scratch to a few tens of MB.
PREFILTER_CHUNK_TABLES = 2048


def _pooled_dequant(quantized: QuantizedTable, pool: int) -> np.ndarray:
    """Dequantize one table and mean-pool segment rows in groups of ``pool``.

    Returns ``(NC, ceil(N2 / pool), K)`` float64; trailing groups shorter
    than ``pool`` average only their real rows (no zero-dilution).
    """
    codes = quantized.codes.astype(np.float64) * float(quantized.scale)
    nc, n2, dim = codes.shape
    ns = max(1, -(-n2 // max(int(pool), 1)))
    padded = np.zeros((nc, ns * pool, dim), dtype=np.float64)
    padded[:, :n2] = codes
    counts = np.clip(n2 - np.arange(ns) * pool, 1, pool).astype(np.float64)
    return padded.reshape(nc, ns, pool, dim).sum(axis=2) / counts[None, :, None]


def pooled_vectors(
    quantized: QuantizedTable, pool: int = PREFILTER_POOL
) -> np.ndarray:
    """The pooled float vectors one table contributes to a pack.

    Public wrapper around the per-table pooling step of
    :func:`build_quantized_pack`, so callers that maintain an incremental
    pack (the scorer's dirty-segment refresh: only entries whose content
    changed are re-pooled) compute exactly the vectors a from-scratch pack
    build would.
    """
    return _pooled_dequant(quantized, pool)


def build_quantized_pack(
    items: Sequence[Tuple[str, QuantizedTable]],
    pool: int = PREFILTER_POOL,
    pooled: Optional[Sequence[np.ndarray]] = None,
) -> QuantizedPack:
    """Pool + re-quantize every table and pad into one scoring batch.

    ``pooled`` optionally supplies the per-table pooled vectors (one array
    per item, as produced by :func:`pooled_vectors` with the same ``pool``)
    so an incremental caller only pays the pooling cost for entries whose
    content actually changed; ``None`` pools everything here.
    """
    table_ids = tuple(table_id for table_id, _ in items)
    index = {table_id: position for position, table_id in enumerate(table_ids)}
    if pooled is None:
        pooled = [_pooled_dequant(quantized, pool) for _, quantized in items]
    else:
        if len(pooled) != len(items):
            raise ValueError(
                f"pooled= carries {len(pooled)} arrays for {len(items)} items"
            )
        pooled = list(pooled)
    if not pooled:
        return QuantizedPack(
            table_ids=table_ids,
            codes=np.zeros((0, 1, 1, 1), dtype=np.int8),
            segment_mask=np.zeros((0, 1, 1), dtype=bool),
            column_mask=np.zeros((0, 1), dtype=bool),
            scales=np.zeros(0, dtype=np.float64),
            pool=int(pool),
            index=index,
        )
    nc_max = max(p.shape[0] for p in pooled)
    ns_max = max(p.shape[1] for p in pooled)
    dim = pooled[0].shape[2]
    codes = np.zeros((len(pooled), nc_max, ns_max, dim), dtype=np.int8)
    segment_mask = np.zeros((len(pooled), nc_max, ns_max), dtype=bool)
    column_mask = np.zeros((len(pooled), nc_max), dtype=bool)
    scales = np.zeros(len(pooled), dtype=np.float64)
    for position, vectors in enumerate(pooled):
        nc, ns, _ = vectors.shape
        amax = float(np.max(np.abs(vectors))) if vectors.size else 0.0
        if np.isfinite(amax) and amax > 0.0:
            scales[position] = amax / 127.0
            codes[position, :nc, :ns] = np.clip(
                np.rint(vectors / scales[position]), -127, 127
            ).astype(np.int8)
        segment_mask[position, :nc, :ns] = True
        column_mask[position, :nc] = True
    return QuantizedPack(
        table_ids=table_ids,
        codes=codes,
        segment_mask=segment_mask,
        column_mask=column_mask,
        scales=scales,
        pool=int(pool),
        index=index,
    )


class CoarseCache(NamedTuple):
    """Query-independent half of the coarse pass, prebuilt from the pack.

    The pre-filter pack is static between index mutations and the matcher
    weights are fixed during serving, so everything the coarse matcher call
    derives from the *table* side — the dequantized batch, its key/value
    projections (HCMAN) or the masked segment mean (averaged ablation) —
    can be computed once per pack instead of once per query.  Stored at
    :data:`PREFILTER_DTYPE`; roughly ``2 · NC · NS · K`` floats per table
    (~3 KB at the default config), all derived state that is rebuilt with
    the pack and never persisted.

    ``sorted_ids`` / ``sorted_positions`` are the vectorized id→row lookup
    (``np.searchsorted`` replaces a Python dict probe per candidate).
    """

    keys: Optional[np.ndarray]  # (T, NC·NS, K) — HCMAN key projection
    table_values: Optional[np.ndarray]  # (T, NC, NS, K) — HCMAN value proj
    table_vecs: Optional[np.ndarray]  # (T, K) — averaged-matcher table mean
    sorted_ids: np.ndarray  # (T,) unicode — pack ids, lexicographic
    sorted_positions: np.ndarray  # (T,) int64 — pack row of sorted_ids[i]


def _project(x: np.ndarray, layer) -> np.ndarray:
    """``x @ W + b`` into a fresh array (cache build; no pooled scratch)."""
    w = layer.weight.data
    out = x @ (w.astype(x.dtype) if w.dtype != x.dtype else w)
    if layer.bias is not None:
        b = layer.bias.data
        out += b.astype(x.dtype) if b.dtype != x.dtype else b
    return out


def build_coarse_cache(kernel: FusedMatchKernel, pack: QuantizedPack) -> CoarseCache:
    """Dequantize + project the whole pack once, for :func:`coarse_scores`."""
    dtype = PREFILTER_DTYPE
    ids = np.asarray(pack.table_ids)
    order = np.argsort(ids) if ids.size else np.zeros(0, dtype=np.int64)
    sorted_ids = ids[order]
    batch = pack.codes.astype(dtype)
    batch *= pack.scales[:, None, None, None].astype(dtype)
    matcher = kernel._matcher
    if isinstance(matcher, AveragedMatcher):
        seg_valid = np.asarray(pack.segment_mask, dtype=bool)
        counts = seg_valid.sum(axis=(1, 2))
        np.multiply(batch, seg_valid[..., None].astype(dtype), out=batch)
        inv = (1.0 / np.maximum(counts, 1.0))[:, None].astype(dtype)
        table_vecs = batch.sum(axis=(1, 2)) * inv
        return CoarseCache(None, None, table_vecs, sorted_ids, order)
    seg = matcher.segment_level
    t, nc, ns, dim = batch.shape
    keys = _project(batch.reshape(t, nc * ns, dim), seg.key_proj)
    table_values = _project(batch, seg.value_proj)
    return CoarseCache(keys, table_values, None, sorted_ids, order)


def coarse_scores(
    kernel: FusedMatchKernel,
    pack: QuantizedPack,
    cache: CoarseCache,
    chart_repr: np.ndarray,
    table_ids: Sequence[str],
    chunk_tables: int = PREFILTER_CHUNK_TABLES,
) -> np.ndarray:
    """Pre-filter scores via the cached projections (fused kernel only).

    The per-query work drops to the chart-side projections plus the
    attention/head chain — no dequantize, no table-side GEMMs.  Scores equal
    a chunk-wise dequantize of the pack followed by
    :meth:`FusedMatchKernel.score_batch` with ``exact=False`` at
    :data:`PREFILTER_DTYPE` (the tests keep that pass as the oracle); unknown
    ids score ``-inf``.
    """
    chart = np.ascontiguousarray(
        np.asarray(chart_repr).astype(PREFILTER_DTYPE, copy=False)
    )
    out = np.full(len(table_ids), -np.inf, dtype=np.float64)
    if not len(table_ids) or not cache.sorted_ids.size or chart.size == 0:
        return out
    query_ids = np.asarray(table_ids)
    if len(query_ids) == len(cache.sorted_ids) and np.array_equal(
        query_ids, cache.sorted_ids
    ):
        # Exhaustive verification asks for every indexed table in sorted
        # order — exactly ``sorted_ids``, so the lookup is precomputed.
        positions = cache.sorted_positions
    else:
        loc = np.searchsorted(cache.sorted_ids, query_ids)
        loc = np.minimum(loc, len(cache.sorted_ids) - 1)
        positions = np.where(
            cache.sorted_ids[loc] == query_ids, cache.sorted_positions[loc], -1
        )
    known = positions >= 0
    if not known.any():
        return out
    known_positions = positions[known]
    scores = np.empty(len(known_positions), dtype=np.float64)
    step = max(int(chunk_tables), 1)
    for start in range(0, len(known_positions), step):
        chunk = known_positions[start : start + step]
        if len(chunk) == int(chunk[-1]) - int(chunk[0]) + 1 and bool(
            (np.diff(chunk) == 1).all()
        ):
            # Contiguous rows (the exhaustive-verification common case):
            # plain slices make every cache/mask access a view, not a
            # fancy-index copy.
            sel = slice(int(chunk[0]), int(chunk[0]) + len(chunk))
        else:
            sel = chunk
        if cache.table_vecs is not None:
            batch_scores = kernel._averaged_core(
                chart, cache.table_vecs[sel], exact=False
            )
        else:
            batch_scores = kernel._hcman_core(
                chart,
                cache.keys[sel],
                cache.table_values[sel],
                pack.segment_mask[sel],
                pack.column_mask[sel],
                exact=False,
            )
        scores[start : start + len(chunk)] = np.atleast_1d(batch_scores)
    out[known] = scores
    return out
