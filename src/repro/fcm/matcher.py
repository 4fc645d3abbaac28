"""Cross-modal matcher: HCMAN and the averaged ablation variant (Sec. IV-D).

The hierarchical cross-modal attention network (HCMAN) aligns the chart and
the table at two levels:

* **SL-SAN (segment level)** — every line segment is scored against every
  data segment with a scaled dot-product similarity between learned query and
  key projections; each line (column) is then reconstructed as the
  relevance-weighted sum of its own segments, where a segment's relevance is
  its best match on the other side.
* **LL-SAN (line-to-column level)** — the reconstructed line and column
  representations are scored against each other the same way, yielding
  relevance-weighted chart-level and table-level representations.

The two reconstructed representations — together with their element-wise
product, absolute difference and cosine similarity (standard interaction
features for matching networks, which give the head a direct gradient path to
"similar representations ⇒ high relevance") — are passed through an MLP with
a sigmoid head to produce ``Rel'(V, T) ∈ [0, 1]``.

:class:`AveragedMatcher` is the FCM−HCMAN ablation of Table V: all segment
and line/column representations are averaged (no attention) before the same
interaction head, so the two variants differ only in the fine-grained
attention-based reconstruction the paper ablates.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn import MLP, Linear, Module, Tensor, concatenate, masked_keep, where
from .config import FCMConfig


def _scaled_similarity(queries: Tensor, keys: Tensor) -> Tensor:
    """Scaled dot-product similarity matrix ``(num_q, num_k)``."""
    dim = queries.shape[-1]
    return queries.matmul(keys.swapaxes(-1, -2)) * (1.0 / np.sqrt(dim))


def _masked_mean(values: Tensor, mask: np.ndarray) -> Tensor:
    """Per-batch mean of ``values`` restricted to ``mask``, shape ``(B, 1)``.

    ``values`` has shape ``(B, ...)`` and ``mask`` is a boolean array of the
    same shape; the mean runs over every non-batch axis.  Matches the plain
    ``.mean()`` of the per-pair path on the unpadded entries.
    """
    axes = tuple(range(1, values.ndim))
    counts = np.asarray(mask, dtype=bool).sum(axis=axes).astype(values.data.dtype)
    kept = where(mask, values, 0.0)
    total = kept.sum(axis=axes)
    return (total * (1.0 / np.maximum(counts, 1.0))).reshape(-1, 1)


class InteractionHead(Module):
    """MLP head over chart/table interaction features.

    The input is ``[v_chart, v_table, v_chart ⊙ v_table, |v_chart − v_table|,
    cos(v_chart, v_table), extra...]``, giving the head both the raw
    representations and explicit match evidence.  ``num_extra_features``
    reserves room for additional scalar evidence (the HCMAN matcher feeds the
    segment-level and line-level cross-modal similarities in here).
    """

    def __init__(
        self,
        config: FCMConfig,
        rng: np.random.Generator,
        num_extra_features: int = 0,
    ) -> None:
        super().__init__()
        self.num_extra_features = num_extra_features
        self.mlp = MLP(
            in_features=4 * config.embed_dim + 1 + num_extra_features,
            hidden_features=[config.embed_dim],
            out_features=1,
            activation="relu",
            rng=rng,
        )

    def forward(
        self,
        chart_vec: Tensor,
        table_vec: Tensor,
        extra: Optional[Tensor] = None,
    ) -> Tensor:
        product = chart_vec * table_vec
        difference = (chart_vec - table_vec).abs()
        chart_norm = ((chart_vec * chart_vec).sum() + 1e-8) ** 0.5
        table_norm = ((table_vec * table_vec).sum() + 1e-8) ** 0.5
        cosine = (chart_vec * table_vec).sum() / (chart_norm * table_norm)
        parts = [chart_vec, table_vec, product, difference, cosine.reshape(1)]
        if self.num_extra_features:
            if extra is None:
                raise ValueError(
                    f"head expects {self.num_extra_features} extra features"
                )
            parts.append(extra.reshape(self.num_extra_features))
        joint = concatenate(parts, axis=0)
        return self.mlp(joint).sigmoid().squeeze()

    def forward_batch(
        self,
        chart_vecs: Tensor,
        table_vecs: Tensor,
        extra: Optional[Tensor] = None,
    ) -> Tensor:
        """Score ``B`` candidate pairs at once.

        ``chart_vecs`` and ``table_vecs`` have shape ``(B, K)`` and ``extra``
        (when the head was built with extra features) has shape
        ``(B, num_extra_features)``.  Returns the ``(B,)`` relevance scores —
        row ``b`` equals :meth:`forward` on the ``b``-th pair.
        """
        product = chart_vecs * table_vecs
        difference = (chart_vecs - table_vecs).abs()
        chart_norm = ((chart_vecs * chart_vecs).sum(axis=-1, keepdims=True) + 1e-8) ** 0.5
        table_norm = ((table_vecs * table_vecs).sum(axis=-1, keepdims=True) + 1e-8) ** 0.5
        cosine = (chart_vecs * table_vecs).sum(axis=-1, keepdims=True) / (
            chart_norm * table_norm
        )
        parts = [chart_vecs, table_vecs, product, difference, cosine]
        if self.num_extra_features:
            if extra is None:
                raise ValueError(
                    f"head expects {self.num_extra_features} extra features"
                )
            parts.append(extra.reshape(-1, self.num_extra_features))
        joint = concatenate(parts, axis=-1)
        return self.mlp(joint).sigmoid().squeeze(axis=-1)


class SegmentLevelAttention(Module):
    """SL-SAN: reconstruct each line/column from its best-matching segments."""

    def __init__(self, config: FCMConfig, rng: np.random.Generator) -> None:
        super().__init__()
        dim = config.embed_dim
        self.query_proj = Linear(dim, dim, rng=rng)
        self.key_proj = Linear(dim, dim, rng=rng)
        self.value_proj = Linear(dim, dim, rng=rng)

    def forward(
        self, chart_repr: Tensor, table_repr: Tensor
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Reconstruct line and column representations.

        Parameters
        ----------
        chart_repr:
            ``E_V`` of shape ``(M, N1, K)``.
        table_repr:
            ``E_T`` of shape ``(NC, N2, K)``.

        Returns
        -------
        (lines, columns, evidence):
            ``lines`` of shape ``(M, K)``, ``columns`` of shape ``(NC, K)``
            and ``evidence`` — two scalars summarising the segment-level
            cross-modal similarity in each direction.
        """
        m, n1, dim = chart_repr.shape
        nc, n2, _ = table_repr.shape
        chart_flat = chart_repr.reshape(m * n1, dim)
        table_flat = table_repr.reshape(nc * n2, dim)

        # Cross-modal segment similarities (shared projections both ways).
        sim = _scaled_similarity(self.query_proj(chart_flat), self.key_proj(table_flat))
        sim_chart = sim.reshape(m, n1, nc * n2)
        sim_table = sim.swapaxes(0, 1).reshape(nc, n2, m * n1)

        # A segment's relevance is its best cross-modal match.
        chart_scores = sim_chart.max(axis=-1)  # (M, N1)
        table_scores = sim_table.max(axis=-1)  # (NC, N2)

        chart_weights = chart_scores.softmax(axis=-1).expand_dims(-1)  # (M, N1, 1)
        table_weights = table_scores.softmax(axis=-1).expand_dims(-1)  # (NC, N2, 1)

        chart_values = self.value_proj(chart_repr)
        table_values = self.value_proj(table_repr)
        lines = (chart_values * chart_weights).sum(axis=1)  # (M, K)
        columns = (table_values * table_weights).sum(axis=1)  # (NC, K)
        # Summary of the segment-level match evidence, fed to the head.
        evidence = concatenate(
            [chart_scores.mean().reshape(1), table_scores.mean().reshape(1)], axis=0
        )
        return lines, columns, evidence

    def forward_pairs(
        self,
        chart_batch: Tensor,
        table_batch: Tensor,
        chart_mask: np.ndarray,
        segment_mask: np.ndarray,
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Reconstruct lines/columns for ``P`` independent (chart, table) pairs.

        Every pair carries its *own* padded chart — the layout of the
        batched trainer, where each pair is one example's chart against its
        positive or one of its negatives.  Inference, where one chart is
        shared by every candidate, runs the fused kernel of
        :mod:`repro.fcm.fastpath` instead; with the chart repeated per pair
        this forward is its test oracle.

        Parameters
        ----------
        chart_batch:
            Stacked, zero-padded ``E_V`` of shape ``(P, M, N1, K)``.
        table_batch:
            Stacked, zero-padded ``E_T`` of shape ``(P, NC, N2, K)``.
        chart_mask:
            Boolean ``(P, M, N1)``; True marks real line segments.
        segment_mask:
            Boolean ``(P, NC, N2)``; True marks real data segments.

        Returns
        -------
        (lines, columns, evidence):
            ``lines`` of shape ``(P, M, K)``, ``columns`` of shape
            ``(P, NC, K)`` and ``evidence`` of shape ``(P, 2)``.  Padding on
            either side is excluded from every max/softmax/mean, so row ``p``
            matches :meth:`forward` on pair ``p`` alone.
        """
        p, m, n1, dim = chart_batch.shape
        _, nc, n2, _ = table_batch.shape
        chart_flat = chart_batch.reshape(p, m * n1, dim)
        table_flat = table_batch.reshape(p, nc * n2, dim)
        line_seg_valid = np.asarray(chart_mask, dtype=bool)
        seg_valid = np.asarray(segment_mask, dtype=bool)
        pair_valid = (
            line_seg_valid.reshape(p, m * n1)[:, :, None]
            & seg_valid.reshape(p, nc * n2)[:, None, :]
        )

        # (P, M*N1, K) x (P, K, NC*N2) -> (P, M*N1, NC*N2); any position that
        # is padded on either side goes to -inf so it can never win a max and
        # gets exactly zero softmax weight.
        sim = _scaled_similarity(self.query_proj(chart_flat), self.key_proj(table_flat))
        sim = masked_keep(sim, pair_valid, -np.inf)
        sim_chart = sim.reshape(p, m, n1, nc * n2)
        sim_table = sim.swapaxes(-1, -2).reshape(p, nc, n2, m * n1)

        chart_scores = sim_chart.max(axis=-1)  # (P, M, N1); -inf when padded
        table_scores = sim_table.max(axis=-1)  # (P, NC, N2); -inf when padded

        # Fully-padded lines/columns would be all--inf softmax rows (NaN);
        # their weights are irrelevant — the masks discard them downstream —
        # so any finite placeholder works: use 0.
        line_alive = line_seg_valid.any(axis=-1)[..., None]  # (P, M, 1)
        column_alive = seg_valid.any(axis=-1)[..., None]  # (P, NC, 1)
        chart_weights = (
            masked_keep(chart_scores, line_alive, 0.0).softmax(axis=-1).expand_dims(-1)
        )
        table_weights = (
            masked_keep(table_scores, column_alive, 0.0).softmax(axis=-1).expand_dims(-1)
        )

        chart_values = self.value_proj(chart_batch)  # (P, M, N1, K)
        table_values = self.value_proj(table_batch)  # (P, NC, N2, K)
        lines = (chart_values * chart_weights).sum(axis=2)  # (P, M, K)
        columns = (table_values * table_weights).sum(axis=2)  # (P, NC, K)
        evidence = concatenate(
            [
                _masked_mean(chart_scores, line_seg_valid),
                _masked_mean(table_scores, seg_valid),
            ],
            axis=-1,
        )
        return lines, columns, evidence


class LineColumnAttention(Module):
    """LL-SAN: reconstruct the chart and table from their best lines/columns."""

    def __init__(self, config: FCMConfig, rng: np.random.Generator) -> None:
        super().__init__()
        dim = config.embed_dim
        self.query_proj = Linear(dim, dim, rng=rng)
        self.key_proj = Linear(dim, dim, rng=rng)
        self.value_proj = Linear(dim, dim, rng=rng)

    def forward(
        self, lines: Tensor, columns: Tensor
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Reduce ``(M, K)`` lines and ``(NC, K)`` columns to two vectors.

        Also returns two scalars summarising the line-to-column similarity in
        each direction (how well each line is covered by some column, and
        vice versa), which the head uses as explicit match evidence.
        """
        sim = _scaled_similarity(self.query_proj(lines), self.key_proj(columns))  # (M, NC)

        line_scores = sim.max(axis=-1)  # (M,)
        column_scores = sim.swapaxes(0, 1).max(axis=-1)  # (NC,)

        line_weights = line_scores.softmax(axis=-1).expand_dims(-1)
        column_weights = column_scores.softmax(axis=-1).expand_dims(-1)

        chart_vec = (self.value_proj(lines) * line_weights).sum(axis=0)  # (K,)
        table_vec = (self.value_proj(columns) * column_weights).sum(axis=0)  # (K,)
        evidence = concatenate(
            [line_scores.mean().reshape(1), column_scores.mean().reshape(1)], axis=0
        )
        return chart_vec, table_vec, evidence

    def forward_pairs(
        self,
        lines: Tensor,
        columns: Tensor,
        line_mask: np.ndarray,
        column_mask: np.ndarray,
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Reduce per-pair lines and columns with padding masks on both sides.

        ``lines`` is ``(P, M, K)`` with boolean ``line_mask`` ``(P, M)``;
        ``columns`` is ``(P, NC, K)`` with boolean ``column_mask`` ``(P, NC)``.
        Padded lines *and* columns are masked out of every max/softmax/mean,
        so row ``p`` matches :meth:`forward` on pair ``p`` alone.  Returns
        ``(P, K)`` chart and table vectors plus ``(P, 2)`` evidence.
        """
        line_valid = np.asarray(line_mask, dtype=bool)
        col_valid = np.asarray(column_mask, dtype=bool)
        sim = _scaled_similarity(self.query_proj(lines), self.key_proj(columns))
        sim = masked_keep(
            sim, line_valid[:, :, None] & col_valid[:, None, :], -np.inf
        )  # (P, M, NC)

        line_scores = sim.max(axis=-1)  # (P, M); -inf at padded lines
        column_scores = sim.swapaxes(-1, -2).max(axis=-1)  # (P, NC); -inf padded

        # Padded lines/columns sit at -inf, so they receive exactly zero
        # softmax weight; every pair has at least one real line and one real
        # column, so no row is all -inf.
        line_weights = line_scores.softmax(axis=-1).expand_dims(-1)  # (P, M, 1)
        column_weights = column_scores.softmax(axis=-1).expand_dims(-1)  # (P, NC, 1)

        chart_vecs = (self.value_proj(lines) * line_weights).sum(axis=1)  # (P, K)
        table_vecs = (self.value_proj(columns) * column_weights).sum(axis=1)  # (P, K)
        evidence = concatenate(
            [
                _masked_mean(line_scores, line_valid),
                _masked_mean(column_scores, col_valid),
            ],
            axis=-1,
        )
        return chart_vecs, table_vecs, evidence


class HCMANMatcher(Module):
    """The full hierarchical cross-modal attention matcher."""

    def __init__(self, config: FCMConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.segment_level = SegmentLevelAttention(config, rng)
        self.line_level = LineColumnAttention(config, rng)
        self.head = InteractionHead(config, rng, num_extra_features=4)

    def forward(self, chart_repr: Tensor, table_repr: Tensor) -> Tensor:
        lines, columns, segment_evidence = self.segment_level(chart_repr, table_repr)
        chart_vec, table_vec, line_evidence = self.line_level(lines, columns)
        evidence = concatenate([segment_evidence, line_evidence], axis=0)
        return self.head(chart_vec, table_vec, extra=evidence)

    def forward_pairs(
        self,
        chart_batch: Tensor,
        table_batch: Tensor,
        chart_mask: np.ndarray,
        segment_mask: np.ndarray,
    ) -> Tensor:
        """Score ``P`` independent padded (chart, table) pairs at once.

        The training-path layout: ``chart_batch`` ``(P, M, N1, K)`` carries a
        (possibly repeated) chart per pair, ``table_batch`` ``(P, NC, N2, K)``
        the candidate tables, with boolean validity masks ``chart_mask``
        ``(P, M, N1)`` and ``segment_mask`` ``(P, NC, N2)``.  Fully
        differentiable — this is the stacked forward the batched contrastive
        loss backpropagates through.  Returns the ``(P,)`` relevance scores;
        row ``p`` equals :meth:`forward` on pair ``p``.

        Example
        -------
        >>> batch, mask = pad_stack([repr_a, repr_a, repr_b])   # chart per pair
        >>> tables, tmask = pad_stack([pos_a, neg_a, pos_b])
        >>> scores = matcher.forward_pairs(batch, tables,
        ...                                mask[..., 0], tmask[..., 0])  # (3,)
        """
        line_mask = np.asarray(chart_mask, dtype=bool).any(axis=-1)
        column_mask = np.asarray(segment_mask, dtype=bool).any(axis=-1)
        lines, columns, segment_evidence = self.segment_level.forward_pairs(
            chart_batch, table_batch, chart_mask, segment_mask
        )
        chart_vecs, table_vecs, line_evidence = self.line_level.forward_pairs(
            lines, columns, line_mask, column_mask
        )
        evidence = concatenate([segment_evidence, line_evidence], axis=-1)
        return self.head.forward_batch(chart_vecs, table_vecs, extra=evidence)


class AveragedMatcher(Module):
    """FCM−HCMAN ablation: mean-pool everything, then the same interaction head."""

    def __init__(self, config: FCMConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.head = InteractionHead(config, rng)

    def forward(self, chart_repr: Tensor, table_repr: Tensor) -> Tensor:
        chart_vec = chart_repr.mean(axis=(0, 1))
        table_vec = table_repr.mean(axis=(0, 1))
        return self.head(chart_vec, table_vec)

    def forward_pairs(
        self,
        chart_batch: Tensor,
        table_batch: Tensor,
        chart_mask: np.ndarray,
        segment_mask: np.ndarray,
    ) -> Tensor:
        """Batched mean-pool scoring of ``P`` padded (chart, table) pairs.

        Same contract as :meth:`HCMANMatcher.forward_pairs`: per-pair charts
        ``(P, M, N1, K)`` and tables ``(P, NC, N2, K)`` with validity masks;
        both sides are mean-pooled over their *real* cells only.  Returns the
        ``(P,)`` scores, differentiable end to end.
        """

        def _pooled(values: Tensor, valid: np.ndarray) -> Tensor:
            counts = valid.sum(axis=(1, 2))
            total = (values * valid[..., None]).sum(axis=(1, 2))
            return total * (1.0 / np.maximum(counts, 1.0))[:, None]

        chart_vecs = _pooled(chart_batch, np.asarray(chart_mask, dtype=bool))
        table_vecs = _pooled(table_batch, np.asarray(segment_mask, dtype=bool))
        return self.head.forward_batch(chart_vecs, table_vecs)


def build_matcher(config: FCMConfig, rng: np.random.Generator) -> Module:
    """Select the matcher according to ``config.use_hcman``."""
    if config.use_hcman:
        return HCMANMatcher(config, rng)
    return AveragedMatcher(config, rng)
