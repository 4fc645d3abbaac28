"""The FCM model: encoders + matcher producing ``Rel'(V, T)``.

The model composes the segment-level line chart encoder (Sec. IV-B), the
segment-level dataset encoder (Sec. IV-C, optionally with the DA layers of
Sec. V) and the cross-modal matcher (Sec. IV-D).  Its two ablations are
selected through :class:`~repro.fcm.config.FCMConfig`:

* ``use_hcman=False`` — FCM−HCMAN (Table V);
* ``enable_da_layers=False`` — FCM−DA (Table VI).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..nn import Module, Tensor, using_dtype
from .chart_encoder import SegmentLineChartEncoder
from .config import FCMConfig
from .dataset_encoder import SegmentDatasetEncoder
from .matcher import build_matcher
from .preprocessing import ChartInput, TableInput


class FCMModel(Module):
    """Fine-grained Cross-modal Relevance Learning Model.

    Precision: the model's dtype is pinned at construction — an explicit
    ``config.dtype`` wins, otherwise the process-wide policy
    (:mod:`repro.nn.dtype`) is adopted and written back onto the config.
    Parameters are initialised under that dtype (same random value stream as
    float64, rounded), encoder inputs are cast to it, and downstream
    consumers (scorer caches, LSH, snapshots, sharded-build workers) read it
    from ``config`` so a model and its index structures can never disagree.
    """

    def __init__(self, config: Optional[FCMConfig] = None) -> None:
        super().__init__()
        config = config or FCMConfig()
        if config.dtype is None:
            config = config.with_overrides(dtype=str(config.numeric_dtype))
        self.config = config
        rng = np.random.default_rng(self.config.seed)
        with using_dtype(self.config.numeric_dtype):
            self.chart_encoder = SegmentLineChartEncoder(self.config, rng)
            self.dataset_encoder = SegmentDatasetEncoder(self.config, rng)
            self.matcher = build_matcher(self.config, rng)

    # ------------------------------------------------------------------ #
    # Differentiable building blocks
    # ------------------------------------------------------------------ #
    def encode_chart(self, chart_input: ChartInput) -> Tensor:
        """``E_V`` of shape ``(M, N1, K)``."""
        return self.chart_encoder(chart_input.segment_features)

    def encode_table(self, table_input: TableInput) -> Tensor:
        """``E_T`` of shape ``(NC, N2, K)``."""
        if table_input.is_empty:
            raise ValueError(
                f"table {table_input.table_id!r} has no columns to encode"
            )
        return self.dataset_encoder(table_input.segments)

    def match(self, chart_repr: Tensor, table_repr: Tensor) -> Tensor:
        """``Rel'(V, T)`` as a scalar tensor in ``[0, 1]``."""
        return self.matcher(chart_repr, table_repr)

    def encode_chart_batch(self, chart_inputs: Sequence[ChartInput]) -> List[Tensor]:
        """``E_V`` for several charts via one stacked chart-encoder call.

        Returns one ``(M_i, N1, K)`` tensor per input, each equal to
        :meth:`encode_chart` on that chart alone (all charts prepared under
        one config share ``N1``/``F1``, so their lines concatenate into a
        single transformer batch).  Differentiable — the batched trainer
        encodes every chart of a minibatch through here.
        """
        return self.chart_encoder.forward_many(
            [chart_input.segment_features for chart_input in chart_inputs]
        )

    def encode_table_batch(self, table_inputs: Sequence[TableInput]) -> List[Tensor]:
        """``E_T`` for several tables via one padded dataset-encoder call.

        Columns of all tables are flattened into one batch, zero-padded along
        the segment axis to a common ``N2`` and encoded in a single
        transformer call with a key-padding attention mask; the result is
        split back into per-table ``(NC_i, N2_i, K)`` tensors matching
        :meth:`encode_table` on each table alone to floating-point accuracy.
        Used with gradients by the batched trainer and under
        :meth:`~repro.nn.Module.inference` by
        :meth:`FCMScorer.index_repository <repro.fcm.scorer.FCMScorer.index_repository>`.
        """
        for table_input in table_inputs:
            if table_input.is_empty:
                raise ValueError(
                    f"table {table_input.table_id!r} has no columns to encode"
                )
        return self.dataset_encoder.forward_many(
            [table_input.segments for table_input in table_inputs]
        )

    def match_pairs(
        self,
        chart_batch: Tensor,
        table_batch: Tensor,
        chart_mask: np.ndarray,
        segment_mask: np.ndarray,
    ) -> Tensor:
        """``Rel'(V_p, T_p)`` for ``P`` independent padded pairs, shape ``(P,)``.

        Each pair carries its own padded chart ``(P, M, N1, K)`` (masked by
        ``chart_mask`` ``(P, M, N1)``) against its own padded table
        ``(P, NC, N2, K)`` (masked by ``segment_mask`` ``(P, NC, N2)``).  One
        stacked, fully differentiable matcher forward replaces ``P``
        per-pair :meth:`match` calls and returns the same scores.

        Example
        -------
        >>> chart_batch, cmask = pad_stack([chart_repr, chart_repr])
        >>> table_batch, tmask = pad_stack([positive_repr, negative_repr])
        >>> scores = model.match_pairs(chart_batch, table_batch,
        ...                            cmask[..., 0], tmask[..., 0])  # (2,)
        """
        return self.matcher.forward_pairs(
            chart_batch, table_batch, chart_mask, segment_mask
        )

    def forward(self, chart_input: ChartInput, table_input: TableInput) -> Tensor:
        return self.match(self.encode_chart(chart_input), self.encode_table(table_input))

    # ------------------------------------------------------------------ #
    # Inference helpers (no gradient bookkeeping needed by callers)
    # ------------------------------------------------------------------ #
    def relevance(self, chart_input: ChartInput, table_input: TableInput) -> float:
        """Scalar relevance score for one (chart, table) pair (no gradients)."""
        with self.inference():
            return float(self.forward(chart_input, table_input).item())

    def column_embeddings(self, table_input: TableInput) -> np.ndarray:
        """Column-level embeddings for the LSH index, shape ``(NC, K)``."""
        with self.inference():
            return self.dataset_encoder.column_embeddings(table_input.segments)

    def line_embeddings(self, chart_input: ChartInput) -> np.ndarray:
        """Line-level embeddings (mean over segments), shape ``(M, K)``."""
        with self.inference():
            return self.encode_chart(chart_input).numpy().mean(axis=1)
