"""Adaptive adjacency construction: spatial, temporal, and attention-fused.

Each traffic pattern owns an independent set of node embeddings, score
projections, and fusion weights, held as one plain sequence in checkpoint
order (see generate_pattern_graph). The temporal side is driven by
learnable time pools indexed by time-of-day and day-of-week, averaged over
the history window, so the graphs are per-window but constant across the
window's time steps.

All functions accept an optional leading batch dimension on the
window-dependent inputs and broadcast the parameter-only ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import GraphConfig
from .errors import ConfigError
from .tensor import Tensor


@dataclass
class TimeEmbeddingPools:
    """Per-node learnable embeddings for each time-of-day and day-of-week slot."""

    daily: Tensor   # [steps_per_day, N, D]
    weekly: Tensor  # [7, N, D]

    def lookup(self, tod_index: np.ndarray, dow_index: np.ndarray):
        """Gather pool slices for index arrays of shape [..., Th].

        Returns (daily, weekly) tensors of shape [..., Th, N, D].
        """
        return T.gather(self.daily, tod_index), T.gather(self.weekly, dow_index)


def build_directed_graph(f1: Tensor, f2: Tensor, w1: Tensor, w2: Tensor,
                         alpha: float, k: int) -> Tensor:
    """Directed adjacency from two feature matrices [..., N, F].

    Projects both sides through saturated tanh, scores with the
    antisymmetric product m1 @ m2^T - m2 @ m1^T (so the diagonal is exactly
    zero and at most one direction of each pair survives the ReLU), then
    keeps the top k entries per row of relu(tanh(alpha * score)), which
    tensor.saturated_top_k makes as one record that keeps only the graph.
    """
    m1 = T.tanh(T.mul(T.matmul(f1, w1), alpha))
    m2 = T.tanh(T.mul(T.matmul(f2, w2), alpha))
    score = T.sub(T.matmul(m1, T.swapaxes(m2, -1, -2)), T.matmul(m2, T.swapaxes(m1, -1, -2)))
    return T.saturated_top_k(score, alpha, k)


def temporal_feature_matrix(daily_lookup: Tensor, weekly_lookup: Tensor):
    """Average pool lookups [..., Th, N, D] over the window's time axis."""
    return daily_lookup.mean(axis=-3), weekly_lookup.mean(axis=-3)


def fuse_graphs(a_spatial: Tensor, a_temporal: Tensor, beta: float, heads, output: Tensor,
                return_scores: bool = False):
    """Blend spatial and temporal adjacencies through multi-head attention.

    heads holds one (wq, wk, wv) triple of [N, d_h] projections per head,
    and output is the [heads*d_h, N] projection of the joined heads. The
    saturated product of the two graphs, relu(tanh(beta * a_s @ a_t)) as
    one tensor.saturated_top_k record that keeps every entry, is the
    attention's value input. Each head is one tensor.attention record,
    which keeps its query, key and value but not its [..., N, N] scores.
    Returns `final`, the attention output after the terminal ReLU that
    keeps the adjacency non-negative, or (final, head_scores) with
    return_scores: head_scores are the per-head attention matrices as
    Tensors without a gradient, computed by the helper the heads run, so
    they are the bits the forward used.
    """
    fused = T.saturated_top_k(T.matmul(a_spatial, a_temporal), beta, a_temporal.shape[-1])
    head_outputs = []
    head_scores = []
    for wq, wk, wv in heads:
        q = T.matmul(a_spatial, wq)
        k = T.matmul(a_temporal, wk)
        v = T.matmul(fused, wv)
        scale = 1.0 / np.sqrt(wq.shape[-1])
        if return_scores:  # [..., N, N] each, so made only when asked for
            head_scores.append(Tensor(T._attention_scores(q.data, k.data, scale)))
        head_outputs.append(T.attention(q, k, v, scale))
    final = T.relu(T.matmul(T.concat(head_outputs, axis=-1), output))
    if return_scores:
        return final, head_scores
    return final


def generate_pattern_graph(weights, time_features, cfg: GraphConfig,
                           predefined: np.ndarray | None = None) -> Tensor:
    """The adjacency one pattern convolves with, in the graph mode `cfg.mode`.

    That is the predefined road graph, the spatial or the temporal graph of
    build_directed_graph, or, in "fused" mode, fuse_graphs of the two.
    weights are the pattern's graph weights in checkpoint order: the node
    embeddings e1, e2 [N, Nd], the spatial w1, w2 [Nd, Nd], the temporal
    w1, w2 [D, D], one (wq, wk, wv) triple per attention head, and wo.
    `time_features` is the (daily, weekly) averaged feature pair from
    temporal_feature_matrix; it may carry a leading batch dimension.
    """
    mode = cfg.mode
    if mode == "predefined":
        if predefined is None:
            raise ConfigError("graph mode 'predefined' needs a loaded road-network adjacency")
        return Tensor(predefined)
    e1, e2, spatial_w1, spatial_w2, temporal_w1, temporal_w2, *heads, wo = weights

    def spatial():
        return build_directed_graph(e1, e2, spatial_w1, spatial_w2, cfg.alpha, cfg.k_spatial)

    def temporal():
        td_bar, tw_bar = time_features
        return build_directed_graph(td_bar, tw_bar, temporal_w1, temporal_w2,
                                    cfg.alpha, cfg.k_temporal)

    if mode == "spatial_only":
        return spatial()
    if mode == "temporal_only":
        return temporal()
    if mode == "fused":
        return fuse_graphs(spatial(), temporal(), cfg.beta, heads, wo)
    raise ConfigError(f"unknown graph mode {mode!r}")
