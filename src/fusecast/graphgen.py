"""Adaptive adjacency construction: spatial, temporal, and attention-fused.

Each traffic pattern owns an independent set of node embeddings, score
projections, and fusion weights. The temporal side is driven by learnable
time pools indexed by time-of-day and day-of-week, averaged over the
history window, so the graphs are per-window but constant across the
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


@dataclass
class AttentionFusionParams:
    """Per-head projections [N, d_h] and the output projection [s*d_h, N]."""

    query: list
    key: list
    value: list
    output: Tensor


@dataclass
class PatternGraphParams:
    """Everything one traffic pattern needs to build its adjacency set."""

    e1: Tensor  # [N, Nd], the two node embeddings behind the spatial score
    e2: Tensor
    spatial_w1: Tensor  # [Nd, Nd]
    spatial_w2: Tensor
    temporal_w1: Tensor  # [D, D]
    temporal_w2: Tensor
    fusion: AttentionFusionParams


@dataclass
class AdjacencySet:
    """One pattern's spatial and temporal graphs and the `final` graph it convolves with.

    `final` always exists; a graph not built in the active mode stays None.
    """

    spatial: Tensor | None
    temporal: Tensor | None
    final: Tensor


def build_directed_graph(f1: Tensor, f2: Tensor, w1: Tensor, w2: Tensor,
                         alpha: float, k: int) -> Tensor:
    """Directed adjacency from two feature matrices [..., N, F].

    Projects both sides through saturated tanh, scores with the
    antisymmetric product m1 @ m2^T - m2 @ m1^T (so the diagonal is exactly
    zero and at most one direction of each pair survives the ReLU), then
    keeps the top k entries per row.
    """
    m1 = T.tanh(T.mul(T.matmul(f1, w1), alpha))
    m2 = T.tanh(T.mul(T.matmul(f2, w2), alpha))
    score = T.sub(T.matmul(m1, T.swapaxes(m2, -1, -2)), T.matmul(m2, T.swapaxes(m1, -1, -2)))
    raw = T.relu(T.tanh(T.mul(score, alpha)))
    return T.top_k_rows(raw, k)


def temporal_feature_matrix(daily_lookup: Tensor, weekly_lookup: Tensor):
    """Average pool lookups [..., Th, N, D] over the window's time axis."""
    return daily_lookup.mean(axis=-3), weekly_lookup.mean(axis=-3)


def fuse_graphs(a_spatial: Tensor, a_temporal: Tensor, beta: float,
                params: AttentionFusionParams, return_scores: bool = False):
    """Blend spatial and temporal adjacencies through multi-head attention.

    The saturated product of the two graphs is the attention's value
    input. Returns `final`, the attention output after the terminal ReLU
    that keeps the adjacency non-negative, or (final, head_scores) with
    return_scores, head_scores being the per-head attention matrices.
    """
    fused = T.relu(T.tanh(T.mul(T.matmul(a_spatial, a_temporal), beta)))
    head_outputs = []
    head_scores = []
    for wq, wk, wv in zip(params.query, params.key, params.value):
        q = T.matmul(a_spatial, wq)
        k = T.matmul(a_temporal, wk)
        v = T.matmul(fused, wv)
        scale = 1.0 / np.sqrt(wq.shape[-1])
        scores = T.softmax(T.mul(T.matmul(q, T.swapaxes(k, -1, -2)), scale), axis=-1)
        head_scores.append(scores)
        head_outputs.append(T.matmul(scores, v))
    final = T.relu(T.matmul(T.concat(head_outputs, axis=-1), params.output))
    if return_scores:
        return final, head_scores
    return final


def generate_pattern_graph(params: PatternGraphParams, time_features, cfg: GraphConfig,
                           predefined: np.ndarray | None = None) -> AdjacencySet:
    """Build one pattern's AdjacencySet in the graph mode `cfg.mode`.

    `time_features` is the (daily, weekly) averaged feature pair from
    temporal_feature_matrix; it may carry a leading batch dimension.
    """
    mode = cfg.mode
    if mode == "predefined":
        if predefined is None:
            raise ConfigError("graph mode 'predefined' needs a loaded road-network adjacency")
        return AdjacencySet(spatial=None, temporal=None, final=Tensor(predefined))

    spatial = temporal = None
    if mode in ("fused", "spatial_only"):
        spatial = build_directed_graph(params.e1, params.e2, params.spatial_w1, params.spatial_w2,
                                       cfg.alpha, cfg.k_spatial)
    if mode in ("fused", "temporal_only"):
        td_bar, tw_bar = time_features
        temporal = build_directed_graph(td_bar, tw_bar, params.temporal_w1, params.temporal_w2,
                                        cfg.alpha, cfg.k_temporal)
    if mode == "fused":
        final = fuse_graphs(spatial, temporal, cfg.beta, params.fusion)
    elif mode == "spatial_only":
        final = spatial
    elif mode == "temporal_only":
        final = temporal
    else:
        raise ConfigError(f"unknown graph mode {mode!r}")
    return AdjacencySet(spatial=spatial, temporal=temporal, final=final)
