"""Traffic pattern decoupling via learned sigmoid gates.

The input flow is split into G streams: the first G-1 are gated fractions
of the input, and the last is the exact residual, so the streams always
sum back to the input up to float addition order. Each stream's gate maps
the rectified concatenation of time embeddings and node embeddings through
its own pair of weight matrices; with zero weights every gate sits at
sigmoid(0) = 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .tensor import Tensor


@dataclass
class PatternFlows:
    """The G decoupled streams plus the G-1 gate ratio tensors."""

    flows: list       # G tensors, each shaped like the input
    ratios: list      # G-1 gate tensors [..., Th, N, 1], values in (0, 1)


def decouple(x: Tensor, daily_lookup: Tensor, weekly_lookup: Tensor,
             node_embed: Tensor, gates: list) -> PatternFlows:
    """Split flow x [..., Th, N, C] into len(gates)+1 pattern streams.

    daily_lookup/weekly_lookup are the per-step pool slices [..., Th, N, D];
    node_embed [N, Nd] is repeated across the window's time steps. Each
    gate is a (w1 [2D+Nd, hidden], w2 [hidden, 1]) pair of weights with no
    biases. With no gates the single stream is x itself.
    """
    if not gates:
        return PatternFlows(flows=[x], ratios=[])
    # repeat the per-node embedding over batch and time so concat sees equal dims
    tiled = T.broadcast_to(node_embed, x.shape[:-2] + node_embed.shape)
    features = T.relu(T.concat([daily_lookup, weekly_lookup, tiled], axis=-1))

    flows, ratios = [], []
    gated_total = None
    for w1, w2 in gates:
        ratio = T.sigmoid(T.matmul(T.matmul(features, w1), w2))
        stream = T.mul(x, ratio)
        flows.append(stream)
        ratios.append(ratio)
        gated_total = stream if gated_total is None else T.add(gated_total, stream)
    flows.append(T.sub(x, gated_total))  # exact residual stream
    return PatternFlows(flows=flows, ratios=ratios)
