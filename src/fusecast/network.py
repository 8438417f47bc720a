"""Full forecasting network: decoupled pattern streams, per-pattern fused
graphs, residual graph convolution stacks, a GRU over time, and a
skip-connection regression head.

A pattern's M graph-convolution blocks differ only in their mixing weights,
so they share one propagation pass mixed by the M weights side by side.

Each window builds its temporal and fused graphs from its own time
features, so the windows of a batch are independent until the loss; only
the parameters are shared. forward_batch therefore splits every batch into
two contiguous halves of (B+1)//2 and B//2 windows (a single window is one
half) and runs each half's whole forward through tensor.ordered_map, which
records the tape as a plain loop over the halves would and has backward run
the two halves' records concurrently. The split is fixed at two and never
follows the CPU count, so predictions and gradients are the same bits on
any machine; two halves also cost next to nothing at small shapes, where
more and smaller pieces would. Within a half the patterns run as a plain
loop. The parameter-only spatial graph is built once per half.

Forward passes take a leading batch dimension on histories and calendar
indices; graphs that depend on the window's time indices come out batched
as well. Parameters are held in a flat ordered mapping whose names are the
checkpoint contract:

    time_pool.{daily|weekly}
    pattern{g}.spatial_emb.{e1|e2}
    pattern{g}.fusion.{spatial|temporal}.{w1|w2}
    pattern{g}.fusion.attn.head{h}.{wq|wk|wv}, pattern{g}.fusion.attn.wo
    pattern{g}.project.{weight|bias}
    pattern{g}.rgc{m}.weight
    decouple.{g}.{w1|w2}
    gru.{wz|wr|wh|uz|ur|uh|bz|br|bh}
    head.{w1|b1|w2|b2}, head.out.{weight|bias}
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import GraphConfig, ModelConfig
from .data import DAYS_PER_WEEK, Normalizer
from .decouple import GateParams, PatternFlows, decouple
from .errors import ShapeError
from .graphgen import (AdjacencySet, AttentionFusionParams, PatternGraphParams,
                       TimeEmbeddingPools, generate_pattern_graph, temporal_feature_matrix)
from .tensor import Tensor, ordered_map, undo_on_error


@dataclass
class GruParams:
    wz: Tensor
    wr: Tensor
    wh: Tensor
    uz: Tensor
    ur: Tensor
    uh: Tensor
    bz: Tensor
    br: Tensor
    bh: Tensor


@dataclass
class ForwardActivations:
    """Intermediate tensors of one forward pass, retained for inspection."""

    graphs: list            # per-pattern AdjacencySet
    flows: PatternFlows


@contextmanager
def _stage(name: str):
    """Prefix errors escaping a forward stage with the stage name."""
    try:
        yield
    except Exception as exc:
        if exc.args and isinstance(exc.args[0], str):
            exc.args = (f"[{name}] {exc.args[0]}",) + exc.args[1:]
        else:
            exc.args = (f"[{name}]",) + exc.args
        raise


def normalized_propagation(adjacency: Tensor) -> Tensor:
    """Self-looped, degree-normalized operator: rows sum to one exactly.

    The added identity guarantees every row degree is at least 1, so the
    division is always well defined on non-negative adjacencies.
    """
    n = adjacency.shape[-1]
    a_tilde = T.add(adjacency, Tensor(np.eye(n, dtype=adjacency.dtype)))
    degree = a_tilde.sum(axis=-1, keepdims=True)
    return T.div(a_tilde, degree)


def rgc_forward(h_in: Tensor, adjacency: Tensor, weight: Tensor, gamma: float) -> Tensor:
    """Residual graph convolution over [..., Th, N, d] node features.

    Adds self-loops, row-normalizes by degree, then alternates between
    retaining gamma of the input and propagating the rest, concatenating
    every depth level before the mixing weights [depth*d, d_out]. The
    depth is weight.shape[0] // d; a weight whose row count is not a
    multiple of d fails in the mixing product with ShapeError.

    Runs node-major: features are transposed once to [..., N, Th*d], so
    the [..., N, N] (or [N, N]) operator propagates all Th steps in one
    product and its gradient never materializes [..., Th, N, N]. Levels
    are mixed as [..., N, Th, depth*d], then transposed back.
    """
    prop = normalized_propagation(adjacency)
    lead, (th, n, d) = h_in.shape[:-3], h_in.shape[-3:]
    node_major = T.swapaxes(h_in, -3, -2)
    x = T.reshape(node_major, lead + (n, th * d))
    levels = [node_major]
    h = x
    for _ in range(weight.shape[0] // d - 1):
        h = T.add(T.mul(x, gamma), T.mul(T.matmul(prop, h), 1.0 - gamma))
        levels.append(T.reshape(h, lead + (n, th, d)))
    return T.swapaxes(T.matmul(T.concat(levels, axis=-1), weight), -3, -2)


def gru_forward(x_seq: Tensor, params: GruParams, dropout_rate: float,
                training: bool, uniforms: np.ndarray | None = None) -> Tensor:
    """Shared-weight GRU over the time axis of [..., Th, N, d_in].

    Nodes ride along as batch elements; the hidden state starts at zero
    and the stacked outputs pass through inverted dropout, whose uniform
    draws [..., Th, N, d_h] the caller supplies in training mode.
    """
    th = x_seq.shape[-3]
    n = x_seq.shape[-2]
    d_h = params.uz.shape[0]
    h = Tensor(np.zeros((1, n, d_h), dtype=x_seq.dtype))
    outputs = []
    for t in range(th):
        x_t = T.narrow(x_seq, -3, t, 1)
        z = T.sigmoid(x_t @ params.wz + h @ params.uz + params.bz)
        r = T.sigmoid(x_t @ params.wr + h @ params.ur + params.br)
        cand = T.tanh(x_t @ params.wh + (r * h) @ params.uh + params.bh)
        h = (1.0 - z) * h + z * cand
        outputs.append(h)
    stacked = T.concat(outputs, axis=-3)
    return T.dropout(stacked, dropout_rate, training, uniforms=uniforms)


class Forecaster:
    """The assembled model over a fixed sensor network."""

    def __init__(self, n_nodes: int, steps_per_day: int, model_cfg: ModelConfig,
                 graph_cfg: GraphConfig, normalizer: Normalizer | None = None,
                 predefined_graph: np.ndarray | None = None,
                 dtype=np.float32, seed: int = 0):
        model_cfg.validate()
        graph_cfg.validate_for_nodes(n_nodes)
        self.n_nodes = n_nodes
        self.steps_per_day = steps_per_day
        self.cfg = model_cfg
        self.graph_cfg = graph_cfg
        self.normalizer = normalizer
        self.predefined_graph = None
        if predefined_graph is not None:
            self.predefined_graph = np.asarray(predefined_graph, dtype=dtype)
        self.dtype = np.dtype(dtype)
        self._rng = np.random.default_rng(seed)
        self.params: "OrderedDict[str, Tensor]" = OrderedDict()
        self._build()

    # -- parameter construction -------------------------------------------

    def _matrix(self, name: str, shape) -> Tensor:
        bound = 1.0 / np.sqrt(shape[0])  # fan-in: the input rows
        data = self._rng.uniform(-bound, bound, size=shape).astype(self.dtype)
        return self._register(name, data)

    def _embedding(self, name: str, shape) -> Tensor:
        data = (0.01 * self._rng.standard_normal(size=shape)).astype(self.dtype)
        return self._register(name, data)

    def _zeros(self, name: str, shape) -> Tensor:
        return self._register(name, np.zeros(shape, dtype=self.dtype))

    def _register(self, name: str, data: np.ndarray) -> Tensor:
        t = Tensor(data, requires_grad=True)
        self.params[name] = t
        return t

    def _build(self):
        cfg, n = self.cfg, self.n_nodes
        nd, d_time = cfg.node_embed_dim, cfg.time_embed_dim
        d, m_iter, g_pat, k = cfg.hidden, cfg.rgc_iterations, cfg.patterns, cfg.depth
        heads = self.graph_cfg.heads
        head_dim = self.graph_cfg.resolve_head_dim(n)

        self.pools = TimeEmbeddingPools(
            daily=self._embedding("time_pool.daily", (self.steps_per_day, n, d_time)),
            weekly=self._embedding("time_pool.weekly", (DAYS_PER_WEEK, n, d_time)),
        )

        self.patterns = []
        self.projections = []
        self.rgc_weights = []
        for g in range(g_pat):
            p = f"pattern{g}"
            e1 = self._embedding(f"{p}.spatial_emb.e1", (n, nd))
            e2 = self._embedding(f"{p}.spatial_emb.e2", (n, nd))
            spatial_w1 = self._matrix(f"{p}.fusion.spatial.w1", (nd, nd))
            spatial_w2 = self._matrix(f"{p}.fusion.spatial.w2", (nd, nd))
            temporal_w1 = self._matrix(f"{p}.fusion.temporal.w1", (d_time, d_time))
            temporal_w2 = self._matrix(f"{p}.fusion.temporal.w2", (d_time, d_time))
            query, key, value = [], [], []
            for h in range(heads):
                query.append(self._matrix(f"{p}.fusion.attn.head{h}.wq", (n, head_dim)))
                key.append(self._matrix(f"{p}.fusion.attn.head{h}.wk", (n, head_dim)))
                value.append(self._matrix(f"{p}.fusion.attn.head{h}.wv", (n, head_dim)))
            fusion = AttentionFusionParams(
                query=query, key=key, value=value,
                output=self._matrix(f"{p}.fusion.attn.wo", (heads * head_dim, n)),
            )
            self.patterns.append(PatternGraphParams(
                e1=e1, e2=e2, spatial_w1=spatial_w1, spatial_w2=spatial_w2,
                temporal_w1=temporal_w1, temporal_w2=temporal_w2, fusion=fusion,
            ))

            self.projections.append((
                self._matrix(f"{p}.project.weight", (cfg.channels, d)),
                self._zeros(f"{p}.project.bias", (d,)),
            ))
            self.rgc_weights.append([
                self._matrix(f"{p}.rgc{m}.weight", (k * d, d)) for m in range(m_iter)
            ])

        self.gates = [
            GateParams(
                w1=self._matrix(f"decouple.{g}.w1", (2 * d_time + nd, cfg.gate_hidden)),
                w2=self._matrix(f"decouple.{g}.w2", (cfg.gate_hidden, 1)),
            )
            for g in range(g_pat - 1)
        ]

        d_in = g_pat * m_iter * d
        d_h = m_iter * d
        self.gru = GruParams(
            wz=self._matrix("gru.wz", (d_in, d_h)),
            wr=self._matrix("gru.wr", (d_in, d_h)),
            wh=self._matrix("gru.wh", (d_in, d_h)),
            uz=self._matrix("gru.uz", (d_h, d_h)),
            ur=self._matrix("gru.ur", (d_h, d_h)),
            uh=self._matrix("gru.uh", (d_h, d_h)),
            bz=self._zeros("gru.bz", (d_h,)),
            br=self._zeros("gru.br", (d_h,)),
            bh=self._zeros("gru.bh", (d_h,)),
        )

        skip = d_h + d_in + cfg.channels + 2 * d_time
        self.head_w1 = self._matrix("head.w1", (skip, cfg.head_hidden))
        self.head_b1 = self._zeros("head.b1", (cfg.head_hidden,))
        self.head_w2 = self._matrix("head.w2", (cfg.head_hidden, cfg.head_channels))
        self.head_b2 = self._zeros("head.b2", (cfg.head_channels,))
        out_in = cfg.history_steps * cfg.head_channels
        out_dim = cfg.horizon_steps * cfg.channels
        self.head_out_w = self._matrix("head.out.weight", (out_in, out_dim))
        self.head_out_b = self._zeros("head.out.bias", (out_dim,))

    # -- state handling ----------------------------------------------------

    def parameters(self) -> "OrderedDict[str, Tensor]":
        return self.params

    @property
    def n_parameters(self) -> int:
        return sum(p.size for p in self.params.values())

    def state(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict((name, p.data.copy()) for name, p in self.params.items())

    def load_state(self, state: dict):
        for name, p in self.params.items():
            if name not in state:
                raise ShapeError(f"checkpoint is missing parameter '{name}'")
            arr = np.asarray(state[name])
            if arr.shape != p.shape:
                raise ShapeError(
                    f"parameter '{name}': checkpoint shape {arr.shape} != model shape {p.shape}")
            p.data = arr.astype(self.dtype)

    # -- forward -----------------------------------------------------------

    def forward_batch(self, history, tod, dow, training: bool = False, rng=None,
                      collect: bool = False):
        """Predict [B, Tf, N, C] raw-unit flow from raw histories [B, Th, N, C].

        tod/dow are integer index arrays [B, Th]. Returns the prediction
        tensor, or (prediction, ForwardActivations) when collect is set; the
        activations are the halves' merged along the batch axis, and a
        parameter-only graph is the first half's. The dropout draws of the
        whole batch come from one rng.random call on the calling thread, so
        they do not depend on the split. A forward that raises leaves the
        active tape as it found it.
        """
        cfg = self.cfg
        with undo_on_error():
            with _stage("normalize"):
                x_raw = np.asarray(history, dtype=self.dtype)
                if (x_raw.ndim != 4 or x_raw.shape[1] != cfg.history_steps
                        or x_raw.shape[2] != self.n_nodes or x_raw.shape[3] != cfg.channels):
                    raise ShapeError(
                        f"history shaped {x_raw.shape} does not match (B, Th={cfg.history_steps}, "
                        f"N={self.n_nodes}, C={cfg.channels})")
                xn = self.normalizer.apply(x_raw) if self.normalizer else x_raw
            tod, dow = np.asarray(tod), np.asarray(dow)
            uniforms = None
            if training and cfg.dropout > 0.0 and rng is not None:
                uniforms = rng.random(x_raw.shape[:-1] + (cfg.rgc_iterations * cfg.hidden,))

            batch = len(x_raw)
            cuts = [0, (batch + 1) // 2, batch] if batch > 1 else [0, batch]

            def half(h):
                part = slice(cuts[h], cuts[h + 1])
                return self._forward_windows(
                    Tensor(xn[part]), tod[part], dow[part], training,
                    None if uniforms is None else uniforms[part], collect)

            parts = ordered_map(half, len(cuts) - 1)
            prediction = T.concat([p for p, _ in parts], axis=0)
            if not collect:
                return prediction
            return prediction, _merge([a for _, a in parts])

    def _forward_windows(self, xn: Tensor, tod, dow, training: bool, uniforms, collect: bool):
        """(prediction, ForwardActivations or None) of normalized windows xn [B, Th, N, C]."""
        cfg = self.cfg
        with _stage("time-lookups"):
            daily_l, weekly_l = self.pools.lookup(tod, dow)
            time_features = temporal_feature_matrix(daily_l, weekly_l)
        with _stage("graph-generation"):
            graphs = [generate_pattern_graph(params, time_features, self.graph_cfg,
                                             self.predefined_graph)
                      for params in self.patterns]

        with _stage("decouple"):
            flows = decouple(xn, daily_l, weekly_l, self.patterns[0].e1, self.gates)

        def convolve(g):
            w, b = self.projections[g]
            weight = T.concat(self.rgc_weights[g], axis=-1)
            return rgc_forward(flows.flows[g] @ w + b, graphs[g].final, weight, cfg.gamma)

        with _stage("graph-convolution"):
            x_out = T.concat([convolve(g) for g in range(cfg.patterns)], axis=-1)
        activations = ForwardActivations(graphs=graphs, flows=flows) if collect else None
        del graphs  # spatial, temporal and final, [B, N, N] each, unless collected

        with _stage("temporal-sequence"):
            h_out = gru_forward(x_out, self.gru, cfg.dropout, training, uniforms)

        with _stage("regression-head"):
            # relu's pull reads only its output and concat's reads nothing,
            # so the pre-ReLU skip features are freed before the product
            h_skip = T.relu(T.concat([h_out, x_out, xn, daily_l, weekly_l], axis=-1))
            hidden = (T.relu(h_skip @ self.head_w1 + self.head_b1)
                      @ self.head_w2 + self.head_b2)

            # fold time into channels per node, map to the full horizon at once
            per_node = T.swapaxes(hidden, -3, -2)
            lead = per_node.shape[:-2]
            flat = T.reshape(per_node, lead + (cfg.history_steps * cfg.head_channels,))
            mapped = flat @ self.head_out_w + self.head_out_b
            mapped = T.reshape(mapped, lead + (cfg.horizon_steps, cfg.channels))
            prediction = T.swapaxes(mapped, -3, -2)

            if self.normalizer:
                prediction = self.normalizer.invert(prediction)
        return prediction, activations


def _merge(parts):
    """The halves' activations as one: tensors with a batch axis join along it.

    A graph without one ([N, N], built from parameters only) is the same in
    every half, so the first half's stands for all.
    """
    first = parts[0]
    if isinstance(first, list):
        return [_merge(list(items)) for items in zip(*parts)]
    if dataclasses.is_dataclass(first):
        return type(first)(**{f.name: _merge([getattr(p, f.name) for p in parts])
                              for f in dataclasses.fields(first)})
    if first is None or first.ndim == 2:
        return first
    return T.concat(parts, axis=0)
