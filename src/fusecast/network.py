"""Full forecasting network: decoupled pattern streams, per-pattern fused
graphs, residual graph convolution stacks, a GRU over time, and a
skip-connection regression head.

A pattern's M graph-convolution blocks differ only in their mixing weights,
so they share one propagation pass mixed by the M weights side by side.

The GRU is one tape record, not 21 per step: gru_forward runs the
recurrence in numpy with the float expressions of the tensor ops it stands
for, keeps only what its hand-written backward-through-time pass reads,
and that pass adds every piece in the order a tape of those ops would. So
predictions, and the gradients of one batch half, are the bits of the loop
of tensor ops.

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

forward_batch makes every batch-wide choice once, on the calling thread:
it normalizes the history, draws the whole batch's dropout mask in
training, and undoes the normalization on the joined prediction. The
halves compute in normalized space and see only their slice of the mask.
forward_batch returns the prediction only: a reader of the graphs or flows
builds them as _forward_windows does, with pools.lookup,
generate_pattern_graph and decouple on the normalized history.

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

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .config import GraphConfig, ModelConfig
from .data import DAYS_PER_WEEK, Normalizer
from .decouple import GateParams, decouple
from .errors import ConfigError, ShapeError
from .graphgen import (AttentionFusionParams, PatternGraphParams, TimeEmbeddingPools,
                       generate_pattern_graph, temporal_feature_matrix)
from .tensor import Tensor, ordered_map


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


def gru_forward(x_seq: Tensor, params: GruParams) -> Tensor:
    """Shared-weight GRU over the time axis of [..., Th, N, d_in], as one tape record.

    Nodes ride along as batch elements; the hidden state starts at a zero
    [1, N, d_h] that every window shares, and the hidden states of every
    step are stacked to [..., Th, N, d_h]. Each step computes

        z = sigmoid(x_t @ wz + h @ uz + bz)
        r = sigmoid(x_t @ wr + h @ ur + br)
        cand = tanh(x_t @ wh + (r * h) @ uh + bh)
        h = (1 - z) * h + z * cand

    in numpy with the float expressions of tensor's ops, in their order and
    at their shapes, the zero state's products included, so the output is
    bitwise that of the same loop of tensor ops. Under a tape the recurrence
    is one record: it keeps z, r, cand and h of each step, and its pulls
    share one backward-through-time pass (see _gru_backward). Without a tape
    nothing outlives its step.
    """
    operands = [x_seq] + [getattr(params, f.name) for f in fields(params)]
    x, *weights = [t.data for t in operands]
    wz, wr, wh, uz, ur, uh, bz, br, bh = weights
    if x.ndim < 3 or x.shape[-3] == 0 or x.shape[-1] != wz.shape[0]:
        raise ShapeError(f"gru: input {x.shape} is not [..., Th>0, N, d_in={wz.shape[0]}]")
    taped = T.active_tape() is not None and any(t.requires_grad for t in operands)
    th, n = x.shape[-3], x.shape[-2]
    out = np.empty(x.shape[:-1] + (uz.shape[0],), dtype=np.result_type(x, *weights))
    h = np.zeros((1, n, uz.shape[0]), dtype=x.dtype)
    saved = []  # (h_{t-1}, z, r, cand) of each step, under a tape
    for t in range(th):
        x_t = x[..., t:t + 1, :, :]
        z = 0.5 * (np.tanh(0.5 * (x_t @ wz + h @ uz + bz)) + 1.0)
        r = 0.5 * (np.tanh(0.5 * (x_t @ wr + h @ ur + br)) + 1.0)
        cand = np.tanh(x_t @ wh + (r * h) @ uh + bh)
        if taped:
            saved.append((h, z, r, cand))
        h = (1.0 - z) * h + z * cand
        out[..., t:t + 1, :, :] = h
    if not taped:
        return Tensor(out)

    pieces = {}  # operand index -> gradient, filled by the first pull that runs

    def pull(i):
        def fn(g):
            if not pieces:
                pieces.update(enumerate(_gru_backward(g, x, weights, saved)))
            return pieces.pop(i)
        return fn

    return T._make(out, [(t, pull(i)) for i, t in enumerate(operands)])


def _gru_backward(g, x, weights, saved):
    """The gradients of x and of wz ... bh from the output's gradient g, emptying saved.

    Every expression is the pull of the op that the taped loop in
    gru_forward's docstring records, at that op's shapes: a sigmoid's
    g * out * (1 - out), a tanh's g * (1 - out * out), _unbroadcast for the
    biases and for the zero state, which every window shares, and one
    a.reshape(rows, K).T @ g.reshape(rows, n) per weight. A tape adds a
    tensor's pieces in reverse record order, so h_{t-1} takes its output
    slice first, then the 1 - z, r * h, ur and uz paths, and each weight
    its pieces from the last step to the first. The gradients are therefore
    bitwise the loop's for one list of records; across the two batch
    halves, each weight's gradient adds one sum per half instead of one
    piece per step, which reassociates.
    """
    wz, wr, wh, uz, ur, uh, bz, br, bh = weights
    th, d_in, d_h = x.shape[-3], x.shape[-1], uz.shape[0]
    gx = np.empty(x.shape, dtype=g.dtype)
    sums = [None] * len(weights)
    gh = g[..., th - 1:th, :, :]
    for t in reversed(range(th)):
        h, z, r, cand = saved.pop()
        x_t = x[..., t:t + 1, :, :]
        gz = gh * cand + -(gh * h)  # z * cand's pull, then 1 - z's
        ga_h = gh * z * (1.0 - cand * cand)  # z * cand's, then tanh's
        rh = r * h
        grh = ga_h @ uh.T
        ga_r = grh * h * r * (1.0 - r)  # r * h's, then sigmoid's
        ga_z = gz * z * (1.0 - z)
        gx[..., t:t + 1, :, :] = ga_h @ wh.T + ga_r @ wr.T + ga_z @ wz.T
        # h @ ur's and h @ uz's output; at t = 0 it is summed over the windows
        gr_h, gz_h = T._unbroadcast(ga_r, h.shape), T._unbroadcast(ga_z, h.shape)
        x_rows = x_t.reshape(math.prod(x_t.shape[:-1]), d_in)
        h_rows = h.reshape(math.prod(h.shape[:-1]), d_h)
        # this step's pieces of wz, wr, wh, uz, ur, uh, bz, br, bh
        step = [x_rows.T @ ga.reshape(len(x_rows), d_h) for ga in (ga_z, ga_r, ga_h)]
        step += [h_rows.T @ ga.reshape(len(h_rows), d_h) for ga in (gz_h, gr_h)]
        step.append(rh.reshape(len(x_rows), d_h).T @ ga_h.reshape(len(x_rows), d_h))
        step += [T._unbroadcast(ga, b.shape) for ga, b in ((ga_z, bz), (ga_r, br), (ga_h, bh))]
        for i, piece in enumerate(step):
            if sums[i] is None:
                sums[i] = piece
            else:
                sums[i] += piece
        if t:
            gh = g[..., t - 1:t, :, :] + gh * (1.0 - z)
            gh += grh * r
            gh += gr_h @ ur.T
            gh += gz_h @ uz.T
    return [gx] + sums


class Forecaster:
    """The assembled model over a fixed sensor network.

    It computes in its normalizer's space; Normalizer(0.0, 1.0) keeps raw units.
    """

    def __init__(self, n_nodes: int, steps_per_day: int, model_cfg: ModelConfig,
                 graph_cfg: GraphConfig, normalizer: Normalizer,
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
        self.params: "dict[str, Tensor]" = {}
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

    def parameters(self) -> "dict[str, Tensor]":
        return self.params

    @property
    def n_parameters(self) -> int:
        return sum(p.size for p in self.params.values())

    def state(self) -> "dict[str, np.ndarray]":
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state(self, state: dict):
        for name in state:
            if name not in self.params:
                raise ShapeError(f"checkpoint parameter '{name}' is not in the model")
        for name, p in self.params.items():
            if name not in state:
                raise ShapeError(f"checkpoint is missing parameter '{name}'")
            arr = np.asarray(state[name])
            if arr.shape != p.shape:
                raise ShapeError(
                    f"parameter '{name}': checkpoint shape {arr.shape} != model shape {p.shape}")
            p.data = arr.astype(self.dtype)

    # -- forward -----------------------------------------------------------

    def forward_batch(self, history, tod, dow, training: bool = False, rng=None) -> Tensor:
        """Predict [B, Tf, N, C] raw-unit flow from raw histories [B, Th, N, C].

        tod/dow are integer index arrays [B, Th]. In training with
        model.dropout > 0, the inverted-dropout mask of the whole batch,
        0 or 1/(1-rate) per GRU output, comes from one rng.random call on
        the calling thread, so it does not depend on the split; without an
        rng that raises ConfigError before any compute. The normalization
        is undone once, on the joined prediction. A forward that raises
        before its halves end records nothing, as its checks come before
        the first record and ordered_map joins no group when a task fails.
        """
        cfg = self.cfg
        with _stage("normalize"):
            x_raw = np.asarray(history, dtype=self.dtype)
            if (x_raw.ndim != 4 or x_raw.shape[1] != cfg.history_steps
                    or x_raw.shape[2] != self.n_nodes or x_raw.shape[3] != cfg.channels):
                raise ShapeError(
                    f"history shaped {x_raw.shape} does not match (B, Th={cfg.history_steps}, "
                    f"N={self.n_nodes}, C={cfg.channels})")
            xn = self.normalizer.apply(x_raw)
        tod, dow = np.asarray(tod), np.asarray(dow)
        keep = None
        if training and cfg.dropout > 0.0:
            if rng is None:
                raise ConfigError("training with dropout needs an explicit rng")
            shape = x_raw.shape[:-1] + (cfg.rgc_iterations * cfg.hidden,)
            keep = (rng.random(shape) >= cfg.dropout).astype(self.dtype) / (1.0 - cfg.dropout)

        batch = len(x_raw)
        cuts = [0, (batch + 1) // 2, batch] if batch > 1 else [0, batch]

        def half(h):
            part = slice(cuts[h], cuts[h + 1])
            return self._forward_windows(Tensor(xn[part]), tod[part], dow[part],
                                         None if keep is None else keep[part])

        prediction = T.concat(ordered_map(half, len(cuts) - 1), axis=0)
        return self.normalizer.invert(prediction)

    def _forward_windows(self, xn: Tensor, tod, dow, keep) -> Tensor:
        """The normalized prediction of normalized windows xn [B, Th, N, C].

        keep is the windows' dropout mask [B, Th, N, M*d], or None for none.
        """
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
            return rgc_forward(flows.flows[g] @ w + b, graphs[g], weight, cfg.gamma)

        with _stage("graph-convolution"):
            x_out = T.concat([convolve(g) for g in range(cfg.patterns)], axis=-1)
        del graphs  # one [B, N, N] graph per pattern

        with _stage("temporal-sequence"):
            h_out = gru_forward(x_out, self.gru)
            if keep is not None:
                h_out = T.mul(h_out, keep)

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
            return T.swapaxes(mapped, -3, -2)
