"""Full forecasting network: decoupled pattern streams, per-pattern fused
graphs, residual graph convolution stacks, a GRU over time, and a
skip-connection regression head.

The residual graph convolution (rgc_forward), the GRU (gru_forward), the
dropout on its output (dropout) and the regression head (regression_head)
are each one tape record that keeps only what its hand-written backward
reads, with the bits of the chain of tensor ops it stands for; the
convolution's backward rebuilds its level stack from its input. A pattern's
M graph-convolution blocks differ only in their mixing weights, so one
rgc_forward call propagates once and mixes by the M weights side by side.

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

This order is also the seeded draw order. The groups one function reads
whole are plain sequences in it, passed as they are: gates, a (w1, w2)
pair per gate for decouple; gru, the nine gru.*; head, the six head.*.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import tensor as T
from .config import GraphConfig, ModelConfig
from .data import DAYS_PER_WEEK, Normalizer
from .decouple import decouple
from .errors import ConfigError, ShapeError
from .graphgen import (AttentionFusionParams, PatternGraphParams, TimeEmbeddingPools,
                       generate_pattern_graph, temporal_feature_matrix)
from .tensor import Tensor, ordered_map


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


def normalized_propagation(adjacency: np.ndarray):
    """The self-looped, degree-normalized operator of an [..., N, N] adjacency, and its degree.

    Returns ((A + I) / degree, degree), degree being the [..., N, 1] row
    sums of A + I; the division runs in place in the A + I buffer, so the
    operator's rows sum to one up to rounding. The added identity makes
    every degree at least 1 on a non-negative adjacency, so the division is
    always well defined.
    """
    prop = adjacency + np.eye(adjacency.shape[-1], dtype=adjacency.dtype)
    degree = prop.sum(axis=(prop.ndim - 1,), keepdims=True)
    prop /= degree
    return prop, degree


def rgc_forward(h_in: Tensor, adjacency: Tensor, weight: Tensor, gamma: float) -> Tensor:
    """Residual graph convolution over [..., Th, N, d] node features, as one tape record.

    With P the normalized_propagation operator of the adjacency and depth
    = weight.shape[0] // d, it maps h_in as this chain of tensor ops does:

        x = reshape(swapaxes(h_in, -3, -2), [..., N, Th * d])
        h_0 = x,  h_i = x * gamma + (P @ h_{i-1}) * (1 - gamma)  for 0 < i < depth
        out = swapaxes(concat([h_i as [..., N, Th, d]], axis=-1) @ weight, -3, -2)

    Node-major, the [..., N, N] (or [N, N]) operator propagates all Th
    steps in one product and its gradient never materializes
    [..., Th, N, N]. _rgc_stack writes each level, computed with its ops'
    expressions, straight into one [..., N, Th, depth*d] stack, the operand
    of the mixing product, so the output is the chain's bits. Under a tape
    the record keeps h_in, P and its degree (at depth 1 there is no P), not
    the stack, which _rgc_backward rebuilds. Without a tape P is freed
    before the mixing product.

    A weight whose row count is not a positive multiple of d, an adjacency
    whose last two axes are not [N, N], or one whose leading axes do not
    broadcast to h_in's raises ShapeError before any compute.
    """
    x_data, a, w = h_in.data, adjacency.data, weight.data
    if x_data.ndim < 3:
        raise ShapeError(f"graph convolution: input {x_data.shape} is not [..., Th, N, d]")
    lead, (th, n, d) = x_data.shape[:-3], x_data.shape[-3:]
    if w.ndim != 2 or not d or not w.shape[0] or w.shape[0] % d:
        raise ShapeError(f"graph convolution: weight {w.shape}'s rows are not a positive "
                         f"multiple of d={d}")
    if a.shape[-2:] != (n, n):
        raise ShapeError(f"graph convolution: adjacency {a.shape} is not [..., {n}, {n}] "
                         f"for input {x_data.shape}")
    try:
        joined = np.broadcast_shapes(a.shape[:-2], lead)
    except ValueError:
        joined = None
    if joined != lead:
        raise ShapeError(f"graph convolution: adjacency {a.shape}'s leading axes do not "
                         f"broadcast to input {x_data.shape}'s")
    depth = w.shape[0] // d
    operands = [weight, h_in] + ([adjacency] if depth > 1 else [])
    saved = [np.swapaxes(x_data, -3, -2)]  # h_in node-major, then P and its degree
    scales, need_a, stack = None, adjacency.requires_grad, saved[0]
    if depth > 1:
        prop, degree = normalized_propagation(a)
        # gamma and 1 - gamma in the dtypes of the products they scale
        scales = x_data.dtype.type(gamma), np.result_type(x_data, prop).type(1.0 - gamma)
        stack = _rgc_stack(saved[0], prop, scales, depth)
        if T._taped(operands):
            saved += [prop, degree]
        del prop, degree
    out = np.swapaxes(stack @ w, -3, -2)
    return T._one_record(out, operands, lambda g: _rgc_backward(g, saved, w, d, scales, need_a))


def _rgc_stack(node_major, prop, scales, depth, levels=None):
    """rgc_forward's [..., N, Th, depth*d] level stack of h_in's node-major view.

    Each level is computed with its ops' expressions, in the chain's order.
    A levels list takes h_0 ... h_{depth-2} in the chain's [..., N, Th*d] layout.
    """
    lead, (n, th, d) = node_major.shape[:-3], node_major.shape[-3:]
    x = node_major.reshape(lead + (n, th * d))
    stack = np.empty(lead + (n, th, depth * d), dtype=np.result_type(x, prop))
    stack[..., :d] = node_major
    x_part = x * scales[0]
    h = x
    for i in range(1, depth):
        if levels is not None:
            levels.append(h)
        h = prop @ h
        h *= scales[1]
        h += x_part  # x * gamma + (P @ h) * (1 - gamma): an add commutes bitwise
        stack[..., i * d:(i + 1) * d] = h.reshape(lead + (n, th, d))
    return stack


def _rgc_backward(g, saved, weight, d, scales, need_a):
    """The gradients of rgc_forward's weight, h_in and adjacency from its output's gradient g.

    Every expression is the pull of the op it stands for in the chain of
    rgc_forward's docstring, at that op's shapes: _matmul_pull_a and
    _matmul_pull_b for the products, g * scale for the gamma and 1 - gamma
    products, slices and reshapes for the concat and the layout ops, and
    the div, sum and add pulls for (A + I) / degree (the unbroadcasts that
    return g itself are left out). Each gradient adds its pieces in the
    order the chain's tape does: h_{i-1} takes P @ h_{i-1}'s piece before
    its level's, x takes the x * gamma pieces from the deepest level back,
    with P @ x's just before the first level's, and P takes one piece per
    product from the deepest back. So the gradients are the chain's bits.
    _rgc_stack rebuilds the stack that the mixing product's pulls read,
    and the h_0 ... h_{depth-2} that P's pull reads. Without need_a, an
    adjacency with no slot (a predefined graph), P's gradient is not made
    and no level is kept.
    """
    node_major, *operator = saved
    saved.clear()
    g_mixed = np.swapaxes(g, -3, -2)
    if not operator:  # depth 1: the stack is h_in's node-major view
        return [T._matmul_pull_b(g_mixed, node_major, weight.shape),
                np.swapaxes(T._matmul_pull_a(g_mixed, weight, node_major.shape), -3, -2)]
    prop, degree = operator
    depth, levels = weight.shape[0] // d, [] if need_a else None
    stack = _rgc_stack(node_major, prop, scales, depth, levels)
    lead, (n, th) = node_major.shape[:-3], node_major.shape[-3:-1]
    del node_major
    g_w = T._matmul_pull_b(g_mixed, stack, weight.shape)
    g_cat = T._matmul_pull_a(g_mixed, weight, stack.shape)
    del stack
    h_shape = lead + (n, th * d)
    g_x = g_prop = g_below = None  # g_below: h_{i-1}'s piece from P @ h_{i-1}
    for i in range(depth - 1, 0, -1):
        g_h = _sum_into(g_below, g_cat[..., i * d:(i + 1) * d].reshape(h_shape))
        g_ph = g_h * scales[1]
        if need_a:
            g_prop = _sum_into(g_prop, T._matmul_pull_a(g_ph, levels.pop(), prop.shape))
        g_below = T._matmul_pull_b(g_ph, prop, h_shape)
        del g_ph
        if i == 1:
            g_x = _sum_into(g_x, g_below)
        g_x = _sum_into(g_x, g_h * scales[0])
    del g_h, g_below
    g_h_in = np.swapaxes(g_cat[..., :d] + g_x.reshape(lead + (n, th, d)), -3, -2)
    del g_cat, g_x
    if not need_a:
        return [g_w, g_h_in, None]
    g_degree = T._unbroadcast(-g_prop * prop / degree, degree.shape)
    g_adj = g_prop / degree
    g_adj += g_degree  # A + I's pieces: the division's, then the degree sum's broadcast
    return [g_w, g_h_in, g_adj]


def _sum_into(total, piece):
    """total + piece, summed in place in total, a buffer made in backward; piece if total is None."""
    if total is None:
        return piece
    total += piece
    return total


def gru_forward(x_seq: Tensor, weights) -> Tensor:
    """Shared-weight GRU over the time axis of [..., Th, N, d_in], as one tape record.

    weights are the nine tensors wz, wr, wh [d_in, d_h], uz, ur, uh
    [d_h, d_h] and bz, br, bh [d_h]. Nodes ride along as batch elements;
    the hidden state starts at a zero [1, N, d_h] that every window shares,
    and the hidden states of every step are stacked to [..., Th, N, d_h].
    Each step computes

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
    operands = [x_seq, *weights]
    x, *arrays = [t.data for t in operands]
    wz, wr, wh, uz, ur, uh, bz, br, bh = arrays
    if x.ndim < 3 or x.shape[-3] == 0 or x.shape[-1] != wz.shape[0]:
        raise ShapeError(f"gru: input {x.shape} is not [..., Th>0, N, d_in={wz.shape[0]}]")
    taped = T._taped(operands)
    th, n = x.shape[-3], x.shape[-2]
    out = np.empty(x.shape[:-1] + (uz.shape[0],), dtype=np.result_type(x, *arrays))
    h = np.zeros((1, n, uz.shape[0]), dtype=x.dtype)
    saved = []  # (h_{t-1}, z, r, cand) of each step, under a tape
    for t in range(th):
        x_t = x[..., t:t + 1, :, :]
        z = T._sigmoid(x_t @ wz + h @ uz + bz)
        r = T._sigmoid(x_t @ wr + h @ ur + br)
        cand = np.tanh(x_t @ wh + (r * h) @ uh + bh)
        if taped:
            saved.append((h, z, r, cand))
        h = (1.0 - z) * h + z * cand
        out[..., t:t + 1, :, :] = h
    return T._one_record(out, operands, lambda g: _gru_backward(g, x, arrays, saved))


def _gru_backward(g, x, weights, saved):
    """The gradients of x and of wz ... bh from the output's gradient g, emptying saved.

    Every expression is the pull of the op that the taped loop in
    gru_forward's docstring records, at that op's shapes: tensor's own
    _sigmoid_pull, _tanh_pull, _matmul_pull_a and _matmul_pull_b, the mul
    and sub pulls, and _unbroadcast for the biases and the zero state that
    every window shares. A tape adds a tensor's pieces in reverse record
    order, so h_{t-1} takes its output slice first, then the 1 - z, r * h,
    ur and uz paths, and each weight its pieces from the last step to the
    first. The gradients are therefore bitwise the loop's for one list of
    records; across the two batch halves, each weight's gradient adds one
    sum per half instead of one piece per step, which reassociates.
    """
    wz, wr, wh, uz, ur, uh, bz, br, bh = weights
    gx = np.empty(x.shape, dtype=g.dtype)
    sums = [None] * len(weights)
    gh = g[..., -1:, :, :]
    for t in reversed(range(x.shape[-3])):
        h, z, r, cand = saved.pop()
        x_t = np.ascontiguousarray(x[..., t:t + 1, :, :])  # one copy for three weight pulls
        gz = gh * cand + -(gh * h)  # z * cand's pull, then 1 - z's
        ga_h = T._tanh_pull(gh * z, cand)  # z * cand's, then tanh's
        rh = r * h
        grh = T._matmul_pull_a(ga_h, uh, rh.shape)
        ga_r = T._sigmoid_pull(grh * h, r)  # r * h's, then sigmoid's
        ga_z = T._sigmoid_pull(gz, z)
        gx[..., t:t + 1, :, :] = (T._matmul_pull_a(ga_h, wh, x_t.shape)
                                  + T._matmul_pull_a(ga_r, wr, x_t.shape)
                                  + T._matmul_pull_a(ga_z, wz, x_t.shape))
        # h @ ur's and h @ uz's output; at t = 0 it is summed over the windows
        gr_h, gz_h = T._unbroadcast(ga_r, h.shape), T._unbroadcast(ga_z, h.shape)
        # this step's pieces of wz, wr, wh, uz, ur, uh, bz, br, bh
        step = [T._matmul_pull_b(ga, x_t, wz.shape) for ga in (ga_z, ga_r, ga_h)]
        step += [T._matmul_pull_b(ga, h, uz.shape) for ga in (gz_h, gr_h)]
        step.append(T._matmul_pull_b(ga_h, rh, uh.shape))
        step += [T._unbroadcast(ga, b.shape) for ga, b in ((ga_z, bz), (ga_r, br), (ga_h, bh))]
        sums = [_sum_into(total, piece) for total, piece in zip(sums, step)]
        if t:
            gh = g[..., t - 1:t, :, :] + gh * (1.0 - z)
            gh += grh * r
            gh += T._matmul_pull_a(gr_h, ur, h.shape)
            gh += T._matmul_pull_a(gz_h, uz, h.shape)
    return [gx] + sums


def dropout(x: Tensor, keep: np.ndarray, rate: float) -> Tensor:
    """Inverted dropout: x times keep.astype(x.dtype) / (1 - rate), for a bool mask keep.

    One tape record that holds the bool mask, one byte per element: the
    float mask is made from it in the forward and again in the pull, so the
    output and the gradient are the bits of tensor's mul by that float mask.
    """
    dtype = x.dtype

    def scaled():
        return keep.astype(dtype) / (1.0 - rate)

    return T._make(x.data * scaled(), [(x, lambda g: g * scaled())])


def regression_head(parts, weights, horizon: int) -> Tensor:
    """The skip-connection head over [..., Th, N, d_i] parts, as one tape record.

    weights are the six tensors w1, b1, w2, b2, out_weight and out_bias.
    It maps the parts to a [..., horizon, N, C] prediction as this chain of
    tensor ops does, time folded into channels per node and mapped to the
    whole horizon at once:

        h_skip = relu(concat(parts, axis=-1))
        hidden = relu(h_skip @ w1 + b1) @ w2 + b2
        flat = reshape(swapaxes(hidden, -3, -2), [..., N, Th * hc])
        out = swapaxes(reshape(flat @ out_weight + out_bias, [..., N, horizon, C]), -3, -2)

    Each value is computed with its op's expression, in order and at its
    shapes; the ReLUs and the bias adds run in place in the buffers the
    concat and the products have just allocated, which gives the same bits.
    Under a tape the record keeps h_skip, the first ReLU's output r1 and
    flat, the arrays its pull reads (see _head_backward); without one,
    each array is freed once the next is made. A mis-shaped operand raises
    ShapeError before any compute.
    """
    w1, b1, w2, b2, w_out, b_out = [t.data for t in weights]
    lead = parts[0].shape[:-1]
    if len(lead) < 2 or any(p.shape[:-1] != lead for p in parts):
        shapes = ", ".join(str(p.shape) for p in parts)
        raise ShapeError(f"regression head: parts {shapes} do not join as [..., Th, N, d]")
    th, hidden_dim, hc, out_dim = lead[-2], b1.size, b2.size, b_out.size
    want = {"w1": (sum(p.shape[-1] for p in parts), hidden_dim), "b1": (hidden_dim,),
            "w2": (hidden_dim, hc), "b2": (hc,), "out.weight": (th * hc, out_dim),
            "out.bias": (out_dim,)}
    for (name, shape), t in zip(want.items(), weights):
        if t.shape != shape:
            raise ShapeError(f"regression head: {name} is {t.shape}, not {shape}")
    if out_dim % horizon:
        raise ShapeError(f"regression head: {out_dim} outputs do not split into {horizon} steps")
    # out.bias, out.weight, b2, w2, b1, w1, then the parts: the chain's
    # records add their pieces from its last op back
    operands = [*weights[::-1], *parts]
    taped = T._taped(operands)

    h_skip = np.concatenate([p.data for p in parts], axis=-1)
    np.maximum(h_skip, 0.0, out=h_skip)
    r1 = _affine(h_skip, w1, b1)
    saved = [h_skip] if taped else []  # h_skip, r1 and flat, for _head_backward
    del h_skip
    np.maximum(r1, 0.0, out=r1)
    hidden = _affine(r1, w2, b2)
    if taped:
        saved.append(r1)
    del r1
    per_node = np.swapaxes(hidden, -3, -2)
    flat = per_node.reshape(per_node.shape[:-2] + (th * hc,))
    del hidden, per_node
    mapped = _affine(flat, w_out, b_out)
    out = np.swapaxes(mapped.reshape(mapped.shape[:-1] + (horizon, out_dim // horizon)), -3, -2)
    saved.append(flat)
    arrays, widths = (w1, w2, w_out), [p.shape[-1] for p in parts]
    return T._one_record(out, operands, lambda g: _head_backward(g, saved, arrays, widths))


def _affine(a, w, b):
    """a @ w + b, the sum made in place in the product's fresh buffer."""
    out = a @ w
    out += b
    return out


def _head_backward(g, saved, weights, widths):
    """The gradients of regression_head's operands from its output's gradient g, emptying saved.

    Every expression is the pull of the op it stands for in the chain of
    regression_head's docstring, at that op's shapes: swapaxes and reshape
    for the layout ops, _unbroadcast for the biases, _matmul_pull_a and
    _matmul_pull_b for the products, g * (out > 0) for a ReLU and a slice
    per part for the concat, so the gradients are the chain's bits. flat,
    r1 and h_skip are each dropped once their last reader has run; a
    ReLU's mask is taken before that and applied in place in the gradient
    buffer the product has just allocated.
    """
    w1, w2, w_out = weights
    flat = saved.pop()
    g_mapped = np.swapaxes(g, -3, -2)
    g_mapped = g_mapped.reshape(g_mapped.shape[:-2] + (w_out.shape[1],))
    g_out_b = T._unbroadcast(g_mapped, (w_out.shape[1],))
    g_out_w = T._matmul_pull_b(g_mapped, flat, w_out.shape)
    flat_shape = flat.shape
    del flat
    g_flat = T._matmul_pull_a(g_mapped, w_out, flat_shape)

    r1 = saved.pop()
    th, n, hc = r1.shape[-3], r1.shape[-2], w2.shape[1]
    g_hidden = np.swapaxes(g_flat.reshape(flat_shape[:-2] + (n, th, hc)), -3, -2)
    g_b2 = T._unbroadcast(g_hidden, (hc,))
    g_w2 = T._matmul_pull_b(g_hidden, r1, w2.shape)
    mask, r1_shape = r1 > 0, r1.shape
    del r1
    g_r1 = T._matmul_pull_a(g_hidden, w2, r1_shape)
    del g_flat, g_hidden
    g_r1 *= mask

    h_skip = saved.pop()
    g_b1 = T._unbroadcast(g_r1, (w1.shape[1],))
    g_w1 = T._matmul_pull_b(g_r1, h_skip, w1.shape)
    mask, skip_shape = h_skip > 0, h_skip.shape
    del h_skip
    g_skip = T._matmul_pull_a(g_r1, w1, skip_shape)
    del g_r1
    g_skip *= mask
    ends = np.cumsum(widths)
    return ([g_out_b, g_out_w, g_b2, g_w2, g_b1, g_w1]
            + [g_skip[..., end - width:end] for width, end in zip(widths, ends)])


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

        self.gates = [(self._matrix(f"decouple.{g}.w1", (2 * d_time + nd, cfg.gate_hidden)),
                       self._matrix(f"decouple.{g}.w2", (cfg.gate_hidden, 1)))
                      for g in range(g_pat - 1)]

        d_in = g_pat * m_iter * d
        d_h = m_iter * d
        self.gru = ([self._matrix(f"gru.{w}", (d_in, d_h)) for w in ("wz", "wr", "wh")]
                    + [self._matrix(f"gru.{u}", (d_h, d_h)) for u in ("uz", "ur", "uh")]
                    + [self._zeros(f"gru.{b}", (d_h,)) for b in ("bz", "br", "bh")])

        skip = d_h + d_in + cfg.channels + 2 * d_time
        out_in = cfg.history_steps * cfg.head_channels
        out_dim = cfg.horizon_steps * cfg.channels
        self.head = [self._matrix("head.w1", (skip, cfg.head_hidden)),
                     self._zeros("head.b1", (cfg.head_hidden,)),
                     self._matrix("head.w2", (cfg.head_hidden, cfg.head_channels)),
                     self._zeros("head.b2", (cfg.head_channels,)),
                     self._matrix("head.out.weight", (out_in, out_dim)),
                     self._zeros("head.out.bias", (out_dim,))]

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
        model.dropout > 0, the inverted-dropout mask of the whole batch
        comes from one rng.random call on the calling thread, so it does not
        depend on the split; without an rng that raises ConfigError before
        any compute. The mask is kept as bool, rng.random(...) >= rate, and
        each half's dropout record scales its slice to 0 or 1/(1-rate) per
        GRU output itself (see dropout). The normalization
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
            keep = rng.random(x_raw.shape[:-1] + (cfg.rgc_iterations * cfg.hidden,)) >= cfg.dropout

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

        keep is the windows' bool dropout mask [B, Th, N, M*d], or None for none.
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
                h_out = dropout(h_out, keep, cfg.dropout)

        with _stage("regression-head"):
            return regression_head([h_out, x_out, xn, daily_l, weekly_l], self.head,
                                   cfg.horizon_steps)
