import dataclasses
import hashlib
import re
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import flat_records, graphs_and_flows, tape_groups, toy_graph_config, toy_model_config
from fusecast import network
from fusecast import tensor as T
from fusecast.data import Normalizer
from fusecast.errors import ConfigError, ShapeError
from fusecast.network import (Forecaster, _stage, dropout, gru_forward, normalized_propagation,
                              rgc_forward)
from fusecast.optim import randomize_parameters
from fusecast.tensor import Tape, Tensor
from fusecast.training import masked_mae_loss
from test_one_record_ops import (ONE_RECORD_OPS, Trial, _broadcast_rgc,
                                 assert_gradients_match_finite_differences, assert_matches_chain,
                                 assert_mis_shaped_raises, dropout_trial, gru_trial, head_trial,
                                 record_held, replaced, rgc_trial)

GRU, RGC, HEAD, DROPOUT = (ONE_RECORD_OPS[name] for name in
                           ("gru_forward", "rgc_forward", "regression_head", "dropout"))
RAW = Normalizer(0.0, 1.0)  # (x - 0.0) / 1.0 is bitwise x: the model computes in raw units


def test_propagation_rows_sum_to_one_exactly():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.uniform(0, 2, (6, 6))
        prop, degree = normalized_propagation(a)
        assert np.abs(prop.sum(axis=-1) - 1.0).max() <= 1e-12
        assert np.array_equal(degree, (a + np.eye(6)).sum(axis=-1, keepdims=True))


def test_rgc_gamma_one_replicates_input():
    rng = np.random.default_rng(1)
    h = Tensor(rng.standard_normal((3, 4, 2)))
    a = Tensor(rng.uniform(0, 1, (4, 4)))
    w = Tensor(rng.standard_normal((3 * 2, 5)))
    out = rgc_forward(h, a, w, 1.0)
    expected = np.concatenate([h.data] * 3, axis=-1) @ w.data
    assert np.array_equal(out.data, expected)


def test_rgc_zero_adjacency_propagates_identity():
    rng = np.random.default_rng(2)
    h = Tensor(rng.standard_normal((2, 3, 2)))
    a = Tensor(np.zeros((3, 3)))
    w = Tensor(rng.standard_normal((2 * 2, 2)))
    out = rgc_forward(h, a, w, 0.3)
    # self-loops only: every level equals the input regardless of gamma
    expected = np.concatenate([h.data, h.data], axis=-1) @ w.data
    assert np.allclose(out.data, expected, atol=1e-14)


def test_rgc_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    trial = rgc_trial(rng, np.float64, lead=(), th=2, n=4, d=3, depth=2, gamma=0.2)
    trial.operands[1].data = rng.uniform(0.1, 1, (4, 4))
    assert_gradients_match_finite_differences(RGC, trial, rng)


def test_rgc_weight_rows_not_a_multiple_of_d_fail():
    # the depth comes from the weight's row count, so a ragged one must not
    # be silently truncated to a whole number of levels
    rng = np.random.default_rng(6)
    d = 3
    h = Tensor(rng.standard_normal((2, 4, d)))
    a = Tensor(rng.uniform(0, 1, (4, 4)))
    for rows in (d - 1, 2 * d + 1):
        w = Tensor(rng.standard_normal((rows, 2)))
        with pytest.raises(ShapeError, match=rf"\({rows}, 2\)"):
            rgc_forward(h, a, w, 0.5)


# (lead, batched adjacency, Th, N, d, depth, gamma, h_in has a slot, adjacency has a slot)
RGC_CHAIN_CASES = [
    ((3,), True, 4, 6, 4, 2, 0.1, True, True),
    ((3,), False, 4, 6, 4, 2, 0.1, True, True),
    ((), False, 4, 6, 4, 3, 0.1, True, True),
    ((3,), True, 4, 6, 4, 1, 0.1, True, True),
    ((3,), True, 4, 6, 4, 3, 0.0, True, True),
    ((3,), True, 4, 6, 4, 3, 1.0, True, True),
    ((3,), True, 4, 6, 4, 3, 0.3, False, True),
    ((2,), True, 12, 50, 8, 4, 0.1, True, True),
    ((2,), False, 12, 170, 32, 3, 0.1, True, True),
    ((3,), False, 4, 6, 4, 3, 0.3, True, False),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", RGC_CHAIN_CASES,
                         ids=["batched-adj", "shared-adj", "unbatched", "depth-1", "gamma-0",
                              "gamma-1", "h-without-slot", "depth-4", "pems08-shared-adj",
                              "predefined-adj-without-slot"])
def test_rgc_forward_equals_the_chain_of_tensor_ops(case, dtype):
    lead, batched, th, n, d, depth, gamma, h_slot, a_slot = case
    rng = np.random.default_rng(n * depth + len(lead))
    trial = rgc_trial(rng, dtype, lead, batched, th, n, d, depth, gamma, h_slot, a_slot, ())
    _, grads = assert_matches_chain(RGC, trial, rng)
    assert (grads[0] is None) != h_slot and (grads[1] is None) == (depth == 1 or not a_slot)


def test_rgc_record_keeps_its_input_the_operator_and_degree():
    """One call's record holds h_in, P [B, N, N], its degree [B, N, 1] and the weight, pinned.

    Built from tensor ops, the chain kept also the node-major x, every level
    but the last and the concatenated [B, N, Th, depth*d] stack (5 levels'
    bytes at depth 3); the record keeps h_in alone and rebuilds the levels
    in backward, so a record that keeps any of them again fails here.
    """
    batch, th, n, d, depth = 4, 12, 20, 8, 3
    trial = rgc_trial(np.random.default_rng(8), np.float32, (batch,), True, th, n, d, depth)
    kept = 4 * batch * (n * n + n + th * n * d) + trial.operands[2].data.nbytes
    assert record_held(RGC.op, trial) == RGC.held(trial) == kept


@pytest.mark.parametrize("adjacency, rows, message", [
    ((6, 6), 5, r"weight \(5, 4\)'s rows are not a positive multiple of d=2"),
    ((6, 6), 0, r"weight \(0, 4\)'s rows are not a positive multiple of d=2"),
    ((6, 5), 4, r"adjacency \(6, 5\) is not \[\.\.\., 6, 6\] for input \(3, 4, 6, 2\)"),
    ((6,), 4, r"adjacency \(6,\) is not \[\.\.\., 6, 6\]"),
    ((2, 6, 6), 4, r"adjacency \(2, 6, 6\)'s leading axes do not broadcast to input "
                   r"\(3, 4, 6, 2\)'s"),
    ((3, 1, 6, 6), 4, r"adjacency \(3, 1, 6, 6\)'s leading axes do not broadcast"),
], ids=["weight-rows", "weight-empty", "adjacency-not-n-by-n", "adjacency-1d",
        "adjacency-batch", "adjacency-extra-axis"])
def test_rgc_names_a_mis_shaped_operand_before_any_compute(monkeypatch, adjacency, rows, message):
    trial = Trial([Tensor(np.ones((3, 4, 6, 2)), requires_grad=True),
                   Tensor(np.ones(adjacency), requires_grad=True),
                   Tensor(np.ones((rows, 4)), requires_grad=True)], (0.5,))
    assert_mis_shaped_raises(monkeypatch, RGC, trial, rf"^graph convolution: {message}")


@pytest.mark.parametrize("case, message", [
    ("weight", r"weight \(9, 8\)'s rows are not a positive multiple of d=4"),
    ("adjacency", r"adjacency \(5, 5\) is not \[\.\.\., 4, 4\]"),
    ("batch", r"adjacency \(7, 4, 4\)'s leading axes do not broadcast"),
], ids=["weight", "adjacency", "batch"])
def test_a_mis_shaped_rgc_operand_fails_in_its_stage(toy_setup, monkeypatch, case, message):
    _, train_ws, _, _, _, model = toy_setup
    if case == "weight":
        for w in model.rgc_weights[0]:
            w.data = np.ones((w.shape[0] + 1, w.shape[1]))
    else:
        graph = Tensor(np.ones((5, 5) if case == "adjacency" else (7, 4, 4)))
        monkeypatch.setattr(network, "generate_pattern_graph", lambda *args: graph)
    hist, _, tod, dow = train_ws.batch([0, 1, 2])
    for training in (False, True):
        with Tape():
            with pytest.raises(ShapeError, match=rf"^\[graph-convolution\] graph convolution: "
                                                 rf"{message}"):
                model.forward_batch(hist, tod, dow, training=training)


# (lead, batched adjacency, Th, N, d, depth, d_out): the toy preset's and
# PEMS08's graph-convolution shapes, d_out being rgc_iterations * hidden
RGC_SHAPES = [
    ((3,), True, 4, 6, 4, 2, 8),
    ((3,), False, 4, 6, 4, 2, 8),
    ((), False, 4, 6, 4, 2, 8),
    ((2,), True, 12, 170, 32, 3, 64),
    ((2,), False, 12, 170, 32, 3, 64),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", RGC_SHAPES,
                         ids=["toy-batched-adj", "toy-shared-adj", "toy-unbatched",
                              "pems08-batched-adj", "pems08-shared-adj"])
def test_node_major_rgc_matches_broadcast_reference(shape, dtype):
    lead, batched, th, n, d, depth, d_out = shape
    rng = np.random.default_rng(n * depth + len(lead))
    h = Tensor(rng.standard_normal(lead + (th, n, d)).astype(dtype), requires_grad=True)
    a = Tensor(np.maximum(rng.standard_normal((lead if batched else ()) + (n, n)), 0.0)
               .astype(dtype), requires_grad=True)
    w = Tensor(rng.standard_normal((depth * d, d_out)).astype(dtype), requires_grad=True)
    seed = rng.standard_normal(lead + (th, n, d_out)).astype(dtype)
    results = []
    for rgc in (rgc_forward, _broadcast_rgc):
        with Tape() as tape:
            out = rgc(h, a, w, 0.1)
            tape.backward((out * Tensor(seed)).sum())
        results.append((out, [t.grad for t in (h, a, w)]))
        for t in (h, a, w):
            t.grad = None
    (out, grads), (ref, ref_grads) = results
    assert out.shape == ref.shape == lead + (th, n, d_out)
    assert out.data.tobytes() == np.ascontiguousarray(ref.data).tobytes()
    if dtype == np.float64:
        # the gradients only reassociate sums, so they agree to float64
        # rounding relative to each gradient's scale
        for got, want in zip(grads, ref_grads):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_channel_lift_matches_linear_map():
    x = Tensor(np.full((1, 1, 1), 3.0))
    w = Tensor(np.ones((1, 2)))
    assert (x @ w).data.tolist() == [[[3.0, 3.0]]]
    assert np.array_equal((x @ Tensor(np.zeros((1, 2)))).data, np.zeros((1, 1, 2)))


def _gru_weights(d_in, d_h, fill):
    """wz ... bh, each fill(shape) as a tensor, in gru_forward's order."""
    shapes = [(d_in, d_h)] * 3 + [(d_h, d_h)] * 3 + [(d_h,)] * 3
    return [Tensor(fill(shape)) for shape in shapes]


def test_gru_zero_weights_zero_input_stays_zero():
    out = gru_forward(Tensor(np.zeros((4, 3, 2))), _gru_weights(2, 2, np.zeros))
    assert np.array_equal(out.data, np.zeros((4, 3, 2)))


def test_gru_single_step_shape():
    rng = np.random.default_rng(4)
    out = gru_forward(Tensor(rng.standard_normal((1, 5, 3))), _gru_weights(3, 2, np.zeros))
    assert out.shape == (1, 5, 2)


def test_gru_hidden_stays_inside_unit_ball():
    # h_t is a convex mix of h_{t-1} and tanh output, so |h| < 1 from h_0 = 0
    rng = np.random.default_rng(5)
    d_in, d_h = 3, 4
    weights = _gru_weights(d_in, d_h, lambda shape: rng.standard_normal(shape) * 2.0)
    x = Tensor(rng.standard_normal((2, 20, 5, d_in)) * 3.0)
    out = gru_forward(x, weights)
    assert np.abs(out.data).max() < 1.0


# (lead, Th, N, d_in, d_h): an unbatched input, a batched one whose zero state
# broadcasts over the windows, and the toy preset's GRU shape
GRU_SHAPES = [((), 5, 3, 4, 2), ((2,), 6, 5, 3, 4), ((4,), 4, 4, 16, 8)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", GRU_SHAPES, ids=["unbatched", "batched", "toy"])
def test_gru_kernel_is_bitwise_the_taped_loop(shape, dtype):
    """Output and every gradient of one tape are the bits of the loop of tensor ops.

    x_seq feeds consumers before and after the GRU, as the regression head
    reads the GRU's input, so its slot takes the GRU's pieces on top of others.
    """
    lead, th, n, d_in, d_h = shape
    rng = np.random.default_rng(th * n + d_in)
    assert_matches_chain(GRU, gru_trial(rng, dtype, lead, th, n, d_in, d_h, scale=0.5), rng)


def test_gru_kernel_multiplies_the_zero_state_as_the_loop_does():
    # 0 * inf is NaN: an infinite uz entry poisons the first step through the
    # zero state's product h @ uz, which the kernel must compute as the loop does
    rng = np.random.default_rng(11)
    trial = gru_trial(rng, np.float64, (2,), 3, 4, 3, 2, scale=0.5)
    trial.operands[4].data[1, 0] = np.inf  # uz
    with np.errstate(invalid="ignore"):
        out, _ = assert_matches_chain(GRU, trial, rng, equal_nan=True)
    assert np.isnan(out[:, 0, :, 0]).all()


def test_gru_kernel_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    assert_gradients_match_finite_differences(GRU, gru_trial(rng, np.float64), rng)


def test_gru_kernel_is_one_record_and_keeps_nothing_without_a_tape():
    trial = gru_trial(np.random.default_rng(13), np.float64, (4,), 12, 50, 16, 32, scale=0.5)
    with Tape() as tape:
        out = GRU.op(trial.operands)
        assert len(tape) == 1
    # without a tape no step's z, r or candidate outlives it: each is 1/Th of
    # the output, so keeping all three of every step would add 3x its bytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        untaped = GRU.op(trial.operands)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert untaped.data.tobytes() == out.data.tobytes()
    assert peak < 2 * untaped.data.nbytes, f"peaked at {peak / untaped.data.nbytes:.1f}x the output"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["unbatched", "batch3"])
def test_regression_head_matches_the_chain(lead, dtype):
    """The prediction and every gradient of one tape are the bytes of the chain of tensor ops."""
    rng = np.random.default_rng(len(lead) + np.dtype(dtype).itemsize)
    assert_matches_chain(HEAD, head_trial(rng, dtype, lead), rng)


def test_regression_head_backward_peak_stays_near_its_skip_features():
    """The peak of one head forward and backward, in units of h_skip's bytes, pinned.

    The shape is PEMS08's head at a small batch: 213 skip features against
    64 hidden and 64 head channels. The one record keeps h_skip, r1 and
    flat, masks its gradients in place and drops h_skip before its
    gradient is made. It peaks at 1.98 h_skip, where h_skip, r1, the
    gradient of flat and the copy the w2 gradient's GEMM reads are alive
    at once (the forward peaks at 1.90). The chain of tensor ops held
    h_skip, its gradient and the masked gradient at once, 3.44.
    """
    rng = np.random.default_rng(21)
    batch, th, n, horizon = 4, 12, 20, 12
    trial = head_trial(rng, np.float32, (batch,), th, n, (64, 128, 1, 10, 10), 64, 64, horizon, 1)
    seed = Tensor(rng.standard_normal((batch, horizon, n, 1)).astype(np.float32))
    skip_bytes = batch * th * n * 213 * 4
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            tape.backward(HEAD.op(trial.operands, horizon) * seed)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * skip_bytes, f"peaked at {peak / skip_bytes:.2f} h_skip"


def test_regression_head_names_a_mis_shaped_operand(monkeypatch):
    trial = head_trial(np.random.default_rng(22), np.float64, (2,))
    for index, shape, message in [(5, (25, 6), r"w1 is \(25, 6\), not \(21, 6\)"),
                                  (7, (6, 4), r"w2 is \(6, 4\), not \(6, 5\)"),
                                  (8, (1, 5), r"b2 is \(1, 5\), not \(5,\)"),
                                  (9, (16, 6), r"out.weight is \(16, 6\), not \(20, 6\)"),
                                  (4, (2, 4, 6, 3), r"parts .* do not join")]:
        assert_mis_shaped_raises(monkeypatch, HEAD, replaced(index, shape)(trial),
                                 r"^regression head: " + message)
    assert_mis_shaped_raises(monkeypatch, HEAD, dataclasses.replace(trial, args=(4,)),
                             r"^regression head: 6 outputs do not split into 4 steps$")


@pytest.mark.parametrize("widen, blamed", [(("head.w2",), "w2"),
                                           (("head.w2", "head.b2"), "out.weight")])
def test_a_mis_shaped_head_weight_fails_in_its_stage(toy_setup, widen, blamed):
    # one more head channel in w2 and b2 alike used to reach the per-node
    # reshape and raise numpy's bare ValueError
    _, train_ws, _, _, _, model = toy_setup
    for name in widen:
        p = model.params[name]
        p.data = np.ones(p.shape[:-1] + (p.shape[-1] + 1,))
    hist, _, tod, dow = train_ws.batch([0, 1, 2])
    for training in (False, True):
        with Tape():
            with pytest.raises(ShapeError, match=rf"^\[regression-head\] regression head: {blamed} "):
                model.forward_batch(hist, tod, dow, training=training,
                                    rng=np.random.default_rng(0))


def _toy_model(toy_setup):
    series, train_ws, val_ws, test_ws, norm, model = toy_setup
    return series, train_ws, model


def _x_out(model, graphs, flows):
    """The graph-convolution output [..., Th, N, G*M*d] that feeds the GRU."""
    blocks = []
    for g, flow in enumerate(flows.flows):
        w, b = model.projections[g]
        weight = T.concat(model.rgc_weights[g], axis=-1)
        blocks.append(rgc_forward(flow @ w + b, graphs[g], weight, model.cfg.gamma))
    return T.concat(blocks, axis=-1)


def test_forward_shapes_and_activations(toy_setup):
    series, train_ws, model = _toy_model(toy_setup)
    hist, targ, tod, dow = train_ws.batch([0, 1, 2])
    pred = model.forward_batch(hist, tod, dow)
    graphs, flows = graphs_and_flows(model, hist, tod, dow)
    cfg = model.cfg
    gmd = cfg.patterns * cfg.rgc_iterations * cfg.hidden
    md = cfg.rgc_iterations * cfg.hidden
    x_out = _x_out(model, graphs, flows)
    assert pred.shape == (3, cfg.horizon_steps, 4, 1)
    assert x_out.shape == (3, cfg.history_steps, 4, gmd)
    assert gru_forward(x_out, model.gru).shape == (3, cfg.history_steps, 4, md)
    assert len(graphs) == cfg.patterns
    assert len(flows.flows) == cfg.patterns


def test_forward_window_matches_contract_shapes(toy_setup):
    series, train_ws, model = _toy_model(toy_setup)
    hist, _, tod, dow = train_ws.batch([0])
    pred = model.forward_batch(hist, tod, dow)
    cfg = model.cfg
    x_out = _x_out(model, *graphs_and_flows(model, hist, tod, dow))
    assert pred.shape == (1, cfg.horizon_steps, 4, 1)
    assert x_out.shape == (1, cfg.history_steps, 4,
                           cfg.patterns * cfg.rgc_iterations * cfg.hidden)
    assert (gru_forward(x_out, model.gru).shape
            == (1, cfg.history_steps, 4, cfg.rgc_iterations * cfg.hidden))


def test_eval_forward_is_deterministic(toy_setup):
    series, train_ws, model = _toy_model(toy_setup)
    hist, _, tod, dow = train_ws.batch([0, 1])
    a = model.forward_batch(hist, tod, dow, training=False)
    b = model.forward_batch(hist, tod, dow, training=False)
    assert a.data.tobytes() == b.data.tobytes()


def test_prediction_responds_to_input(toy_setup):
    series, train_ws, model = _toy_model(toy_setup)
    hist, _, tod, dow = train_ws.batch([0])
    base = model.forward_batch(hist, tod, dow).data
    bumped = hist.copy()
    bumped[0, 0, 0, 0] += 5.0
    assert not np.allclose(model.forward_batch(bumped, tod, dow).data, base)


def test_zero_head_weights_give_zero_prediction(toy_setup):
    series, train_ws, model = _toy_model(toy_setup)
    model.normalizer = RAW  # look at the raw regression output
    for name in ("head.w1", "head.b1", "head.w2", "head.b2",
                 "head.out.weight", "head.out.bias"):
        p = model.parameters()[name]
        p.data = np.zeros_like(p.data)
    hist, _, tod, dow = train_ws.batch([0, 1])
    pred = model.forward_batch(hist, tod, dow)
    assert np.array_equal(pred.data, np.zeros_like(pred.data))


def test_output_shape_at_pems08_scale():
    cfg = toy_model_config()
    cfg.history_steps = 12
    cfg.horizon_steps = 12
    gcfg = toy_graph_config(k_spatial=10, k_temporal=10, heads=4, head_dim=8)
    model = Forecaster(170, 288, cfg, gcfg, RAW, dtype=np.float32, seed=0)
    rng = np.random.default_rng(0)
    hist = rng.uniform(0, 100, (1, 12, 170, 1))
    tod = np.arange(12)[None, :]
    dow = np.zeros((1, 12), dtype=int)
    pred = model.forward_batch(hist, tod, dow)
    assert pred.shape == (1, 12, 170, 1)


def test_parameter_count_matches_closed_form(toy_setup):
    # the closed form (time pools + per-pattern graphs, projection and RGC
    # weights + gates + GRU + head) evaluates to 1516 for the toy fixture
    series, _, model = _toy_model(toy_setup)
    assert model.n_parameters == 1516


def test_parameter_count_formula_across_configs():
    # the closed form's values at N=5, 6 steps per day, per
    # (patterns, rgc_iterations, depth)
    for (patterns, m_iter, depth), count in (((1, 1, 1), 661), ((3, 2, 2), 2093),
                                             ((2, 3, 4), 2635)):
        cfg = toy_model_config()
        cfg.patterns, cfg.rgc_iterations, cfg.depth = patterns, m_iter, depth
        assert Forecaster(5, 6, cfg, toy_graph_config(), RAW, seed=1).n_parameters == count


def test_pattern_blocks_swap_with_pattern_parameters(toy_setup):
    series, train_ws, model = _toy_model(toy_setup)
    # neutral gates (0.5/0.5 split) make the two pattern inputs identical
    for g in range(model.cfg.patterns - 1):
        for name in (f"decouple.{g}.w1", f"decouple.{g}.w2"):
            p = model.parameters()[name]
            p.data = np.zeros_like(p.data)
    hist, _, tod, dow = train_ws.batch([0])
    before = _x_out(model, *graphs_and_flows(model, hist, tod, dow)).data

    params = model.parameters()
    prefix0, prefix1 = "pattern0.", "pattern1."
    for name in [n for n in params if n.startswith(prefix0)]:
        other = prefix1 + name[len(prefix0):]
        params[name].data, params[other].data = params[other].data, params[name].data
    after = _x_out(model, *graphs_and_flows(model, hist, tod, dow)).data
    half = before.shape[-1] // 2
    assert np.array_equal(after[..., :half], before[..., half:])
    assert np.array_equal(after[..., half:], before[..., :half])


def test_single_pattern_single_block_collapses_to_one_rgc(toy_setup):
    series, train_ws, _ = _toy_model(toy_setup)
    cfg = toy_model_config()
    cfg.patterns = 1
    cfg.rgc_iterations = 1
    model = Forecaster(series.n_nodes, series.steps_per_day, cfg, toy_graph_config(), RAW,
                       dtype=np.float64, seed=3)
    hist, _, tod, dow = train_ws.batch([0])
    graphs, flows = graphs_and_flows(model, hist, tod, dow)
    # X_out must equal one RGC pass over the projected input
    w, b = model.projections[0]
    xn = Tensor(np.asarray(hist, dtype=np.float64))
    projected = xn @ w + b
    expected = rgc_forward(projected, graphs[0],
                           model.parameters()["pattern0.rgc0.weight"], cfg.gamma)
    assert np.array_equal(_x_out(model, graphs, flows).data, expected.data)


def test_folded_blocks_equal_per_block_rgc_calls(toy_setup):
    series, train_ws, _ = _toy_model(toy_setup)
    cfg = toy_model_config()
    cfg.patterns, cfg.rgc_iterations, cfg.depth = 2, 3, 3
    model = Forecaster(series.n_nodes, series.steps_per_day, cfg, toy_graph_config(), RAW,
                       dtype=np.float64, seed=5)
    params = model.parameters()
    k_d, d, m_iter = cfg.depth * cfg.hidden, cfg.hidden, cfg.rgc_iterations
    rgc_names = [(n, p.shape) for n, p in params.items() if ".rgc" in n]
    assert rgc_names == [(f"pattern{g}.rgc{m}.weight", (k_d, d))
                         for g in range(cfg.patterns) for m in range(m_iter)]

    hist, _, tod, dow = train_ws.batch([0, 3])
    graphs, flows = graphs_and_flows(model, hist, tod, dow)
    x_out = _x_out(model, graphs, flows).data
    width = m_iter * d
    for g in range(cfg.patterns):
        w, b = model.projections[g]
        projected = flows.flows[g] @ w + b
        blocks = [rgc_forward(projected, graphs[g],
                              params[f"pattern{g}.rgc{m}.weight"], cfg.gamma)
                  for m in range(m_iter)]
        expected = np.concatenate([blk.data for blk in blocks], axis=-1)
        assert np.array_equal(x_out[..., g * width:(g + 1) * width], expected)


def test_load_state_validates_names_and_shapes(toy_setup):
    series, _, model = _toy_model(toy_setup)
    state = model.state()
    state.pop("gru.bz")
    with pytest.raises(ShapeError, match="gru.bz"):
        model.load_state(state)
    state = model.state()
    state["gru.bz"] = np.zeros(99)
    with pytest.raises(ShapeError, match="gru.bz"):
        model.load_state(state)
    state = model.state()
    state["bogus.extra"] = np.zeros(1)
    with pytest.raises(ShapeError, match="bogus.extra"):
        model.load_state(state)


def test_state_roundtrip_preserves_predictions(toy_setup):
    series, train_ws, model = _toy_model(toy_setup)
    hist, _, tod, dow = train_ws.batch([0])
    before = model.forward_batch(hist, tod, dow).data.copy()
    state = model.state()
    fresh = Forecaster(series.n_nodes, series.steps_per_day, model.cfg, model.graph_cfg,
                       normalizer=model.normalizer, dtype=np.float64, seed=999)
    fresh.load_state(state)
    assert np.array_equal(fresh.forward_batch(hist, tod, dow).data, before)


def test_parameter_order_and_seeded_values_are_the_checkpoint_contract():
    """The toy model's ordered (name, shape) list and the sha256 of its seeded float32 state().

    Registration order is the checkpoint's record order and the order in
    which the seeded initialization draws, so a rebuilt _build must keep
    both. The names follow the scheme in network's module docstring, at
    the toy preset's sizes for N=4 nodes and 8 steps per day.
    """
    n, nd, d_time, d, gru_in, gru_h = 4, 3, 3, 4, 16, 8
    want = [("time_pool.daily", (8, n, d_time)), ("time_pool.weekly", (7, n, d_time))]
    for g in range(2):
        p = f"pattern{g}"
        want += [(f"{p}.spatial_emb.{e}", (n, nd)) for e in ("e1", "e2")]
        want += [(f"{p}.fusion.{graph}.{w}", (nd, nd) if graph == "spatial" else (d_time, d_time))
                 for graph in ("spatial", "temporal") for w in ("w1", "w2")]
        want += [(f"{p}.fusion.attn.head{h}.{w}", (n, 2))
                 for h in range(2) for w in ("wq", "wk", "wv")]
        want += [(f"{p}.fusion.attn.wo", (4, n)), (f"{p}.project.weight", (1, d)),
                 (f"{p}.project.bias", (d,))]
        want += [(f"{p}.rgc{m}.weight", (2 * d, d)) for m in range(2)]
    want += [("decouple.0.w1", (2 * d_time + nd, 6)), ("decouple.0.w2", (6, 1))]
    want += [(f"gru.{w}", (gru_in, gru_h)) for w in ("wz", "wr", "wh")]
    want += [(f"gru.{u}", (gru_h, gru_h)) for u in ("uz", "ur", "uh")]
    want += [(f"gru.{b}", (gru_h,)) for b in ("bz", "br", "bh")]
    want += [("head.w1", (gru_h + gru_in + 1 + 2 * d_time, 6)), ("head.b1", (6,)),
             ("head.w2", (6, 6)), ("head.b2", (6,)), ("head.out.weight", (4 * 6, 2)),
             ("head.out.bias", (2,))]
    state = Forecaster(n, 8, toy_model_config(), toy_graph_config(), RAW,
                       dtype=np.float32, seed=0).state()
    assert [(name, a.shape) for name, a in state.items()] == want
    assert all(a.dtype == np.float32 for a in state.values())
    digest = hashlib.sha256(b"".join(a.tobytes() for a in state.values())).hexdigest()
    assert digest == "155a6d0eb3f225df23e5bc57d7d7a600797cbf1635a1cd3242581bd95dccbbda"


@pytest.mark.parametrize("patterns", [1, 2, 3])
def test_the_forward_groups_are_the_parameter_registry(patterns):
    """The groups the forward reads, flattened in checkpoint order, are model.params' values.

    Object for object and in order: the pools, then per pattern its graph
    weights (each head's triple flattened), projection and block weights,
    then the gates, the GRU and the head. So each group holds the tensors
    the checkpoint saves, in the order of the seeded draws.
    """
    cfg = dataclasses.replace(toy_model_config(), patterns=patterns)
    model = Forecaster(4, 8, cfg, toy_graph_config(), RAW, seed=0)
    groups = [model.pools.daily, model.pools.weekly]
    for graph, projection, blocks in zip(model.graph_weights, model.projections,
                                         model.rgc_weights, strict=True):
        e1, e2, spatial_w1, spatial_w2, temporal_w1, temporal_w2, *heads, wo = graph
        groups += [e1, e2, spatial_w1, spatial_w2, temporal_w1, temporal_w2]
        groups += [w for triple in heads for w in triple] + [wo, *projection, *blocks]
    groups += [w for gate in model.gates for w in gate] + [*model.gru, *model.head]
    registry = list(model.params.values())
    assert len(model.graph_weights) == patterns and len(groups) == len(registry)
    assert all(group is param for group, param in zip(groups, registry))


def test_head_dim_invariant_enforced():
    cfg = toy_model_config()
    with pytest.raises(ConfigError, match="head_dim"):
        Forecaster(4, 8, cfg, toy_graph_config(heads=4, head_dim=8), RAW, seed=0)


def test_mismatched_history_shape_rejected(toy_setup):
    series, train_ws, model = _toy_model(toy_setup)
    hist, _, tod, dow = train_ws.batch([0])
    with pytest.raises(ShapeError, match=r"\[normalize\]"):
        model.forward_batch(hist[:, :2], tod, dow)


def test_stage_tag_on_lookup_failure(toy_setup):
    series, train_ws, model = _toy_model(toy_setup)
    hist, _, tod, dow = train_ws.batch([0])
    with pytest.raises(IndexError, match=r"\[time-lookups\]"):
        model.forward_batch(hist, tod + 1000, dow)


@pytest.mark.parametrize("args, tagged", [(("message", 2), ("[rgc] message", 2)),
                                           ((7,), ("[rgc]", 7)), ((), ("[rgc]",))])
def test_stage_tag_keeps_non_string_arguments(args, tagged):
    with pytest.raises(ValueError) as info:
        with _stage("rgc"):
            raise ValueError(*args)
    assert info.value.args == tagged


def _dense_backward(tape, output):
    """Reference backward: keeps every record and never writes in place."""
    output._slot.grad = np.ones_like(output.data)
    for out, pulls in reversed(flat_records(tape)):
        if out.grad is None:
            continue
        for t, pull in pulls:
            piece = pull(out.grad)
            t.grad = piece if t.grad is None else t.grad + piece


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_consuming_backward_matches_dense_reference(toy_setup, dtype):
    series, train_ws, _, _, norm, _ = toy_setup
    cfg = toy_model_config()
    assert (cfg.patterns, cfg.rgc_iterations) == (2, 2)
    model = Forecaster(series.n_nodes, series.steps_per_day, cfg, toy_graph_config(),
                       normalizer=norm, dtype=dtype, seed=3)
    hist, targ, tod, dow = train_ws.batch([0, 1, 2])

    def step(backward):
        with Tape() as tape:
            loss = masked_mae_loss(model.forward_batch(hist, tod, dow, training=True,
                                                       rng=np.random.default_rng(0)), targ)
            backward(tape, loss)
        grads = {name: p.grad for name, p in model.parameters().items()}
        for p in model.parameters().values():
            p.grad = None
        return tape, grads

    tape, fast = step(lambda tape, loss: tape.backward(loss))
    assert len(tape) == 0
    _, dense = step(_dense_backward)
    assert fast.keys() == dense.keys()
    for name in fast:
        assert fast[name].dtype == dense[name].dtype == dtype, name
        assert fast[name].tobytes() == dense[name].tobytes(), name


def _training_step(model, hist, targ, tod, dow):
    """Prediction bytes, records, groups and gradient bytes of one training step."""
    with Tape() as tape:
        pred = model.forward_batch(hist, tod, dow, training=True, rng=np.random.default_rng(0))
        records, groups = len(tape), len(tape_groups(tape))
        tape.backward(masked_mae_loss(pred, targ))
    grads = {name: p.grad.tobytes() for name, p in model.parameters().items()}
    for p in model.parameters().values():
        p.grad = None
    return pred.data.tobytes(), records, groups, grads


def test_toy_training_step_tape_record_count(toy_setup):
    """The tape's record count of one step, pinned: fewer records is a win to claim.

    A change that moves it updates the number here and says why in CHANGES.md.
    """
    _, train_ws, _, _, _, model = toy_setup
    hist, targ, tod, dow = train_ws.batch(list(range(8)))  # two halves of four
    with Tape() as tape:
        pred = model.forward_batch(hist, tod, dow, training=True, rng=np.random.default_rng(0))
        forward = len(tape)
        loss = masked_mae_loss(pred, targ)
        assert (forward, len(tape)) == (201, 206)
        tape.backward(loss)


@pytest.mark.parametrize("dtype, overrides, batch", [(np.float64, {"dropout": 0.2}, 3),
                                                     (np.float32, {"patterns": 3}, 3),
                                                     (np.float32, {"dropout": 0.2}, 5)],
                         ids=["float64-dropout", "float32-patterns3", "float32-batch5"])
def test_concurrent_patterns_match_the_plain_loop(toy_setup, monkeypatch, dtype, overrides, batch):
    """The two halves, forward and backward, give the bits of a plain loop over them."""
    series, train_ws, _, _, norm, _ = toy_setup
    cfg = dataclasses.replace(toy_model_config(), **overrides)
    model = Forecaster(series.n_nodes, series.steps_per_day, cfg, toy_graph_config(),
                       normalizer=norm, dtype=dtype, seed=3)
    hist, targ, tod, dow = train_ws.batch(list(range(batch)))
    started, start = [], threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    pred, records, groups, grads = _training_step(model, hist, targ, tod, dow)
    assert len(started) == 2  # one worker for the second half forward, one for its backward
    assert groups == 1
    # a plain loop records no group, so backward runs the same tape serially
    monkeypatch.setattr(network, "ordered_map", lambda fn, count: [fn(g) for g in range(count)])
    assert _training_step(model, hist, targ, tod, dow) == (pred, records, 0, grads)


def _dropout_model(toy_setup, rate):
    """The toy setup's training windows, normalizer and a float32 model with dropout."""
    series, train_ws, _, _, norm, _ = toy_setup
    cfg = dataclasses.replace(toy_model_config(), dropout=rate)
    return train_ws, norm, Forecaster(series.n_nodes, series.steps_per_day, cfg,
                                      toy_graph_config(), normalizer=norm, dtype=np.float32,
                                      seed=3)


def test_backward_never_writes_a_pulled_piece(toy_setup, monkeypatch):
    """With every pull's piece read-only, a step keeps its gradient bytes.

    The step has dropout, two batch halves, the GRU kernel and a horizon-1
    loss, so every kind of pull runs; backward must sum the pieces, never
    add into one in place.
    """
    train_ws, _, model = _dropout_model(toy_setup, 0.2)
    hist, targ, tod, dow = train_ws.batch(list(range(6)))
    assert targ.shape[-3] > 1  # so the loss narrows the prediction

    def step():
        with Tape() as tape:
            pred = model.forward_batch(hist, tod, dow, training=True, rng=np.random.default_rng(0))
            tape.backward(masked_mae_loss(pred, targ, horizon_limit=1))
        grads = {name: p.grad.tobytes() for name, p in model.parameters().items()}
        for p in model.parameters().values():
            p.grad = None
        return grads

    plain, make = step(), T._make

    def read_only(fn):
        def pull(g):
            piece = np.asarray(fn(g))
            piece.flags.writeable = False
            return piece
        return pull

    monkeypatch.setattr(T, "_make", lambda out, pulls: make(out, [(t, read_only(fn))
                                                                  for t, fn in pulls]))
    assert step() == plain


@pytest.mark.parametrize("batch", [3, 5, 6, 31])
def test_halves_predict_the_bits_of_the_whole_batch(toy_setup, batch):
    """In training mode with dropout: the batch's mask comes from one rng.random call."""
    train_ws, norm, model = _dropout_model(toy_setup, 0.2)
    cfg = model.cfg
    hist, _, tod, dow = train_ws.batch([w % len(train_ws) for w in range(batch)])
    split = model.forward_batch(hist, tod, dow, training=True, rng=np.random.default_rng(0))
    uniforms = np.random.default_rng(0).random(hist.shape[:-1] + (cfg.rgc_iterations * cfg.hidden,))
    keep = uniforms >= cfg.dropout
    whole = norm.invert(model._forward_windows(Tensor(norm.apply(hist.astype(np.float32))),
                                               tod, dow, keep))
    assert split.data.tobytes() == whole.data.tobytes()
    # the bool mask scales to the inverted float mask 0 or 1/(1-rate), one value per GRU output
    applied = dropout(Tensor(np.ones(keep.shape, dtype=np.float32)), keep, cfg.dropout).data
    assert applied.tobytes() == (keep.astype(np.float32) / np.float32(1.0 - cfg.dropout)).tobytes()


def test_training_forward_without_dropout_is_the_eval_forward(toy_setup):
    series, train_ws, model = _toy_model(toy_setup)
    assert model.cfg.dropout == 0.0
    hist, _, tod, dow = train_ws.batch([0, 1, 2])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    trained = model.forward_batch(hist, tod, dow, training=True, rng=rng)
    assert trained.data.tobytes() == model.forward_batch(hist, tod, dow).data.tobytes()
    assert rng.bit_generator.state == state  # no draw is made


def test_dropout_mask_is_inverted_and_keeps_the_expectation(toy_setup, monkeypatch):
    rate = 0.2
    train_ws, _, model = _dropout_model(toy_setup, rate)
    hist, _, tod, dow = train_ws.batch([w % len(train_ws) for w in range(31)])
    masks, real = [], model._forward_windows

    def forward_windows(xn, tod, dow, keep):
        masks.append(keep)
        return real(xn, tod, dow, keep)

    monkeypatch.setattr(model, "_forward_windows", forward_windows)
    model.forward_batch(hist, tod, dow, training=True, rng=np.random.default_rng(0))
    assert sorted(len(m) for m in masks) == [15, 16]  # each half gets its windows' slice
    keep = np.concatenate(masks)
    assert keep.shape == hist.shape[:-1] + (model.cfg.rgc_iterations * model.cfg.hidden,)
    assert keep.dtype == bool  # one byte per GRU output; the dropout record scales it
    mask = dropout(Tensor(np.ones(keep.shape, dtype=np.float32)), keep, rate).data
    assert mask.dtype == np.float32
    assert set(np.unique(mask)) == {0.0, np.float32(1.0 / (1.0 - rate))}
    # the sample mean's std is sqrt(rate / (1 - rate) / n); allow 5 of them
    assert abs(mask.mean() - 1.0) < 5 * np.sqrt(rate / (1.0 - rate) / mask.size)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_record_holds_one_byte_per_mask_element(dtype):
    """One record that keeps the bool mask only, with the bits of mul by the float mask."""
    rng = np.random.default_rng(9)
    trial = dropout_trial(rng, dtype)
    assert_matches_chain(DROPOUT, trial, rng)
    # mul by the float mask held 4 or 8 bytes per element
    keep = trial.args[0]
    assert [record_held(fn, trial) for fn in (DROPOUT.op, DROPOUT.chain)] == [
        keep.size, keep.size * np.dtype(dtype).itemsize]


def test_dropout_without_an_rng_raises_before_any_compute(toy_setup, monkeypatch):
    train_ws, _, model = _dropout_model(toy_setup, 0.2)
    hist, _, tod, dow = train_ws.batch([0, 1])
    mapped = []
    monkeypatch.setattr(network, "ordered_map", lambda fn, count: mapped.append(count))
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        x * 2.0
        with pytest.raises(ConfigError, match="explicit rng"):
            model.forward_batch(hist, tod, dow, training=True)
        assert mapped == []
        assert len(tape._records) == 1  # only the record made before the forward


def test_one_window_step_starts_no_thread(toy_setup, monkeypatch):
    series, train_ws, model = _toy_model(toy_setup)
    hist, targ, tod, dow = train_ws.batch([0])
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    with Tape() as tape:
        pred = model.forward_batch(hist, tod, dow)
        assert pred.shape == (1, model.cfg.horizon_steps, 4, 1)
        tape.backward(masked_mae_loss(pred, targ))
    assert started == []


def test_pattern_failure_on_a_worker_surfaces_after_pattern_0(toy_setup, monkeypatch):
    """Pattern 1 fails in the worker's half; the calling thread's half still ends first."""
    series, train_ws, model = _toy_model(toy_setup)
    hist, _, tod, dow = train_ws.batch([0, 1])
    real = network.generate_pattern_graph
    failed, finished = threading.Event(), []

    def generate(weights, *args):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker and weights is model.graph_weights[1]:
            failed.set()
            raise ShapeError("pattern 1 graph")
        if not on_worker:
            assert failed.wait(timeout=10)  # the calling thread's half goes on after the failure
        graphs = real(weights, *args)
        finished.append((on_worker, model.graph_weights.index(weights)))
        return graphs

    monkeypatch.setattr(network, "generate_pattern_graph", generate)
    real_gru, gru_threads = network.gru_forward, []

    def gru(*args):
        gru_threads.append(threading.current_thread())
        return real_gru(*args)

    monkeypatch.setattr(network, "gru_forward", gru)
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        x * 2.0
        with pytest.raises(ShapeError, match=r"^\[graph-generation\] pattern 1 graph$"):
            model.forward_batch(hist, tod, dow, training=True, rng=np.random.default_rng(0))
        assert sorted(finished) == [(False, 0), (False, 1), (True, 0)]
        assert gru_threads == [threading.main_thread()]  # the calling thread's half went on
        assert len(tape._records) == 1  # only the record made before the forward, and no group


@pytest.mark.parametrize("batch, on_worker", [(1, False), (2, False), (2, True)],
                         ids=["one-window", "calling-half", "worker-half"])
def test_a_failed_forward_records_nothing(toy_setup, monkeypatch, batch, on_worker):
    """Pattern 1's graph raises inside a half after that half has made records."""
    series, train_ws, model = _toy_model(toy_setup)
    hist, _, tod, dow = train_ws.batch(list(range(batch)))
    real, raised = network.generate_pattern_graph, []

    def generate(weights, *args):
        worker = threading.current_thread() is not threading.main_thread()
        if weights is model.graph_weights[1] and worker == on_worker:
            raised.append(len(T._LOCAL.records))  # the half's records so far
            raise ShapeError("pattern 1 graph")
        return real(weights, *args)

    monkeypatch.setattr(network, "generate_pattern_graph", generate)
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        x * 2.0
        with pytest.raises(ShapeError, match=r"^\[graph-generation\] pattern 1 graph$"):
            model.forward_batch(hist, tod, dow, training=True, rng=np.random.default_rng(0))
        assert len(raised) == 1 and raised[0] > 0
        assert len(tape._records) == 1  # only the record made before the forward


def _node_axis(name):
    """The axis of a parameter that is indexed by node, or None for a node-free one."""
    if name.startswith("time_pool.") or name.endswith(".attn.wo"):
        return 1
    if ".spatial_emb." in name or re.search(r"\.attn\.head\d+\.w[qkv]$", name):
        return 0
    return None


def _prediction_and_gradients(model, history, tod, dow, weight):
    with Tape() as tape:
        pred = model.forward_batch(history, tod, dow)
        tape.backward(T.mul(pred, Tensor(weight)))  # d(sum(weight * pred))
    grads = {name: p.grad for name, p in model.parameters().items()}
    for p in model.parameters().values():
        p.grad = None
    return pred.data, grads


def _assert_normwise_close(actual, expected, what):
    # relabelled nodes sum in another order: gradients of node-free
    # parameters moved by up to 35 float64 eps of their largest entry
    bound = 256 * np.finfo(np.float64).eps * np.abs(expected).max()
    assert np.abs(actual - expected).max() <= bound, what


def _positive_tie_at_the_cut(x, k):
    """Whether some row's k-th largest entry is positive and equals the next one."""
    if k >= x.shape[-1]:
        return False
    ranked = -np.sort(-x, axis=-1)
    kth = ranked[..., k - 1]
    return bool(((kth > 0) & (kth == ranked[..., k])).any())


@pytest.mark.parametrize("mode", ["fused", "spatial_only", "temporal_only", "predefined"])
@pytest.mark.parametrize("n_nodes", [4, 5], ids=["toy", "n5"])
def test_prediction_and_gradients_permute_with_the_nodes(monkeypatch, mode, n_nodes):
    """Relabelling the nodes relabels the prediction and every gradient, nothing else.

    At N=5 the node count differs from every other width of the toy
    config (head_dim, heads*head_dim, hidden, node_embed_dim, history_steps,
    the 7 days of the weekly pool), so mixing the node axis with another
    axis of the same size cannot pass unseen.
    """
    top_k_mask, top_k_inputs = T._top_k_mask, []

    def recording_top_k(x, k):  # every selection saturated_top_k makes, on relu(tanh(.))
        top_k_inputs.append((x.copy(), k))
        return top_k_mask(x, k)

    monkeypatch.setattr(T, "_top_k_mask", recording_top_k)
    rng = np.random.default_rng(n_nodes)
    perm = rng.permutation(n_nodes)
    assert (perm != np.arange(n_nodes)).any()
    batch, cfg = 3, toy_model_config()
    history = rng.standard_normal((batch, cfg.history_steps, n_nodes, cfg.channels))
    tod = rng.integers(0, 8, size=(batch, cfg.history_steps))
    dow = rng.integers(0, 7, size=(batch, cfg.history_steps))
    weight = rng.standard_normal((batch, cfg.horizon_steps, n_nodes, cfg.channels))
    road = rng.uniform(0.1, 1.0, (n_nodes, n_nodes)) * (rng.random((n_nodes, n_nodes)) < 0.5)
    np.fill_diagonal(road, 0.0)

    def model(graph):
        return Forecaster(n_nodes, 8, cfg, toy_graph_config(mode=mode), RAW,
                          predefined_graph=graph if mode == "predefined" else None,
                          dtype=np.float64, seed=0)

    original = model(road)
    randomize_parameters(original.parameters(), seed=11)
    relabelled = model(road[np.ix_(perm, perm)])

    def permute(name, value):
        axis = _node_axis(name)
        return value if value is None or axis is None else np.take(value, perm, axis=axis)

    relabelled.load_state({name: permute(name, p.data)
                           for name, p in original.parameters().items()})
    pred, grads = _prediction_and_gradients(original, history, tod, dow, weight)
    pred_p, grads_p = _prediction_and_gradients(relabelled, history[:, :, perm], tod, dow,
                                                weight[:, :, perm])

    _assert_normwise_close(pred_p, pred[:, :, perm], "prediction")
    for name, grad in grads.items():
        expected = permute(name, grad)
        if expected is None:  # a parameter this graph mode does not use
            assert grads_p[name] is None, name
        else:
            _assert_normwise_close(grads_p[name], expected, name)
    # the selection gives a tie to the lower index, so a positive tie at the
    # cut would keep a different node after relabelling
    assert (mode == "predefined") == (not top_k_inputs)
    assert not any(_positive_tie_at_the_cut(x, k) for x, k in top_k_inputs)
