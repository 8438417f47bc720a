import dataclasses
import os
import threading

import numpy as np
import pytest

from conftest import fd_gradient, rel_err, toy_graph_config, toy_model_config
from fusecast import network
from fusecast import tensor as T
from fusecast.errors import ConfigError, ShapeError
from fusecast.network import (Forecaster, GruParams, _stage, gru_forward,
                              normalized_propagation, rgc_forward)
from fusecast.tensor import Tape, Tensor
from fusecast.training import masked_mae_loss


def test_propagation_rows_sum_to_one_exactly():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = Tensor(rng.uniform(0, 2, (6, 6)))
        prop = normalized_propagation(a)
        assert np.abs(prop.data.sum(axis=-1) - 1.0).max() <= 1e-12


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
    h = Tensor(rng.standard_normal((2, 4, 3)))
    a = Tensor(rng.uniform(0.1, 1, (4, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((6, 2)), requires_grad=True)
    mix = rng.standard_normal((2, 4, 2))

    def scalar():
        return (rgc_forward(h, a, w, 0.2) * mix).sum()

    with Tape() as tape:
        tape.backward(scalar())
    for t in (a, w):
        fd = fd_gradient(lambda: scalar().item(), t.data)
        assert rel_err(t.grad, fd, floor=1e-6) < 1e-5


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


def _broadcast_rgc(h_in, adjacency, weight, gamma):
    """Reference RGC: the operator broadcast over the Th axis of [..., Th, N, d]."""
    prop = normalized_propagation(adjacency)
    if prop.ndim == 3:
        prop = T.reshape(prop, prop.shape[:-2] + (1,) + prop.shape[-2:])
    depth = weight.shape[0] // h_in.shape[-1]
    levels = [h_in]
    h = h_in
    for _ in range(depth - 1):
        h = T.add(T.mul(h_in, gamma), T.mul(T.matmul(prop, h), 1.0 - gamma))
        levels.append(h)
    stacked = levels[0] if depth == 1 else T.concat(levels, axis=-1)
    return T.matmul(stacked, weight)


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


def _zero_gru(d_in, d_h):
    z = lambda shape: Tensor(np.zeros(shape))
    return GruParams(wz=z((d_in, d_h)), wr=z((d_in, d_h)), wh=z((d_in, d_h)),
                     uz=z((d_h, d_h)), ur=z((d_h, d_h)), uh=z((d_h, d_h)),
                     bz=z((d_h,)), br=z((d_h,)), bh=z((d_h,)))


def test_gru_zero_weights_zero_input_stays_zero():
    out = gru_forward(Tensor(np.zeros((4, 3, 2))), _zero_gru(2, 2), 0.0, False)
    assert np.array_equal(out.data, np.zeros((4, 3, 2)))


def test_gru_single_step_shape():
    rng = np.random.default_rng(4)
    params = _zero_gru(3, 2)
    out = gru_forward(Tensor(rng.standard_normal((1, 5, 3))), params, 0.0, False)
    assert out.shape == (1, 5, 2)


def test_gru_hidden_stays_inside_unit_ball():
    # h_t is a convex mix of h_{t-1} and tanh output, so |h| < 1 from h_0 = 0
    rng = np.random.default_rng(5)
    d_in, d_h = 3, 4
    u = lambda shape: Tensor(rng.standard_normal(shape) * 2.0)
    params = GruParams(wz=u((d_in, d_h)), wr=u((d_in, d_h)), wh=u((d_in, d_h)),
                       uz=u((d_h, d_h)), ur=u((d_h, d_h)), uh=u((d_h, d_h)),
                       bz=u((d_h,)), br=u((d_h,)), bh=u((d_h,)))
    x = Tensor(rng.standard_normal((2, 20, 5, d_in)) * 3.0)
    out = gru_forward(x, params, 0.0, False)
    assert np.abs(out.data).max() < 1.0


def _toy_model(toy_setup, **overrides):
    series, train_ws, val_ws, test_ws, norm, model = toy_setup
    return series, train_ws, model


def _x_out(model, acts):
    """The graph-convolution output [..., Th, N, G*M*d] that feeds the GRU."""
    blocks = []
    for g, flow in enumerate(acts.flows.flows):
        w, b = model.projections[g]
        weight = T.concat(model.rgc_weights[g], axis=-1)
        blocks.append(rgc_forward(flow @ w + b, acts.graphs[g].final, weight, model.cfg.gamma))
    return T.concat(blocks, axis=-1)


def test_forward_shapes_and_activations(toy_setup):
    series, train_ws, model = _toy_model(toy_setup)
    hist, targ, tod, dow = train_ws.batch([0, 1, 2])
    pred, acts = model.forward_batch(hist, tod, dow, collect=True)
    cfg = model.cfg
    gmd = cfg.patterns * cfg.rgc_iterations * cfg.hidden
    md = cfg.rgc_iterations * cfg.hidden
    x_out = _x_out(model, acts)
    assert pred.shape == (3, cfg.horizon_steps, 4, 1)
    assert x_out.shape == (3, cfg.history_steps, 4, gmd)
    assert gru_forward(x_out, model.gru, 0.0, False).shape == (3, cfg.history_steps, 4, md)
    assert len(acts.graphs) == cfg.patterns
    assert len(acts.flows.flows) == cfg.patterns


def test_forward_window_matches_contract_shapes(toy_setup):
    series, train_ws, model = _toy_model(toy_setup)
    hist, _, tod, dow = train_ws.batch([0])
    pred, acts = model.forward_batch(hist, tod, dow, collect=True)
    cfg = model.cfg
    x_out = _x_out(model, acts)
    assert pred.shape == (1, cfg.horizon_steps, 4, 1)
    assert x_out.shape == (1, cfg.history_steps, 4,
                           cfg.patterns * cfg.rgc_iterations * cfg.hidden)
    assert (gru_forward(x_out, model.gru, 0.0, False).shape
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
    model.normalizer = None  # look at the raw regression output
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
    model = Forecaster(170, 288, cfg, gcfg, dtype=np.float32, seed=0)
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
        assert Forecaster(5, 6, cfg, toy_graph_config(), seed=1).n_parameters == count


def test_pattern_blocks_swap_with_pattern_parameters(toy_setup):
    series, train_ws, model = _toy_model(toy_setup)
    # neutral gates (0.5/0.5 split) make the two pattern inputs identical
    for g in range(model.cfg.patterns - 1):
        for name in (f"decouple.{g}.w1", f"decouple.{g}.w2"):
            p = model.parameters()[name]
            p.data = np.zeros_like(p.data)
    hist, _, tod, dow = train_ws.batch([0])
    _, acts = model.forward_batch(hist, tod, dow, collect=True)
    before = _x_out(model, acts).data

    params = model.parameters()
    prefix0, prefix1 = "pattern0.", "pattern1."
    for name in [n for n in params if n.startswith(prefix0)]:
        other = prefix1 + name[len(prefix0):]
        params[name].data, params[other].data = params[other].data, params[name].data
    _, acts2 = model.forward_batch(hist, tod, dow, collect=True)
    after = _x_out(model, acts2).data
    half = before.shape[-1] // 2
    assert np.array_equal(after[..., :half], before[..., half:])
    assert np.array_equal(after[..., half:], before[..., :half])


def test_single_pattern_single_block_collapses_to_one_rgc(toy_setup):
    series, train_ws, _ = _toy_model(toy_setup)
    cfg = toy_model_config()
    cfg.patterns = 1
    cfg.rgc_iterations = 1
    model = Forecaster(series.n_nodes, series.steps_per_day, cfg, toy_graph_config(),
                       dtype=np.float64, seed=3)
    hist, _, tod, dow = train_ws.batch([0])
    _, acts = model.forward_batch(hist, tod, dow, collect=True)
    # X_out must equal one RGC pass over the projected input
    w, b = model.projections[0]
    xn = Tensor(np.asarray(hist, dtype=np.float64))
    projected = xn @ w + b
    expected = rgc_forward(projected, acts.graphs[0].final,
                           model.parameters()["pattern0.rgc0.weight"], cfg.gamma)
    assert np.array_equal(_x_out(model, acts).data, expected.data)


def test_folded_blocks_equal_per_block_rgc_calls(toy_setup):
    series, train_ws, _ = _toy_model(toy_setup)
    cfg = toy_model_config()
    cfg.patterns, cfg.rgc_iterations, cfg.depth = 2, 3, 3
    model = Forecaster(series.n_nodes, series.steps_per_day, cfg, toy_graph_config(),
                       dtype=np.float64, seed=5)
    params = model.parameters()
    k_d, d, m_iter = cfg.depth * cfg.hidden, cfg.hidden, cfg.rgc_iterations
    rgc_names = [(n, p.shape) for n, p in params.items() if ".rgc" in n]
    assert rgc_names == [(f"pattern{g}.rgc{m}.weight", (k_d, d))
                         for g in range(cfg.patterns) for m in range(m_iter)]

    hist, _, tod, dow = train_ws.batch([0, 3])
    _, acts = model.forward_batch(hist, tod, dow, collect=True)
    x_out = _x_out(model, acts).data
    width = m_iter * d
    for g in range(cfg.patterns):
        w, b = model.projections[g]
        projected = acts.flows.flows[g] @ w + b
        blocks = [rgc_forward(projected, acts.graphs[g].final,
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


def test_state_roundtrip_preserves_predictions(toy_setup):
    series, train_ws, model = _toy_model(toy_setup)
    hist, _, tod, dow = train_ws.batch([0])
    before = model.forward_batch(hist, tod, dow).data.copy()
    state = model.state()
    fresh = Forecaster(series.n_nodes, series.steps_per_day, model.cfg, model.graph_cfg,
                       normalizer=model.normalizer, dtype=np.float64, seed=999)
    fresh.load_state(state)
    assert np.array_equal(fresh.forward_batch(hist, tod, dow).data, before)


def test_head_dim_invariant_enforced():
    cfg = toy_model_config()
    with pytest.raises(ConfigError, match="head_dim"):
        Forecaster(4, 8, cfg, toy_graph_config(heads=4, head_dim=8), seed=0)


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
    """Reference backward: keeps every record, pads slices, never writes in place."""
    output._slot.grad = np.ones_like(output.data)
    for out, pulls in reversed(tape._records):
        if out.grad is None:
            continue
        for t, pull in pulls:
            piece = pull(out.grad)
            if isinstance(piece, T._Slice):
                full = np.zeros(t.shape, dtype=piece.grad.dtype)
                full[piece.index] = piece.grad
                piece = full
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
        records, groups = len(tape), len(tape._groups)
        tape.backward(masked_mae_loss(pred, targ))
    grads = {name: p.grad.tobytes() for name, p in model.parameters().items()}
    for p in model.parameters().values():
        p.grad = None
    return pred.data.tobytes(), records, groups, grads


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
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
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


def test_predictions_and_gradients_do_not_depend_on_the_cpu_count(toy_setup, monkeypatch):
    series, train_ws, _, _, norm, _ = toy_setup
    cfg = dataclasses.replace(toy_model_config(), dropout=0.2)
    model = Forecaster(series.n_nodes, series.steps_per_day, cfg, toy_graph_config(),
                       normalizer=norm, dtype=np.float32, seed=3)
    hist, targ, tod, dow = train_ws.batch(list(range(7)))
    steps = []
    for cpus in (1, 2, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        steps.append(_training_step(model, hist, targ, tod, dow))
    assert steps[0] == steps[1] == steps[2]


@pytest.mark.parametrize("batch", [3, 5, 6, 31])
def test_halves_predict_the_bits_of_the_whole_batch(toy_setup, batch):
    """In training mode with dropout: the batch's draws come from one rng.random call."""
    series, train_ws, _, _, norm, _ = toy_setup
    cfg = dataclasses.replace(toy_model_config(), dropout=0.2)
    model = Forecaster(series.n_nodes, series.steps_per_day, cfg, toy_graph_config(),
                       normalizer=norm, dtype=np.float32, seed=3)
    hist, _, tod, dow = train_ws.batch([w % len(train_ws) for w in range(batch)])
    split = model.forward_batch(hist, tod, dow, training=True, rng=np.random.default_rng(0))
    uniforms = np.random.default_rng(0).random(hist.shape[:-1] + (cfg.rgc_iterations * cfg.hidden,))
    whole, _ = model._forward_windows(Tensor(norm.apply(hist.astype(np.float32))), tod, dow,
                                      True, uniforms, False)
    assert split.data.tobytes() == whole.data.tobytes()


def test_collected_activations_are_the_whole_batch_s(toy_setup):
    """The halves' activations join along the batch axis; the [N, N] spatial graph is the first half's."""
    series, train_ws, model = _toy_model(toy_setup)
    hist, _, tod, dow = train_ws.batch([0, 1, 2])
    _, split = model.forward_batch(hist, tod, dow, collect=True)
    _, whole = model._forward_windows(Tensor(model.normalizer.apply(hist.astype(model.dtype))),
                                      tod, dow, False, None, True)

    def tensors(acts):
        graphs = [t for g in acts.graphs for t in (g.spatial, g.temporal, g.final)]
        return [None if t is None else (t.shape, t.data.tobytes())
                for t in graphs + acts.flows.flows + acts.flows.ratios]

    assert split.graphs[0].spatial.ndim == 2
    assert tensors(split) == tensors(whole)


@pytest.mark.parametrize("windows, cpus", [(1, 2), (2, 1)])
def test_one_window_or_one_cpu_step_starts_no_thread(toy_setup, monkeypatch, windows, cpus):
    series, train_ws, model = _toy_model(toy_setup)
    hist, targ, tod, dow = train_ws.batch(list(range(windows)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    with Tape() as tape:
        pred = model.forward_batch(hist, tod, dow)
        assert pred.shape == (windows, model.cfg.horizon_steps, 4, 1)
        tape.backward(masked_mae_loss(pred, targ))
    assert started == []


def test_pattern_failure_on_a_worker_surfaces_after_pattern_0(toy_setup, monkeypatch):
    """Pattern 1 fails in the worker's half; the calling thread's half still ends first."""
    series, train_ws, model = _toy_model(toy_setup)
    hist, _, tod, dow = train_ws.batch([0, 1])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    real = network.generate_pattern_graph
    failed, finished = threading.Event(), []

    def generate(params, *args):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker and params is model.patterns[1]:
            failed.set()
            raise ShapeError("pattern 1 graph")
        if not on_worker:
            assert failed.wait(timeout=10)  # the calling thread's half goes on after the failure
        graphs = real(params, *args)
        finished.append((on_worker, model.patterns.index(params)))
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
        assert len(tape) == 1 and tape._groups == []  # only the record made before the forward
