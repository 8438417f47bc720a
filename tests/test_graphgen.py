import contextlib

import numpy as np
import pytest

from conftest import fd_gradient, held_bytes, rel_err, toy_graph_config
from fusecast import tensor as T
from fusecast.errors import ConfigError
from fusecast.graphgen import (TimeEmbeddingPools, build_directed_graph, fuse_graphs,
                               generate_pattern_graph, temporal_feature_matrix)
from fusecast.tensor import Tape, Tensor


def _params(rng, n, f, scale=0.6):
    return (Tensor(rng.uniform(-scale, scale, (n, f)), requires_grad=True),
            Tensor(rng.uniform(-scale, scale, (n, f)), requires_grad=True),
            Tensor(rng.uniform(-scale, scale, (f, f)), requires_grad=True),
            Tensor(rng.uniform(-scale, scale, (f, f)), requires_grad=True))


def test_score_is_relu_of_antisymmetric_matrix():
    rng = np.random.default_rng(0)
    n = 6
    f1, f2, w1, w2 = _params(rng, n, 4)
    a = build_directed_graph(f1, f2, w1, w2, alpha=3.0, k=n).data
    assert np.array_equal(np.diag(a), np.zeros(n))
    assert np.all(a * a.T == 0)  # at most one direction survives per pair
    assert np.all(a >= 0) and np.all(a < 1)  # relu of tanh stays in [0, 1)


def test_equal_features_and_weights_zero_out_the_score():
    rng = np.random.default_rng(1)
    n = 5
    f, _, w, _ = _params(rng, n, 3)
    a = build_directed_graph(f, f, w, w, alpha=3.0, k=n).data
    assert np.array_equal(a, np.zeros((n, n)))


def test_row_sparsity_bounded_by_k():
    rng = np.random.default_rng(2)
    for k in (1, 2, 4):
        f1, f2, w1, w2 = _params(rng, 8, 5)
        a = build_directed_graph(f1, f2, w1, w2, alpha=3.0, k=k).data
        assert ((a != 0).sum(axis=-1) <= k).all()


def test_k_larger_than_node_count_rejected():
    rng = np.random.default_rng(3)
    f1, f2, w1, w2 = _params(rng, 4, 3)
    with pytest.raises(ConfigError):
        build_directed_graph(f1, f2, w1, w2, alpha=3.0, k=5)


def _pools(rng, spd, n, d):
    return TimeEmbeddingPools(
        daily=Tensor(rng.standard_normal((spd, n, d)), requires_grad=True),
        weekly=Tensor(rng.standard_normal((7, n, d)), requires_grad=True),
    )


def test_temporal_features_single_step_is_identity():
    rng = np.random.default_rng(4)
    pools = _pools(rng, 6, 3, 2)
    daily, weekly = pools.lookup(np.array([4]), np.array([1]))
    td, tw = temporal_feature_matrix(daily, weekly)
    assert np.allclose(td.data, pools.daily.data[4])
    assert np.allclose(tw.data, pools.weekly.data[1])


def test_temporal_features_constant_pool():
    pools = TimeEmbeddingPools(daily=Tensor(np.full((5, 3, 2), 1.5)),
                               weekly=Tensor(np.full((7, 3, 2), -2.0)))
    daily, weekly = pools.lookup(np.array([0, 2, 4]), np.array([1, 1, 2]))
    td, tw = temporal_feature_matrix(daily, weekly)
    assert np.allclose(td.data, 1.5)
    assert np.allclose(tw.data, -2.0)


def test_pool_entry_visited_twice_gets_double_share():
    rng = np.random.default_rng(5)
    pools = _pools(rng, 6, 3, 2)
    tod = np.array([2, 2, 5, 0])  # slot 2 visited twice over Th = 4
    dow = np.array([0, 1, 2, 3])

    def scalar():
        daily, weekly = pools.lookup(tod, dow)
        td, tw = temporal_feature_matrix(daily, weekly)
        return td.sum()

    with Tape() as tape:
        tape.backward(scalar())
    assert np.allclose(pools.daily.grad[2], 2.0 / 4.0)
    assert np.allclose(pools.daily.grad[5], 1.0 / 4.0)
    fd = fd_gradient(lambda: scalar().item(), pools.daily.data)
    assert rel_err(pools.daily.grad, fd) < 1e-6


def _fusion(rng, n, heads, dh, zero_qk=False):
    """fuse_graphs' weights: a (wq, wk, wv) triple per head, and the output projection."""
    def mk(shape):
        data = np.zeros(shape) if zero_qk else rng.uniform(-0.5, 0.5, shape)
        return Tensor(data, requires_grad=True)

    query = [mk((n, dh)) for _ in range(heads)]
    key = [mk((n, dh)) for _ in range(heads)]
    value = [Tensor(rng.uniform(-0.5, 0.5, (n, dh)), requires_grad=True) for _ in range(heads)]
    output = Tensor(rng.uniform(-0.5, 0.5, (heads * dh, n)), requires_grad=True)
    return list(zip(query, key, value)), output


def test_zero_query_key_gives_uniform_attention():
    rng = np.random.default_rng(6)
    n = 5
    heads, output = _fusion(rng, n, heads=1, dh=3, zero_qk=True)
    [(_, _, wv)] = heads
    a_s = Tensor(rng.uniform(0, 1, (n, n)))
    a_t = Tensor(rng.uniform(0, 1, (n, n)))
    final, scores = fuse_graphs(a_s, a_t, 3.0, heads, output, return_scores=True)
    # a softmax of equal logits is exp(0) / n, exactly 1/n
    assert np.array_equal(scores[0].data, np.full((n, n), 1.0 / n))
    # uniform rows average the value matrix, replicated across rows
    fused = np.maximum(np.tanh(3.0 * (a_s.data @ a_t.data)), 0.0)
    v = fused @ wv.data
    head = scores[0].data @ v
    assert np.allclose(head, np.tile(v.mean(axis=0), (n, 1)))
    # so every node gets the same mixture: final's rows are equal to rounding,
    # not bitwise, as BLAS may round the rows of one product differently
    assert np.abs(final.data[0]).max() > 0
    assert np.abs(final.data - final.data[0]).max() <= 1e-12 * np.abs(final.data[0]).max()


def test_zero_graphs_fuse_to_zero():
    rng = np.random.default_rng(7)
    n = 4
    zero = Tensor(np.zeros((n, n)))
    final = fuse_graphs(zero, zero, 3.0, *_fusion(rng, n, heads=2, dh=2))
    assert np.array_equal(final.data, np.zeros((n, n)))


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(8)
    n = 6
    fusion = _fusion(rng, n, heads=3, dh=2)
    a_s = Tensor(rng.uniform(0, 1, (n, n)))
    a_t = Tensor(rng.uniform(0, 1, (n, n)))
    _, scores = fuse_graphs(a_s, a_t, 3.0, *fusion, return_scores=True)
    for s in scores:
        assert np.abs(s.data.sum(axis=-1) - 1.0).max() < 1e-9


@pytest.mark.parametrize("taped", [False, True], ids=["no-tape", "tape"])
def test_return_scores_leaves_final_unchanged(taped):
    rng = np.random.default_rng(18)
    n = 6
    fusion = _fusion(rng, n, heads=3, dh=2)
    a_s = Tensor(rng.uniform(0, 1, (n, n)))
    a_t = Tensor(rng.uniform(0, 1, (4, n, n)))  # a batch of temporal graphs, one per window
    with Tape() if taped else contextlib.nullcontext():
        plain = fuse_graphs(a_s, a_t, 3.0, *fusion)
        final, scores = fuse_graphs(a_s, a_t, 3.0, *fusion, return_scores=True)
    assert final.data.tobytes() == plain.data.tobytes()
    assert [s.shape for s in scores] == [(4, n, n)] * 3
    assert not any(s.requires_grad for s in scores)  # a report, not part of the graph


def test_returned_scores_are_the_ones_the_heads_used():
    # final rebuilt in numpy from the returned scores and the heads' values
    rng = np.random.default_rng(19)
    n, beta = 7, 3.0
    heads, output = _fusion(rng, n, heads=2, dh=3)
    a_s = Tensor(rng.uniform(0, 1, (n, n)))
    a_t = Tensor(rng.uniform(0, 1, (2, n, n)))
    final, scores = fuse_graphs(a_s, a_t, beta, heads, output, return_scores=True)
    assert min(np.ptp(s.data) for s in scores) > 1e-2  # not uniform, so the bits say something
    fused = T.saturated_top_k(T.matmul(a_s, a_t), beta, n).data
    outs = [s.data @ (fused @ wv.data) for s, (_, _, wv) in zip(scores, heads)]
    rebuilt = np.maximum(np.concatenate(outs, axis=-1) @ output.data, 0.0)
    assert rebuilt.tobytes() == final.data.tobytes()


def _pattern(rng, n, nd, d_time, heads=2, dh=2, scale=0.6):
    """One pattern's graph weights, in generate_pattern_graph's order."""
    u = lambda shape: Tensor(rng.uniform(-scale, scale, shape), requires_grad=True)
    embeddings_and_scores = [u((n, nd)), u((n, nd)), u((nd, nd)), u((nd, nd)),
                             u((d_time, d_time)), u((d_time, d_time))]
    triples, output = _fusion(rng, n, heads, dh)
    return embeddings_and_scores + triples + [output]


def _time_features(rng, n, d_time, batch=None):
    shape = (n, d_time) if batch is None else (batch, n, d_time)
    return (Tensor(rng.standard_normal(shape)), Tensor(rng.standard_normal(shape)))


def _spatial(pattern, cfg):
    e1, e2, spatial_w1, spatial_w2, *_ = pattern
    return build_directed_graph(e1, e2, spatial_w1, spatial_w2, cfg.alpha, cfg.k_spatial)


def _temporal(pattern, feats, cfg):
    _, _, _, _, temporal_w1, temporal_w2, *_ = pattern
    return build_directed_graph(*feats, temporal_w1, temporal_w2, cfg.alpha, cfg.k_temporal)


def test_predefined_mode_passes_graph_through():
    rng = np.random.default_rng(9)
    cfg = toy_graph_config(mode="predefined")
    adj = rng.uniform(0, 2, (4, 4))
    with Tape() as tape:
        out = generate_pattern_graph(_pattern(rng, 4, 3, 3), None, cfg, adj)
        assert len(tape) == 0  # no graph is built from the pattern's parameters
    assert np.array_equal(out.data, adj)


def test_predefined_mode_requires_graph():
    rng = np.random.default_rng(10)
    with pytest.raises(ConfigError):
        generate_pattern_graph(_pattern(rng, 4, 3, 3), None, toy_graph_config(mode="predefined"))


def test_unknown_mode_rejected():
    rng = np.random.default_rng(10)
    with pytest.raises(ConfigError, match="unknown graph mode 'banana'"):
        generate_pattern_graph(_pattern(rng, 4, 3, 3), None, toy_graph_config(mode="banana"))


def test_independent_patterns_produce_different_graphs():
    rng = np.random.default_rng(11)
    cfg = toy_graph_config()
    tf_feats = _time_features(rng, 4, 3)
    a = generate_pattern_graph(_pattern(rng, 4, 3, 3), tf_feats, cfg)
    b = generate_pattern_graph(_pattern(rng, 4, 3, 3), tf_feats, cfg)
    assert not np.array_equal(a.data, b.data)


def test_spatial_only_mode_inherits_topk_sparsity():
    rng = np.random.default_rng(12)
    cfg = toy_graph_config(k_spatial=2, mode="spatial_only")
    pattern = _pattern(rng, 6, 3, 3)
    out = generate_pattern_graph(pattern, None, cfg)
    assert out.data.tobytes() == _spatial(pattern, cfg).data.tobytes()
    assert ((out.data != 0).sum(axis=-1) <= 2).all()
    assert np.all(out.data >= 0)


def test_temporal_only_mode_uses_time_features():
    rng = np.random.default_rng(13)
    cfg = toy_graph_config(k_temporal=2, mode="temporal_only")
    pattern, feats = _pattern(rng, 5, 3, 3), _time_features(rng, 5, 3)
    with Tape() as tape:
        out = generate_pattern_graph(pattern, feats, cfg)
        tape.backward(out)
    assert out.data.tobytes() == _temporal(pattern, feats, cfg).data.tobytes()
    e1, _, spatial_w1, _, temporal_w1, *_ = pattern
    assert temporal_w1.grad is not None
    # the spatial graph is not built
    assert e1.grad is None and spatial_w1.grad is None


def test_fused_mode_is_deterministic_and_nonnegative():
    rng = np.random.default_rng(14)
    cfg = toy_graph_config()
    pattern = _pattern(rng, 4, 3, 3)
    feats = _time_features(rng, 4, 3)
    a = generate_pattern_graph(pattern, feats, cfg)
    b = generate_pattern_graph(pattern, feats, cfg)
    assert np.array_equal(a.data, b.data)
    assert np.all(a.data >= 0)
    _, _, _, _, _, _, *heads, output = pattern
    expected = fuse_graphs(_spatial(pattern, cfg), _temporal(pattern, feats, cfg), cfg.beta,
                           heads, output)
    assert a.data.tobytes() == expected.data.tobytes()


def test_fused_mode_broadcasts_batched_time_features():
    rng = np.random.default_rng(15)
    cfg = toy_graph_config()
    pattern = _pattern(rng, 4, 3, 3)
    feats = _time_features(rng, 4, 3, batch=3)
    out = generate_pattern_graph(pattern, feats, cfg)
    spatial = _spatial(pattern, cfg)
    assert out.shape == (3, 4, 4)
    assert spatial.shape == (4, 4)  # built once from the parameters, not per window
    _, _, _, _, _, _, *heads, output = pattern
    expected = fuse_graphs(spatial, _temporal(pattern, feats, cfg), cfg.beta, heads, output)
    assert out.data.tobytes() == expected.data.tobytes()


def test_full_fuse_pipeline_gradients_match_finite_differences():
    rng = np.random.default_rng(16)
    n, nd, d_time = 4, 3, 3
    cfg = toy_graph_config()
    pattern = _pattern(rng, n, nd, d_time)
    feats = _time_features(rng, n, d_time)
    w = rng.standard_normal((n, n))

    def scalar():
        return (generate_pattern_graph(pattern, feats, cfg) * w).sum()

    e1, e2, sw1, sw2, tw1, tw2, (wq0, wk0, wv0), _, wo = pattern
    params = {"e1": e1, "e2": e2, "sw1": sw1, "sw2": sw2, "tw1": tw1, "tw2": tw2, "wo": wo,
              "wq0": wq0, "wk0": wk0, "wv0": wv0}
    with Tape() as tape:
        tape.backward(scalar())
    for name, p in params.items():
        fd = fd_gradient(lambda: scalar().item(), p.data)
        assert rel_err(p.grad, fd, floor=1e-4) < 1e-5, name


def test_graph_generation_keeps_few_window_graphs():
    """One fused pattern's records and held bytes over a batch of windows, pinned.

    saturated_top_k keeps only its output and each attention head only its
    query, key and value, so at this shape the tape holds 7.5 [B, N, N]
    arrays per window (much of it the heads' q, k and v at head_dim =
    N / heads, as in the presets) in 45 records. Built from tensor's
    elementwise ops, keeping tanh's and the ReLU's outputs, the float top-k
    mask and every head's scores, it held 15.6 in 69 records, so a chain
    that expands again fails here.
    """
    rng = np.random.default_rng(17)
    n, batch, heads = 32, 16, 4
    cfg = toy_graph_config(k_spatial=5, k_temporal=5, heads=heads, head_dim=n // heads)
    pattern = _pattern(rng, n, 8, 8, heads=heads, dh=n // heads)
    feats = tuple(Tensor(f.data, requires_grad=True) for f in _time_features(rng, n, 8, batch))
    with Tape() as tape:
        generate_pattern_graph(pattern, feats, cfg)
        records = tape._records
        assert len(records) == 12 + 12 + 2 + 4 * heads + 3  # spatial, temporal, fused
        per_window = held_bytes(records) / (batch * n * n * 8)
        assert per_window < 8.0, per_window
