import numpy as np

from fusecast.decouple import decouple
from fusecast.tensor import Tape, Tensor


def _inputs(rng, batch, th, n, c, d_time, nd):
    shape = (th, n, c) if batch is None else (batch, th, n, c)
    tshape = shape[:-1] + (d_time,)
    x = Tensor(rng.standard_normal(shape))
    daily = Tensor(rng.standard_normal(tshape))
    weekly = Tensor(rng.standard_normal(tshape))
    embed = Tensor(rng.standard_normal((n, nd)))
    return x, daily, weekly, embed


def _gates(rng, count, d_time, nd, hidden, zero=False):
    def mk(shape):
        data = np.zeros(shape) if zero else rng.standard_normal(shape) * 0.4
        return Tensor(data, requires_grad=True)

    return [(mk((2 * d_time + nd, hidden)), mk((hidden, 1))) for _ in range(count)]


def test_zero_weights_split_in_half():
    rng = np.random.default_rng(0)
    x, daily, weekly, embed = _inputs(rng, None, 3, 4, 1, 2, 2)
    flows = decouple(x, daily, weekly, embed, _gates(rng, 1, 2, 2, 5, zero=True))
    # sigmoid(0) is exactly 0.5, and x * 0.5 and x - x * 0.5 are exact
    assert np.array_equal(flows.ratios[0].data, np.full((3, 4, 1), 0.5))
    assert np.array_equal(flows.flows[0].data, x.data * 0.5)
    assert np.array_equal(flows.flows[1].data, x.data * 0.5)


def test_single_pattern_passes_input_through():
    rng = np.random.default_rng(1)
    x, daily, weekly, embed = _inputs(rng, 2, 3, 4, 1, 2, 2)
    flows = decouple(x, daily, weekly, embed, [])
    assert len(flows.flows) == 1
    assert flows.flows[0] is x
    assert flows.ratios == []


def test_streams_conserve_the_input():
    rng = np.random.default_rng(2)
    for trial in range(30):
        g = int(rng.integers(1, 4))
        x, daily, weekly, embed = _inputs(rng, 2, 4, 3, 1, 3, 2)
        flows = decouple(x, daily, weekly, embed, _gates(rng, g - 1, 3, 2, 6))
        assert len(flows.flows) == g
        total = sum(f.data for f in flows.flows)
        assert np.abs(total - x.data).max() <= 1e-12


def test_gate_ratios_strictly_inside_unit_interval():
    rng = np.random.default_rng(3)
    x, daily, weekly, embed = _inputs(rng, None, 4, 3, 1, 3, 2)
    flows = decouple(x, daily, weekly, embed, _gates(rng, 2, 3, 2, 6))
    for ratio in flows.ratios:
        assert np.all(ratio.data > 0.0)
        assert np.all(ratio.data < 1.0)
        assert ratio.shape == (4, 3, 1)


def test_residual_stream_may_go_negative():
    rng = np.random.default_rng(4)
    x = Tensor(np.full((2, 2, 1), 0.01))
    daily = Tensor(rng.standard_normal((2, 2, 3)))
    weekly = Tensor(rng.standard_normal((2, 2, 3)))
    embed = Tensor(rng.standard_normal((2, 2)))
    # two gates near 0.9 each push the residual below zero
    gates = _gates(rng, 2, 3, 2, 6)
    for w1, w2 in gates:
        w1.data = np.abs(w1.data) * 4
        w2.data = np.abs(w2.data) * 4
    flows = decouple(x, daily, weekly, embed, gates)
    assert flows.flows[-1].data.min() < 0


def test_conservation_gradient_is_exactly_zero():
    rng = np.random.default_rng(5)
    x, daily, weekly, embed = _inputs(rng, None, 3, 4, 1, 2, 3)
    gates = _gates(rng, 2, 2, 3, 5)
    with Tape() as tape:
        flows = decouple(x, daily, weekly, embed, gates)
        total = flows.flows[0]
        for f in flows.flows[1:]:
            total = total + f
        tape.backward(total.sum())
    for w1, w2 in gates:
        assert np.array_equal(w1.grad, np.zeros_like(w1.data))
        assert np.array_equal(w2.grad, np.zeros_like(w2.data))


def test_batched_matches_unbatched():
    rng = np.random.default_rng(6)
    x, daily, weekly, embed = _inputs(rng, 3, 4, 2, 1, 2, 2)
    gates = _gates(rng, 1, 2, 2, 5)
    batched = decouple(x, daily, weekly, embed, gates)
    for b in range(3):
        single = decouple(Tensor(x.data[b]), Tensor(daily.data[b]),
                          Tensor(weekly.data[b]), embed, gates)
        for fb, fs in zip(batched.flows, single.flows):
            assert np.allclose(fb.data[b], fs.data, atol=1e-14)
