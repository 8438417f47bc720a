import zlib

import numpy as np
import pytest

from conftest import fd_gradient, rel_err
from fusecast import tensor as T
from fusecast.errors import ConfigError, ShapeError
from fusecast.tensor import Tape, Tensor


def test_matmul_identity():
    eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal((eye @ b).data, b.data)


def test_matmul_hand_dot():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0], [4.0]])
    assert (a @ b).data.tolist() == [[11.0]]


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 5)))
    with Tape() as tape:
        out = (a @ b).sum()
        tape.backward(out)
    # closed form: each row of dA is the vector of column sums of B^T rows
    expected = np.tile(b.data.sum(axis=1), (3, 1))
    assert rel_err(a.grad, expected) < 1e-12
    fd = fd_gradient(lambda: (a @ b).sum().item(), a.data)
    assert rel_err(a.grad, fd) < 1e-6


def test_matmul_shape_error_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 2)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        a @ b


def test_sigmoid_symmetry_point():
    assert T.sigmoid(Tensor(0.0)).item() == pytest.approx(0.5, abs=1e-15)


def test_relu_values():
    out = T.relu(Tensor([-3.0, 3.0]))
    assert out.data.tolist() == [0.0, 3.0]


def test_tanh_gradient_at_zero_is_one():
    x = Tensor(np.zeros(1), requires_grad=True)
    with Tape() as tape:
        tape.backward(T.tanh(x).sum())
    assert x.grad[0] == pytest.approx(1.0, abs=1e-12)
    fd = fd_gradient(lambda: T.tanh(x).sum().item(), x.data)
    assert rel_err(x.grad, fd) < 1e-6


def test_softmax_uniform():
    out = T.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)


def test_softmax_large_inputs_do_not_overflow():
    out = T.softmax(Tensor([1000.0, 1000.0]), axis=0)
    assert np.allclose(out.data, 0.5, atol=1e-15)


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = Tensor(rng.standard_normal((5, 7)) * 10)
        out = T.softmax(x, axis=-1)
        assert np.all(out.data > 0)
        assert np.abs(out.data.sum(axis=-1) - 1.0).max() < 1e-9


def test_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    w = rng.standard_normal((4, 5))  # random downstream weighting
    with Tape() as tape:
        out = (T.softmax(x, axis=-1) * w).sum()
        tape.backward(out)
    fd = fd_gradient(lambda: (T.softmax(x, axis=-1) * w).sum().item(), x.data)
    assert rel_err(x.grad, fd) < 1e-6


def test_concat_axis1():
    a = Tensor([[1.0], [2.0]])
    b = Tensor([[3.0], [4.0]])
    out = T.concat([a, b], axis=1)
    assert out.data.tolist() == [[1.0, 3.0], [2.0, 4.0]]


def test_concat_single_tensor_is_identity():
    a = Tensor([[1.0, 2.0]])
    assert np.array_equal(T.concat([a], axis=0).data, a.data)


def test_concat_gradient_routes_ones():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        tape.backward(T.concat([a, b], axis=1).sum())
    assert np.array_equal(a.grad, np.ones((2, 3)))
    assert np.array_equal(b.grad, np.ones((2, 2)))


def test_concat_off_axis_mismatch():
    with pytest.raises(ShapeError):
        T.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)


def test_dropout_rate_zero_is_identity():
    x = Tensor(np.arange(6.0))
    out = T.dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
    assert out is x


def test_dropout_eval_mode_is_identity():
    x = Tensor(np.arange(6.0))
    assert T.dropout(x, 0.5, training=False) is x


def test_dropout_preserves_expectation():
    rng = np.random.default_rng(123)
    x = Tensor(np.full(100_000, 2.0))
    out = T.dropout(x, 0.5, training=True, rng=rng)
    # mean of inverted dropout equals the input in expectation;
    # std of the sample mean is ~2/sqrt(1e5) ~ 0.0063, allow 5 sigma
    assert abs(out.data.mean() - 2.0) < 0.032
    kept = out.data[out.data != 0]
    assert np.allclose(kept, 4.0)


def test_dropout_invalid_rate():
    with pytest.raises(ConfigError):
        T.dropout(Tensor([1.0]), 1.0, training=True, rng=np.random.default_rng(0))


def test_top_k_rows_example():
    x = Tensor([[0.5, 0.2, 0.9, 0.1]])
    out = T.top_k_rows(x, 2)
    assert out.data.tolist() == [[0.5, 0.0, 0.9, 0.0]]


def test_top_k_rows_ties_prefer_lower_column():
    x = Tensor([[0.3, 0.3, 0.3, 0.3]])
    out = T.top_k_rows(x, 2)
    assert out.data.tolist() == [[0.3, 0.3, 0.0, 0.0]]


def test_top_k_rows_gradient_only_through_survivors():
    x = Tensor([[0.5, 0.2, 0.9, 0.1]], requires_grad=True)
    with Tape() as tape:
        tape.backward(T.top_k_rows(x, 2).sum())
    assert x.grad.tolist() == [[1.0, 0.0, 1.0, 0.0]]


def test_top_k_exceeding_row_length():
    with pytest.raises(ConfigError):
        T.top_k_rows(Tensor(np.zeros((2, 3))), 4)


def test_gather_scatter_adds_repeated_rows():
    table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    idx = np.array([1, 1, 0])
    with Tape() as tape:
        tape.backward(T.gather(table, idx).sum())
    assert table.grad.tolist() == [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]


def test_gather_out_of_range():
    table = Tensor(np.zeros((3, 2)))
    with pytest.raises(IndexError):
        T.gather(table, np.array([3]))


def test_backward_accumulates_each_op_once():
    # diamond: w = z + z with z = x * y; d(sum w)/dx = 2y, /dy = 2x
    x = Tensor([2.0, 3.0], requires_grad=True)
    y = Tensor([5.0, 7.0], requires_grad=True)
    with Tape() as tape:
        z = x * y
        tape.backward((z + z).sum())
    assert x.grad.tolist() == [10.0, 14.0]
    assert y.grad.tolist() == [4.0, 6.0]


def test_no_tape_records_nothing():
    x = Tensor([1.0], requires_grad=True)
    y = x * 2.0
    assert y.requires_grad is False
    assert y.grad is None


def test_independent_tapes_on_threads_do_not_interleave():
    import threading

    results = {}

    def worker(key, scale):
        x = Tensor(np.full(4, scale), requires_grad=True)
        for _ in range(50):
            with Tape() as tape:
                tape.backward((x * x).sum())
            results[key] = x.grad.copy()
            x.grad = None

    threads = [threading.Thread(target=worker, args=(k, s)) for k, s in (("a", 2.0), ("b", 5.0))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert np.array_equal(results["a"], np.full(4, 4.0))
    assert np.array_equal(results["b"], np.full(4, 10.0))


def test_tape_clear_frees_records():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        (x * 2.0).sum()
        assert len(tape) > 0
        tape.clear()
        assert len(tape) == 0


OPS = [
    ("add", lambda a, b: a + b, 2),
    ("sub", lambda a, b: a - b, 2),
    ("mul", lambda a, b: a * b, 2),
    ("div", lambda a, b: a / (b + 3.0), 2),
    ("matmul", lambda a, b: a @ b, "matmul"),
    ("tanh", lambda a: T.tanh(a), 1),
    ("sigmoid", lambda a: T.sigmoid(a), 1),
    ("relu", lambda a: T.relu(a + 0.05), 1),       # offset keeps inputs off the kink
    ("abs", lambda a: T.abs_(a + 0.05), 1),
    ("softmax", lambda a: T.softmax(a, axis=-1), 1),
    ("sum_axis", lambda a: a.sum(axis=0, keepdims=True), 1),
    ("mean", lambda a: a.mean(axis=1), 1),
    ("reshape", lambda a: a.reshape(6, 4), 1),
    ("transpose", lambda a: a.transpose((2, 0, 1)), 1),
    ("narrow", lambda a: T.narrow(a, 1, 1, 2), 1),
    ("broadcast_to", lambda a: T.broadcast_to(a, (3, 2, 3, 4)), 1),
    ("top_k", lambda a: T.top_k_rows(a, 2), 1),
]


@pytest.mark.parametrize("name,op,arity", OPS, ids=[o[0] for o in OPS])
def test_op_gradients_match_finite_differences(name, op, arity):
    # randomized-input property: tape gradient vs central differences at
    # 64-bit, h = 1e-6, relative error < 1e-5. The floor guards entries whose
    # gradient sits below what central differences can resolve (str hash is
    # salted per process, so seed through crc32 instead).
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for trial in range(3):
        if arity == "matmul":
            a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
            b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
            args = (a, b)
        elif arity == 2:
            a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
            b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)  # broadcast case
            args = (a, b)
        else:
            a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
            args = (a,)
        w = rng.standard_normal(op(*args).shape)  # fixed downstream weighting

        def scalar():
            return (op(*args) * w).sum()

        with Tape() as tape:
            tape.backward(scalar())
        for t in args:
            fd = fd_gradient(lambda: scalar().item(), t.data)
            assert rel_err(t.grad, fd, floor=1e-3) < 1e-5, f"{name} trial {trial}"
            t.grad = None


def test_broadcast_gradient_sums_over_expanded_axes():
    a = Tensor(np.ones((3, 1)), requires_grad=True)
    b = Tensor(np.ones((1, 4)), requires_grad=True)
    with Tape() as tape:
        tape.backward((a + b).sum())
    assert np.array_equal(a.grad, np.full((3, 1), 4.0))
    assert np.array_equal(b.grad, np.full((1, 4), 3.0))


def test_split_roundtrip_gradient():
    x = Tensor(np.arange(12.0).reshape(2, 6), requires_grad=True)
    with Tape() as tape:
        parts = T.split(x, [2, 4], axis=1)
        tape.backward(parts[0].sum() * 2.0 + parts[1].sum())
    expected = np.concatenate([np.full((2, 2), 2.0), np.ones((2, 4))], axis=1)
    assert np.array_equal(x.grad, expected)


def test_broadcast_to_matches_numpy_and_sums_gradient_back():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        out = T.broadcast_to(x, (4, 2, 3))
        assert np.array_equal(out.data, np.broadcast_to(x.data, (4, 2, 3)))
        tape.backward(out.sum())
    assert np.array_equal(x.grad, np.full((2, 3), 4.0))


def test_backward_consumes_the_tape():
    x = Tensor(np.arange(4.0), requires_grad=True)
    w = Tensor(np.full(4, 3.0), requires_grad=True)
    with Tape() as tape:
        hidden = T.tanh(x * w)
        loss = (hidden * hidden).sum()
        assert len(tape) > 0
        tape.backward(loss)
        assert len(tape) == 0
    assert hidden.grad is None and loss.grad is None
    expected = 2 * np.tanh(3 * x.data) * (1 - np.tanh(3 * x.data) ** 2)
    assert np.allclose(x.grad, expected * 3.0, rtol=1e-14)
    assert np.allclose(w.grad, expected * x.data, rtol=1e-14)


def test_aliased_first_contribution_is_not_written_in_place():
    # add hands the same gradient array to both operands; x's later
    # contributions must land in a buffer of x's own, never in y's
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        tape.backward((x * 5.0).sum() + (x * 7.0).sum() + ((x + y) * 1.0).sum())
    assert x.grad.tolist() == [13.0, 13.0, 13.0]
    assert y.grad.tolist() == [1.0, 1.0, 1.0]


def test_scalar_tensor_accumulates_every_contribution():
    # products of 0-d arrays are numpy scalars, which cannot be added into in place
    x = Tensor(2.0, requires_grad=True)
    with Tape() as tape:
        tape.backward(x * 1.0 + x * 2.0 + x * 4.0 + x * 8.0)
    assert x.grad == 15.0


def test_overlapping_narrows_mix_with_dense_use():
    x = Tensor(np.arange(10.0), requires_grad=True)
    with Tape() as tape:
        a = T.narrow(x, 0, 0, 6)
        b = T.narrow(x, 0, 4, 6)
        tape.backward((a * 2.0).sum() + (b * 3.0).sum() + (x * x).sum())
    expected = 2 * x.data + np.where(np.arange(10) < 6, 2.0, 0.0) + np.where(np.arange(10) >= 4, 3.0, 0.0)
    assert np.array_equal(x.grad, expected)
    # a slice arriving first and dense contributions after it, on an intermediate
    y = Tensor(np.arange(6.0), requires_grad=True)
    with Tape() as tape:
        z = y * 1.0
        tape.backward(z.sum() + T.narrow(z, 0, 2, 2).sum() * 10.0)
    assert y.grad.tolist() == [1.0, 1.0, 11.0, 11.0, 1.0, 1.0]


def test_read_only_sum_gradient_then_more_accumulation():
    # sum_'s pull is a read-only broadcast view; accumulating on top must copy it
    for loss in (lambda x: x.sum() + (x * 2.0).sum() + T.narrow(x, 1, 0, 1).sum(),
                 lambda x: T.narrow(x, 1, 0, 1).sum() + (x * 2.0).sum() + x.sum(),
                 lambda x: T.narrow(x, 1, 0, 1).sum() + x.sum() * 3.0):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            tape.backward(loss(x))
        assert x.grad.tolist() == [[4.0, 3.0, 3.0], [4.0, 3.0, 3.0]]


def test_float32_gradients_stay_float32():
    x = Tensor(np.ones((2, 4), dtype=np.float32), requires_grad=True)
    with Tape() as tape:
        parts = T.split(x, [1, 3], axis=1)
        tape.backward(parts[0].sum() + (parts[1] * 2.0).sum() + x.sum() + x.mean())
    assert x.grad.dtype == np.float32
    assert np.allclose(x.grad, [[2.125, 3.125, 3.125, 3.125]] * 2)
    # a float64 contribution after two float32 ones promotes the sum as
    # numpy would; the float32 seed keeps the first two pieces float32
    x.grad = None
    with Tape() as tape:
        wide = x * Tensor(np.full(4, 1 + 2.0 ** -40))
        tape.backward(wide + x * 2.0 + x * 3.0, seed=np.ones((2, 4), dtype=np.float32))
    assert x.grad.dtype == np.float64
    assert np.array_equal(x.grad, np.full((2, 4), 6 + 2.0 ** -40))


def test_split_backward_memory_stays_linear():
    # 12 time slices must add into one gradient buffer, not build 12 full arrays
    import tracemalloc

    x = Tensor(np.random.default_rng(0).standard_normal((4, 12, 50, 16)), requires_grad=True)
    with Tape() as tape:
        y = x * 2.0
        loss = None
        for i, piece in enumerate(T.split(y, [1] * 12, axis=-3)):
            term = (piece * float(i)).sum()
            loss = term if loss is None else loss + term
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert np.array_equal(x.grad, np.broadcast_to(2.0 * np.arange(12.0)[:, None, None], x.shape))
    assert peak < 3 * x.data.nbytes, f"backward peaked at {peak / x.data.nbytes:.1f}x the input"
