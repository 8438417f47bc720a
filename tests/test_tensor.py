import os
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from conftest import fd_gradient, flat_records, pull_captures, rel_err, tape_groups
from fusecast import tensor as T
from fusecast.errors import ConfigError, ShapeError
from fusecast.tensor import Tape, Tensor, active_tape
from test_one_record_ops import (ONE_RECORD_OPS, Trial, _top_k_mask_by_stable_sort,
                                 assert_matches_chain, attention_trial, div, reshape)

SRC = os.path.dirname(os.path.dirname(T.__file__))


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


# b is a 2-D weight, so b's pull is one GEMM over every row of a. Each case:
# a's shape, the view of a that multiplies b, and the op applied to the product.
WEIGHT_CASES = {
    "2-d": ((4, 5), None, None),  # no leading axes, as a_spatial @ wq
    "3-d": ((6, 4, 5), None, None),
    "4-d": ((2, 3, 4, 5), None, None),
    "narrow": ((2, 3, 6, 5), lambda x: T.narrow(x, 2, 1, 4), None),  # a non-contiguous, as x_t
    "swapped": ((2, 3, 4, 5), None, lambda y: T.swapaxes(y, 0, 2)),  # g arrives non-contiguous
}


def _weight_case(a_data, b_data, view, after):
    """Tape gradients of sum(after(view(a) @ b) * w) for a fixed random weighting w."""
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    w = np.random.default_rng(1).standard_normal(after(view(a) @ b).shape).astype(a_data.dtype)

    def scalar():
        return (after(view(a) @ b) * w).sum()

    with Tape() as tape:
        tape.backward(scalar())
    return a, b, scalar, w


@pytest.mark.parametrize("case", WEIGHT_CASES)
def test_matmul_weight_gradient(case):
    shape, view, after = WEIGHT_CASES[case]
    view, after = view or (lambda x: x), after or (lambda y: y)
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    a64, b64 = rng.standard_normal(shape), rng.standard_normal((5, 3))
    a, b, scalar, _ = _weight_case(a64, b64, view, after)
    for t in (a, b):
        fd = fd_gradient(lambda: scalar().item(), t.data)
        assert rel_err(t.grad, fd, floor=1e-3) < 1e-5, case
    # float32: the output and a's gradient are the batched products' bits, and
    # b's gradient is the per-window products' sum up to reassociation
    a32, b32 = a64.astype(np.float32), b64.astype(np.float32)
    a, b, _, w = _weight_case(a32, b32, view, after)
    av = view(Tensor(a32)).data
    y = Tensor(av @ b32, requires_grad=True)
    assert np.array_equal((view(Tensor(a32)) @ Tensor(b32)).data, y.data)
    with Tape() as tape:
        tape.backward((after(y) * w).sum())
    g = y.grad  # the gradient the product's pulls receive
    x = Tensor(a32, requires_grad=True)
    with Tape() as tape:
        tape.backward(view(x) * Tensor(g @ b32.T))
    assert np.array_equal(a.grad, x.grad)
    old = T._unbroadcast(np.swapaxes(av, -1, -2) @ g, b32.shape)
    assert b.grad.dtype == np.float32
    if av.ndim == 2:  # the one GEMM is a.T @ g itself
        assert b.grad.tobytes() == (av.T @ g).tobytes()
    assert np.linalg.norm(b.grad - old) <= 10 * np.finfo(np.float32).eps * np.linalg.norm(old)


def test_matmul_weight_gradient_with_a_zero_length_axis():
    # a zero-length leading axis, and a zero-length K
    for a_shape, b_shape in (((2, 0, 4, 5), (5, 3)), ((2, 3, 4, 0), (0, 3))):
        a, b, _, _ = _weight_case(np.zeros(a_shape), np.ones(b_shape), lambda x: x, lambda y: y)
        assert a.grad.shape == a_shape and not a.grad.any()
        assert b.grad.shape == b_shape and not b.grad.any()


def test_matmul_weight_backward_memory_stays_near_the_input():
    # the one-GEMM pull makes no [B, N, K, n] temporary: at the RGC's PEMS08
    # shape the per-window products peaked near 7x a's bytes
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((16, 170, 12, 96), dtype=np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal((96, 64), dtype=np.float32), requires_grad=True)
    with Tape() as tape:
        out = a @ b
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tape.backward(out)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert b.grad.shape == (96, 64)
    assert peak < 2 * a.data.nbytes, f"backward peaked at {peak / a.data.nbytes:.1f}x the input"


def test_matmul_shape_error_names_both_shapes():
    # an inner-dimension and a batch-dimension mismatch, and 1-d operands on either side
    for a_shape, b_shape in (((2, 3), (4, 2)), ((2, 3, 4), (5, 4, 2)), ((3,), (3, 2)),
                             ((2, 3), (3,))):
        a = Tensor(np.zeros(a_shape))
        b = Tensor(np.zeros(b_shape))
        with pytest.raises(ShapeError,
                           match=rf"{re.escape(str(a_shape))}.*{re.escape(str(b_shape))}"):
            a @ b


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)], ids=["0-d", "1-d", "2-d"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_item_of_one_element_tensor(shape, dtype):
    value = Tensor(np.full(shape, 0.1, dtype=dtype)).item()
    assert type(value) is float
    assert value == float(dtype(0.1))


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
    out = T._softmax(np.array([0.0, 0.0, 0.0]))
    assert np.allclose(out, 1.0 / 3.0, atol=1e-15)


def test_softmax_large_inputs_do_not_overflow():
    out = T._softmax(np.array([1000.0, 1000.0]))
    assert np.allclose(out, 0.5, atol=1e-15)


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(1)
    for _ in range(20):
        out = T._softmax(rng.standard_normal((5, 7)) * 10)
        assert np.all(out > 0)
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-9


def test_softmax_gradient_matches_finite_differences():
    # with k = v = identity, attention is the softmax of q * scale
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    eye = Tensor(np.eye(5))
    w = rng.standard_normal((4, 5))  # random downstream weighting
    with Tape() as tape:
        out = (T.attention(x, eye, eye, 1.0) * w).sum()
        tape.backward(out)
    fd = fd_gradient(lambda: (T.attention(x, eye, eye, 1.0) * w).sum().item(), x.data)
    assert rel_err(x.grad, fd) < 1e-6


def test_softmax_leaves_its_input_unchanged():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((3, 4, 5)).astype(np.float32)
    x = data.copy()
    out = T._softmax(x)
    assert x.tobytes() == data.tobytes()
    assert not np.shares_memory(out, x)


def test_concat_axis1():
    a = Tensor([[1.0], [2.0]])
    b = Tensor([[3.0], [4.0]])
    out = T.concat([a, b], axis=1)
    assert out.data.tolist() == [[1.0, 3.0], [2.0, 4.0]]


def test_concat_single_tensor_is_identity():
    a = Tensor([[1.0, 2.0]], requires_grad=True)
    assert np.array_equal(T.concat([a], axis=0).data, a.data)
    with Tape() as tape:
        assert T.concat([a], axis=0) is a
        assert len(tape) == 0


def test_concat_gradient_routes_ones():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        tape.backward(T.concat([a, b], axis=1).sum())
    assert np.array_equal(a.grad, np.ones((2, 3)))
    assert np.array_equal(b.grad, np.ones((2, 2)))


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul, div])
def test_elementwise_shape_error_names_both_shapes(op):
    message = rf"^{op.__name__}: shapes \(2, 3\) and \(4, 3\) are not broadcastable$"
    with pytest.raises(ShapeError, match=message):
        op(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))))
    # under a tape and with a gradient slot: the same error, and nothing recorded
    with Tape() as tape:
        with pytest.raises(ShapeError, match=message):
            op(Tensor(np.ones((2, 3)), requires_grad=True), Tensor(np.ones((4, 3))))
        assert len(tape) == 0


def test_concat_of_nothing_raises():
    with pytest.raises(ShapeError, match="at least one tensor"):
        T.concat([])


def test_concat_off_axis_mismatch():
    # an off-axis dimension and an ndim mismatch
    for first, second in (((2, 3), (3, 3)), ((2, 3), (2, 3, 1))):
        with pytest.raises(ShapeError,
                           match=rf"{re.escape(str(first))}.*{re.escape(str(second))}"):
            T.concat([Tensor(np.zeros(first)), Tensor(np.zeros(second))], axis=1)


AXIS_OPS = {
    "sum": lambda x, axis: T.sum_(x, axis=axis),
    "sum_tuple": lambda x, axis: T.sum_(x, axis=(axis,)),
    "mean": lambda x, axis: T.mean(x, axis=axis),
    "concat": lambda x, axis: T.concat([x, x], axis=axis),
    "concat_single": lambda x, axis: T.concat([x], axis=axis),
    "narrow": lambda x, axis: T.narrow(x, axis, 0, 1),
    "swapaxes": lambda x, axis: T.swapaxes(x, axis, 0),
    "swapaxes_second": lambda x, axis: T.swapaxes(x, 0, axis),
}


@pytest.mark.parametrize("op", AXIS_OPS)
def test_out_of_range_axis_raises_instead_of_wrapping(op):
    x = Tensor(np.ones((2, 2)))
    for axis in (2, 5, -3):
        with pytest.raises(ShapeError, match=f"axis {axis} "):
            AXIS_OPS[op](x, axis)
    for axis in (-2, 1, np.int64(-2), np.int64(1)):  # the ends of the range still work
        AXIS_OPS[op](x, axis)
    with pytest.raises(ShapeError, match="axis 0 "):
        AXIS_OPS[op](Tensor(np.array(1.0)), 0)  # a 0-d operand has no axis at all
    for axis in (1.0, np.float64(-1.0), 0.5):  # an axis must be an integer, not just in range
        with pytest.raises(ShapeError, match=f"axis {axis} is not an integer"):
            AXIS_OPS[op](x, axis)


def test_top_k_rows_example():
    x = np.array([[0.5, 0.2, 0.9, 0.1]])
    assert T._top_k_mask(x, 2).tolist() == [[True, False, True, False]]


def test_top_k_rows_ties_prefer_lower_column():
    x = np.array([[0.3, 0.3, 0.3, 0.3]])
    assert T._top_k_mask(x, 2).tolist() == [[True, True, False, False]]


def test_top_k_rows_gradient_only_through_survivors():
    x = Tensor([[0.5, 0.2, 0.9, 0.1]], requires_grad=True)
    with Tape() as tape:
        out = T.saturated_top_k(x, 1.0, 2)
        tape.backward(out.sum())
    a = np.tanh(x.data)
    assert out.data.tolist() == [[a[0, 0], 0.0, a[0, 2], 0.0]]
    assert x.grad.tolist() == [[1.0 - a[0, 0] ** 2, 0.0, 1.0 - a[0, 2] ** 2, 0.0]]


def test_top_k_exceeding_row_length():
    for k in (4, 0, -1):
        with pytest.raises(ConfigError, match=rf"top-k: k={k} outside \[1, 3\]"):
            T.saturated_top_k(Tensor(np.zeros((2, 3))), 1.0, k)
    T.saturated_top_k(Tensor(np.zeros((2, 3))), 1.0, 3)  # the row length keeps every entry


def _top_k_case(rng, kind, shape):
    """A pre-activation x and a scale whose relu(tanh(scale * x)) is of the named kind."""
    x = rng.standard_normal(shape)
    if kind == "distinct":
        return np.abs(x) + 0.1, 0.5  # every entry positive and distinct
    if kind == "saturated":
        return 3.0 * x, 9.0  # about half the entries are exactly +-1.0 after tanh
    if kind == "few_positive":
        return x - 1.5, 9.0  # fewer than k positives: zero ties
    x = 3.0 * x
    x[..., 0, 3] = np.nan
    x[..., 1, ::2] = np.nan  # half the row: fewer than k numbers once k > n/2
    x[..., 2, :] = np.nan
    return x, 9.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(9, 12), (3, 9, 12)], ids=["2d", "batched"])
@pytest.mark.parametrize("kind", ["distinct", "saturated", "few_positive", "nan"])
def test_top_k_rows_equals_stable_sort_selection(kind, shape, dtype):
    # property test against the sort the selection replaces: the selection
    # mask, and saturated_top_k's output and gradient against the reference
    # chain, bitwise, ties and NaN included
    rng = np.random.default_rng(zlib.crc32(f"{kind}{shape}{dtype.__name__}".encode()))
    n = shape[-1]
    for trial in range(4):
        pre, scale = _top_k_case(rng, kind, shape)
        pre = pre.astype(dtype)
        data = np.maximum(np.tanh(pre * np.asarray(scale, dtype=dtype)), 0.0)
        for k in (1, 2, n // 2, n - 1, n):
            mask = _top_k_mask_by_stable_sort(data, k)
            if k < n:
                assert np.array_equal(T._top_k_mask(data, k), mask == 1), (trial, k)
            x = Tensor(pre.copy(), requires_grad=True)
            out, (grad,) = assert_matches_chain(ONE_RECORD_OPS["saturated_top_k"],
                                                Trial([x], (scale, k)), rng)
            assert out.tobytes() == (data * mask).tobytes(), (trial, k)
            # gradient flows through survivors only (a NaN entry's is NaN, as in the chain)
            assert not grad[(mask == 0) & ~np.isnan(data)].any()
            assert np.array_equal(np.isnan(out), np.isnan(data))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [12, 170])
@pytest.mark.parametrize("batch", [None, 3], ids=["2d", "shared_q"])
def test_attention_equals_the_chain_of_tensor_ops(batch, n, dtype):
    # a 2-D q shared across a batched k and v, as fuse_graphs runs it
    rng = np.random.default_rng(zlib.crc32(f"{batch}{n}{dtype.__name__}".encode()))
    trial = attention_trial(rng, dtype, n, () if batch is None else (batch,))
    assert_matches_chain(ONE_RECORD_OPS["attention"], trial, rng)


def test_attention_records_one_op_that_keeps_no_scores():
    rng = np.random.default_rng(4)
    q, k, v = (Tensor(rng.standard_normal((2, 30, 3)), requires_grad=True) for _ in range(3))
    with Tape() as tape:
        out = T.attention(q, k, v, 0.5)
        (_, pulls), = flat_records(tape)
        captured = {id(c): c for _, pull in pulls for c in pull_captures(pull)}
        held = [a for a in captured.values() if isinstance(a, np.ndarray)]
        assert sorted(a.shape for a in held) == [(2, 30, 3)] * 3  # q, k and v, no [2, 30, 30]
        tape.backward(out.sum())
    with pytest.raises(ShapeError, match=r"attention: shapes \(2, 30, 3\), \(2, 30, 4\)"):
        T.attention(q, Tensor(np.ones((2, 30, 4))), v, 0.5)


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


def test_reused_op_output_gradient_is_cleared_through_grad():
    # an op output of a finished tape feeds two new tapes; clearing its
    # .grad before each must leave one round's gradient, not the sum of two
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        h = x * 3.0
        tape.backward(h.sum())
    for _ in range(2):
        h.grad = None
        with Tape() as tape:
            tape.backward((h * h).sum())
    assert np.array_equal(h.grad, 2.0 * h.data)
    assert h.grad is h._slot.grad


def test_backward_from_an_output_with_no_slot_empties_the_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        x * 2.0
        zero = Tensor(0.0)  # like the loss of an empty mask: it needs no gradient
        assert len(tape) == 1
        tape.backward(zero)
    assert len(tape) == 0
    assert x.grad is None


def test_nested_tapes_record_only_into_the_innermost():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as outer:
        x * 2.0
        assert len(outer) == 1
        with Tape() as inner:
            x * 3.0
            assert active_tape() is inner
        assert (len(outer), len(inner)) == (1, 1)
        assert active_tape() is outer
        x * 4.0
        assert len(outer) == 2
    assert active_tape() is None


def test_exception_inside_tape_restores_the_active_tape():
    with Tape() as outer:
        with pytest.raises(RuntimeError):
            with Tape():
                raise RuntimeError("boom")
        assert active_tape() is outer
    assert active_tape() is None


def test_op_on_a_worker_records_into_its_task_list():
    x = Tensor([1.0, 2.0], requires_grad=True)
    seen = {}

    def task(g):
        out = x * float(g + 2)
        seen[g] = (threading.current_thread() is threading.main_thread(),
                   T._LOCAL.records[-1][0] is out._slot,
                   any(slot is out._slot for slot, _ in flat_records(tape)))
        return out

    with Tape() as tape:
        x * 1.0
        outs = T.ordered_map(task, 2)
        assert T._LOCAL.records is None
        assert len(tape._records) == 2 and isinstance(tape._records[1], T._Group)
        assert [[slot for slot, _ in records] for records in tape._records[1]] == [
            [o._slot] for o in outs]
        tape.backward(outs[0].sum() + outs[1].sum())
    assert seen == {0: (True, True, False), 1: (False, True, False)}
    assert x.grad.tolist() == [5.0, 5.0]


def test_ordered_map_tape_equals_the_plain_loop_under_thread_switching():
    """More threads than cores and a short switch interval: lost order would show."""
    x = Tensor(np.linspace(-1.0, 1.0, 6), requires_grad=True)

    def task(g):
        h = T.broadcast_to(x, (g + 1, 6))  # every record of task g has its own shape
        for i in range(40):
            h = T.tanh(h * (1.0 + 0.01 * g) + T.narrow(x, 0, i % 6, 1))
        return h.sum()

    def run(mapper):
        x.grad = None
        with Tape() as tape:
            outs = mapper(task, 16)
            shapes = [slot.shape for slot, _ in flat_records(tape)]
            groups = [len(group) for group in tape_groups(tape)]
            total = outs[0]
            for out in outs[1:]:
                total = total + out
            tape.backward(total)
        return [o.data.tobytes() for o in outs], shapes, x.grad.tobytes(), groups

    threads = threading.active_count()
    *serial, no_groups = run(lambda fn, count: [fn(g) for g in range(count)])
    assert no_groups == []  # so its backward is serial
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            *mapped, groups = run(T.ordered_map)
            assert mapped == serial
            # one group, one list per task, which backward ran on the workers too
            assert groups == [16]
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads


def test_every_task_after_the_first_gets_a_thread_of_its_own(monkeypatch):
    started, start = [], threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    ran = []

    def task(g):
        ran.append((g, threading.current_thread()))
        return g

    assert T.ordered_map(task, 3) == [0, 1, 2]
    assert len(started) == 2
    assert sorted(g for g, _ in ran) == [0, 1, 2]
    threads = dict(ran)
    assert threads[0] is threading.main_thread()
    assert [threads[1], threads[2]] == started


def test_first_failure_in_task_order_raises_after_every_task_ends():
    x = Tensor([1.0], requires_grad=True)
    failed, ended = threading.Event(), []

    def task(g):
        x * 2.0
        if g == 0:
            assert failed.wait(timeout=10)  # the workers fail first
            ended.append(g)
            return g
        failed.set()
        raise ShapeError(f"task {g}")

    with Tape() as tape:
        with pytest.raises(ShapeError, match=r"^task 1$"):
            T.ordered_map(task, 3)
        assert ended == [0]
        assert len(tape) == 0
        with pytest.raises(ZeroDivisionError):
            T.ordered_map(lambda g: 1 / g, 2)


def test_nested_ordered_map_raises():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        with pytest.raises(RuntimeError, match="ordered_map"):
            T.ordered_map(lambda g: T.ordered_map(lambda h: x * 2.0, 2), 2)
        assert T._LOCAL.records is None
        assert tape._records == []


def test_group_adds_shared_pieces_in_serial_order():
    """float32 pieces 1e8, 1 and -1e8 into one leaf: each order of adding them has its own bits."""
    x = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
    factors = [[1.0, -1e8], [1e8]]  # range 0 pulls -1e8 then 1, range 1 pulls 1e8

    def task(g):
        return [x * f for f in factors[g]]

    def grad(mapper):
        x.grad = None
        with Tape() as tape:
            outs = [y for ys in mapper(task, 2) for y in ys]
            assert len(tape_groups(tape)) == (mapper is T.ordered_map)
            total = outs[0]
            for y in outs[1:]:
                total = total + y
            tape.backward(total)
        return x.grad

    serial = grad(lambda fn, count: [fn(g) for g in range(count)])
    assert serial.dtype == np.float32
    assert grad(T.ordered_map).tobytes() == serial.tobytes()
    one = np.float32(1.0)
    assert serial[0] == (np.float32(1e8) + np.float32(-1e8)) + one == 1.0
    assert (np.float32(-1e8) + one) + np.float32(1e8) != serial[0]  # range 0 first
    assert (np.float32(1e8) + one) + np.float32(-1e8) != serial[0]  # range 0's pieces reversed


def _record(x, pull):
    """One recorded op on x whose backward runs `pull`."""
    return T._make(x.data * 1.0, [(x, pull)])


def test_group_failure_raises_the_last_range_first_once_both_end():
    x = Tensor([1.0], requires_grad=True)
    failed, ended, threads = threading.Event(), [], {}

    def pull_0(g):
        threads[0] = threading.current_thread()
        assert failed.wait(timeout=10)  # range 1 fails first
        ended.append(0)
        raise ShapeError("range 0")

    def pull_1(g):
        threads[1] = threading.current_thread()
        failed.set()
        raise ShapeError("range 1")

    with Tape() as tape:
        outs = T.ordered_map(lambda g: _record(x, (pull_0, pull_1)[g]), 2)
        with pytest.raises(ShapeError, match=r"^range 1$"):
            tape.backward(outs[0] + outs[1])
    assert ended == [0]
    assert threads[0] is threading.main_thread() and threads[1] is not threading.main_thread()


def test_a_slotless_backward_drops_groups():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        T.ordered_map(lambda g: x * float(g), 2)
        assert len(tape) == 2 and len(tape._records) == 1
        assert [len(records) for records in tape._records[0]] == [1, 1]
        tape.backward(Tensor(0.0))
        assert len(tape) == 0 and tape._records == []
    assert x.grad is None


def test_records_nothing_consumes_leave_backward_unchanged():
    """A record or group whose output no later op reads gets no gradient, so backward skips it."""
    rng = np.random.default_rng(0)
    w = Tensor(rng.standard_normal((3, 3)).astype(np.float32), requires_grad=True)
    x = rng.standard_normal((4, 3)).astype(np.float32)

    def grad(leftovers):
        w.grad = None
        with Tape() as tape:
            loss = T.tanh(Tensor(x) @ w).sum()
            if leftovers:
                T.tanh(Tensor(x) @ w) * 3.0
                T.ordered_map(lambda g: Tensor(x[2 * g:2 * g + 2]) @ w, 2)
                assert len(tape) == 8 and len(tape_groups(tape)) == 1
            tape.backward(loss)
            assert len(tape) == 0 and tape._records == []
        return w.grad

    assert grad(True).tobytes() == grad(False).tobytes()


OPS = [
    ("add", lambda a, b: a + b, 2),
    ("sub", lambda a, b: a - b, 2),
    ("mul", lambda a, b: a * b, 2),
    ("div", lambda a, b: div(a, b + 3.0), 2),  # div and reshape: the reference chains' own
    ("matmul", lambda a, b: a @ b, "matmul"),
    ("tanh", lambda a: T.tanh(a), 1),
    ("sigmoid", lambda a: T.sigmoid(a), 1),
    ("relu", lambda a: T.relu(a + 0.05), 1),       # offset keeps inputs off the kink
    ("abs", lambda a: T.abs_(a + 0.05), 1),
    ("softmax", lambda a: T.attention(a, Tensor(np.eye(4)), Tensor(np.eye(4)), 1.0), 1),
    ("attention", lambda q, k, v: T.attention(q, k, v, 0.7), "attention"),
    ("sum_axis", lambda a: a.sum(axis=0, keepdims=True), 1),
    ("mean", lambda a: a.mean(axis=1), 1),
    ("reshape", lambda a: reshape(a, (6, 4)), 1),
    ("swapaxes", lambda a: T.swapaxes(a, 0, 2), 1),
    ("narrow", lambda a: T.narrow(a, 1, 1, 2), 1),
    ("broadcast_to", lambda a: T.broadcast_to(a, (3, 2, 3, 4)), 1),
    ("top_k", lambda a: T.saturated_top_k(a, 0.7, 2), 1),
    ("saturated_top_k", lambda a: T.saturated_top_k(a, 0.7, 4), 1),  # k = n keeps every entry
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
        elif arity == "attention":  # a 2-D query shared across a batched key and value
            args = tuple(Tensor(rng.standard_normal(shape), requires_grad=True)
                         for shape in ((3, 4), (2, 5, 4), (2, 5, 6)))
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


def test_narrow_roundtrip_gradient():
    x = Tensor(np.arange(12.0).reshape(2, 6), requires_grad=True)
    with Tape() as tape:
        parts = [T.narrow(x, 1, 0, 2), T.narrow(x, 1, 2, 4)]
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


def test_backward_adds_the_seed_to_a_gradient_already_in_the_output_slot():
    # through an op, and from a leaf that no record produced
    x = Tensor(np.arange(1.0, 4.0), requires_grad=True)
    g0 = np.array([10.0, 20.0, 30.0])
    with Tape() as tape:
        y = x * 2.0
        y.grad = g0
        tape.backward(y)
    assert x.grad.tolist() == [22.0, 42.0, 62.0]
    assert g0.tolist() == [10.0, 20.0, 30.0]
    x.grad = g0
    with Tape() as tape:
        tape.backward(x)
    assert x.grad.tolist() == [11.0, 21.0, 31.0]
    assert g0.tolist() == [10.0, 20.0, 30.0]


def test_aliased_first_contribution_is_not_written_in_place():
    # add hands the same gradient array to both operands; each later
    # contribution to x makes a new sum, so y's gradient stays as it was
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        tape.backward((x * 5.0).sum() + (x * 7.0).sum() + ((x + y) * 1.0).sum())
    assert x.grad.tolist() == [13.0, 13.0, 13.0]
    assert y.grad.tolist() == [1.0, 1.0, 1.0]


def test_scalar_tensor_accumulates_every_contribution():
    # a sum of 0-d arrays is a numpy scalar; the gradient must stay an array
    x = Tensor(2.0, requires_grad=True)
    with Tape() as tape:
        tape.backward(x * 1.0 + x * 2.0 + x * 4.0 + x * 8.0)
    assert isinstance(x.grad, np.ndarray) and x.grad == 15.0


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
    # sum_'s pull is a read-only broadcast view; accumulating on top must not write it
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
        parts = [T.narrow(x, 1, 0, 1), T.narrow(x, 1, 1, 3)]
        tape.backward(parts[0].sum() + (parts[1] * 2.0).sum() + x.sum() + x.mean())
    assert x.grad.dtype == np.float32
    assert np.allclose(x.grad, [[2.125, 3.125, 3.125, 3.125]] * 2)
    # a float64 pass on top of two float32 contributions, with no
    # zero_grad between them, promotes the sum as numpy would
    x.grad = None
    with Tape() as tape:
        tape.backward(x * 2.0 + x * 5.0)
    assert x.grad.dtype == np.float32
    with Tape() as tape:
        tape.backward(x * Tensor(np.full(4, 1 + 2.0 ** -40)))
    assert x.grad.dtype == np.float64
    assert np.array_equal(x.grad, np.full((2, 4), 8 + 2.0 ** -40))


def test_tape_pulls_capture_no_tensor(toy_setup):
    # A pull that mentions a Tensor, even only for `x.shape`, keeps x and its
    # data alive until backward, and a captured view keeps its whole base
    # buffer, so one such pull per op pins every activation of the step.
    series, train_ws, _, _, norm, model = toy_setup
    assert (model.cfg.patterns, model.cfg.rgc_iterations) == (2, 2)
    hist, _, tod, dow = train_ws.batch([0, 1, 2])
    with Tape() as tape:
        model.forward_batch(hist, tod, dow, training=True, rng=np.random.default_rng(0))
        assert len(tape) > 100
        for slot, pulls in flat_records(tape):
            assert not isinstance(slot, Tensor)
            for _, pull in pulls:
                held = [c for c in pull_captures(pull) if isinstance(c, Tensor)]
                assert not held, f"{pull.__qualname__} holds {held}"


def test_dropped_intermediate_is_freed_unless_a_pull_reads_it():
    x = Tensor(np.linspace(-1.0, 1.0, 5), requires_grad=True)
    with Tape() as tape:
        y = T.mul(x, 2.0)
        z = T.add(y, 1.0)
        y_data = weakref.ref(y.data)
        del y
        assert y_data() is None  # add's pulls read shapes only
        h = T.tanh(z)
        loss = h.sum()
        h_data = weakref.ref(h.data)
        del h
        assert h_data() is not None  # tanh's pull reads its output
        tape.backward(loss)
    assert h_data() is None  # and lets go of it once it has run
    assert np.allclose(x.grad, 2.0 * (1.0 - np.tanh(2.0 * x.data + 1.0) ** 2), rtol=1e-14)


def test_add_chain_memory_stays_flat():
    # every link of the chain is dropped by the loop; a tape holding the
    # links would peak near 50x the input
    x = Tensor(np.ones(1 << 17), requires_grad=True)  # 1 MB of float64
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            y = x
            for _ in range(50):
                y = T.add(y, 1.0)
            tape.backward(y)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(y.data, np.full(x.shape, 51.0))
    assert np.array_equal(x.grad, np.ones(x.shape))
    assert peak < 3 * x.data.nbytes, f"the chain peaked at {peak / x.data.nbytes:.1f}x the input"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_mask_from_its_output_matches_the_input_sign(dtype):
    x = Tensor(np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 2.5, -1.5, 1e-30], dtype=dtype),
               requires_grad=True)
    with Tape() as tape:
        y = T.relu(x)
        tape.backward(y)
    assert np.array_equal(y.data > 0, x.data > 0)
    assert x.grad.tobytes() == (x.data > 0).astype(dtype).tobytes()


# Each round allocates and frees two 8 MB float32 arrays on the main thread
# and two on a worker; prints the minor faults of the 40 counted rounds.
FAULT_PROBE = """
import resource, threading
import numpy as np
import fusecast.tensor

def churn():
    np.ones(2 << 20, dtype=np.float32) * 2.0

def rounds(count):
    for _ in range(count):
        churn()
        worker = threading.Thread(target=churn)
        worker.start()
        worker.join()

rounds(5)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rounds(40)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _on_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _probe_faults(**malloc_env):
    env = {k: v for k, v in os.environ.items()
           if k not in T._MALLOC_ENVIRONMENT and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(malloc_env)
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


def test_malloc_policy_values_fit_a_c_int():
    # mallopt takes a C int: 1 << 32 would wrap to 0 and trim everything
    assert all(0 < value < 2**31 for _, value in T._MALLOC_POLICY)


@pytest.mark.skipif(not _on_glibc(), reason="the allocator policy is set on glibc only")
def test_freed_arrays_stay_mapped_on_every_thread():
    # glibc's defaults map, unmap and fault in each array again: about 40k faults
    faults = _probe_faults()
    assert faults < 1000, f"{faults} minor faults over 40 rounds of 8 MB arrays"


@pytest.mark.skipif(not _on_glibc(), reason="the allocator policy is set on glibc only")
def test_an_explicit_malloc_setting_wins_over_the_policy():
    # a trim threshold of 0 returns every freed array to the OS, so the
    # probe faults its memory in again each round if the setting was kept
    faults = _probe_faults(MALLOC_TRIM_THRESHOLD_="0")
    assert faults > 1000, f"only {faults} minor faults: the explicit setting was overridden"
