import os
import re
import sys
import threading
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from conftest import fd_gradient, rel_err
from fusecast import tensor as T
from fusecast.errors import ConfigError, ShapeError
from fusecast.tensor import Tape, Tensor, active_tape


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


def test_softmax_leaves_its_input_unchanged():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((3, 4, 5)).astype(np.float32)
    x = Tensor(data.copy(), requires_grad=True)
    with Tape() as tape:
        out = T.softmax(x, axis=-1)
        tape.backward(out.sum())
    assert x.data.tobytes() == data.tobytes()
    assert not np.shares_memory(out.data, x.data)


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


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div])
def test_elementwise_shape_error_names_both_shapes(op):
    with pytest.raises(ShapeError, match=r"\(2, 3\) and \(4, 3\) are not broadcastable"):
        op(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))))


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
    "softmax": lambda x, axis: T.softmax(x, axis=axis),
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


def test_dropout_rate_zero_is_identity():
    x = Tensor(np.arange(6.0))
    out = T.dropout(x, 0.0, training=True, uniforms=np.random.default_rng(0).random(6))
    assert out is x


def test_dropout_eval_mode_is_identity():
    x = Tensor(np.arange(6.0))
    assert T.dropout(x, 0.5, training=False) is x


def test_dropout_preserves_expectation():
    rng = np.random.default_rng(123)
    x = Tensor(np.full(100_000, 2.0))
    out = T.dropout(x, 0.5, training=True, uniforms=rng.random(x.shape))
    # mean of inverted dropout equals the input in expectation;
    # std of the sample mean is ~2/sqrt(1e5) ~ 0.0063, allow 5 sigma
    assert abs(out.data.mean() - 2.0) < 0.032
    kept = out.data[out.data != 0]
    assert np.allclose(kept, 4.0)


def test_dropout_invalid_rate():
    with pytest.raises(ConfigError):
        T.dropout(Tensor([1.0]), 1.0, training=True, uniforms=np.random.default_rng(0).random(1))


def test_dropout_in_training_needs_an_rng():
    with pytest.raises(ConfigError, match="explicit rng"):
        T.dropout(Tensor([1.0]), 0.5, training=True)


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
    for k in (4, 0, -1):
        with pytest.raises(ConfigError):
            T.top_k_rows(Tensor(np.zeros((2, 3))), k)


def _top_k_mask_by_stable_sort(x: np.ndarray, k: int) -> np.ndarray:
    """Reference selection: the first k columns of a stable descending sort."""
    order = np.argsort(-x, axis=-1, kind="stable")
    mask = np.zeros(x.shape, dtype=x.dtype)
    np.put_along_axis(mask, order[..., :k], 1.0, axis=-1)
    return mask


def _top_k_case(rng, kind, shape):
    x = rng.standard_normal(shape)
    if kind == "saturated":
        return np.tanh(9.0 * 3.0 * x)  # about half the entries are exactly +-1.0
    if kind == "few_positive":
        return np.maximum(np.tanh(9.0 * (x - 1.5)), 0.0)  # fewer than k positives: zero ties
    if kind == "nan":
        x = np.maximum(np.tanh(9.0 * 3.0 * x), 0.0)
        x[..., 0, 3] = np.nan
        x[..., 1, ::2] = np.nan  # half the row: fewer than k numbers once k > n/2
        x[..., 2, :] = np.nan
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(9, 12), (3, 9, 12)], ids=["2d", "batched"])
@pytest.mark.parametrize("kind", ["distinct", "saturated", "few_positive", "nan"])
def test_top_k_rows_equals_stable_sort_selection(kind, shape, dtype):
    # property test against the sort it replaces: masks, outputs and
    # gradients bitwise equal, ties and NaN included
    rng = np.random.default_rng(zlib.crc32(f"{kind}{shape}{dtype.__name__}".encode()))
    n = shape[-1]
    for trial in range(4):
        data = _top_k_case(rng, kind, shape).astype(dtype)
        seed = rng.standard_normal(shape).astype(dtype)
        for k in (1, 2, n // 2, n - 1):
            mask = _top_k_mask_by_stable_sort(data, k)
            x = Tensor(data.copy(), requires_grad=True)
            with Tape() as tape:
                out = T.top_k_rows(x, k)
                tape.backward((out * Tensor(seed)).sum())
            assert out.dtype == x.grad.dtype == dtype
            assert out.data.tobytes() == (data * mask).tobytes(), (trial, k)
            assert x.grad.tobytes() == (seed * mask).tobytes(), (trial, k)
            assert np.array_equal(x.grad != 0, mask == 1)  # the seed has no zeros
            assert np.array_equal(np.isnan(out.data), np.isnan(data))


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


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_op_on_a_worker_records_into_its_task_list(monkeypatch):
    _cpus(monkeypatch, 2)
    x = Tensor([1.0, 2.0], requires_grad=True)
    seen = {}

    def task(g):
        out = x * float(g + 2)
        seen[g] = (threading.current_thread() is threading.main_thread(),
                   T._LOCAL.records[-1][0] is out._slot,
                   any(slot is out._slot for slot, _ in tape._records))
        return out

    with Tape() as tape:
        x * 1.0
        outs = T.ordered_map(task, 2)
        assert T._LOCAL.records is None
        assert [slot for slot, _ in tape._records[1:]] == [o._slot for o in outs]
        tape.backward(outs[0].sum() + outs[1].sum())
    assert seen == {0: (True, True, False), 1: (False, True, False)}
    assert x.grad.tolist() == [5.0, 5.0]


def test_ordered_map_tape_equals_the_plain_loop_under_thread_switching(monkeypatch):
    """More threads than cores and a short switch interval: lost order would show."""
    _cpus(monkeypatch, 8)
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
            shapes = [slot.shape for slot, _ in tape._records]
            groups = [list(bounds) for bounds in tape._groups]
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
            # one group, one range per task, which backward ran on the workers too
            assert [len(bounds) for bounds in groups] == [17]
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads


def test_first_failure_in_task_order_raises_after_every_task_ends(monkeypatch):
    _cpus(monkeypatch, 3)
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


def test_undo_on_error_drops_only_the_blocks_records():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        x * 2.0
        with pytest.raises(RuntimeError):
            with T.undo_on_error():
                x * 3.0
                raise RuntimeError("boom")
        assert len(tape) == 1
        with T.undo_on_error():
            x * 4.0
        assert len(tape) == 2


def test_nested_ordered_map_raises():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        with pytest.raises(RuntimeError, match="ordered_map"):
            T.ordered_map(lambda g: T.ordered_map(lambda h: x * 2.0, 2), 2)
        assert T._LOCAL.records is None
        assert len(tape) == 0 and tape._groups == []


def test_group_adds_shared_pieces_in_serial_order(monkeypatch):
    """float32 pieces 1e8, 1 and -1e8 into one leaf: each order of adding them has its own bits."""
    _cpus(monkeypatch, 2)
    x = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
    factors = [[1.0, -1e8], [1e8]]  # range 0 pulls -1e8 then 1, range 1 pulls 1e8

    def task(g):
        return [x * f for f in factors[g]]

    def grad(mapper):
        x.grad = None
        with Tape() as tape:
            outs = [y for ys in mapper(task, 2) for y in ys]
            assert len(tape._groups) == (mapper is T.ordered_map)
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


def test_group_failure_raises_the_last_range_first_once_both_end(monkeypatch):
    _cpus(monkeypatch, 2)
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


def test_undo_on_error_and_a_slotless_backward_drop_groups(monkeypatch):
    _cpus(monkeypatch, 2)
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        T.ordered_map(lambda g: x * float(g), 2)
        with pytest.raises(RuntimeError):
            with T.undo_on_error():
                T.ordered_map(lambda g: x * float(g), 2)
                raise RuntimeError("boom")
        assert len(tape) == 2 and tape._groups == [[0, 1, 2]]
        tape.backward(Tensor(0.0))
        assert len(tape) == 0 and tape._groups == []
    assert x.grad is None


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
    ("swapaxes", lambda a: T.swapaxes(a, 0, 2), 1),
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


def test_narrow_backward_memory_stays_linear():
    # 12 time slices must add into one gradient buffer, not build 12 full arrays
    x = Tensor(np.random.default_rng(0).standard_normal((4, 12, 50, 16)), requires_grad=True)
    with Tape() as tape:
        y = x * 2.0
        loss = None
        for i in range(12):
            term = (T.narrow(y, -3, i, 1) * float(i)).sum()
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


def _tensors_in(value):
    if isinstance(value, Tensor):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _tensors_in(item)


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
        for slot, pulls in tape._records:
            assert not isinstance(slot, Tensor)
            for _, pull in pulls:
                captured = [cell.cell_contents for cell in pull.__closure__ or ()]
                captured += list(pull.__defaults__ or ())
                held = list(_tensors_in(captured))
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
