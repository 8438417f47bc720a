"""Dense float tensors with reverse-mode automatic differentiation.

Values live in numpy arrays (float32 for training, float64 for gradient
checking). Operations executed while a Tape is active are recorded in
execution order; Tape.backward consumes the records in reverse, which is a
valid reverse-topological order, so every op is visited exactly once and
every reachable leaf ends up with a fully accumulated gradient.

A tensor that needs a gradient, a leaf or a recorded op output alike, owns
a gradient slot (its shape and .grad); Tensor.grad reads and writes that
slot. A record holds no Tensor of an op's output or inputs, only their
slots and pulls that capture just the arrays and shapes they read. An
intermediate's buffer is therefore freed as soon as the forward code drops
it, unless a pull reads it. Each record is dropped as soon as it has run,
together with what its pulls captured and the output slot's .grad, so a
tape is single-use and backward memory falls as it walks back.

Without an active tape every op is plain numpy with no recording, which
doubles as inference mode.

The tape stack is shared by every thread, so active_tape() is the
caller's tape on ordered_map's worker threads too. While a thread runs an
ordered_map task, its ops record into that task's own list rather than the
tape (a threading.local names the list); once every task has ended, the
lists are spliced onto the tape in task order, and their ranges of records
are kept on the tape as one group. The tape is then record for record the
one a plain loop over the tasks builds.

Backward runs a group's ranges concurrently, range g on the thread that
runs task g. A slot that a range produced is read by that range only, so
its gradient accumulates in place there. A slot that a range writes but did
not produce (a parameter, or an input made before the map) is shared: the
last range, which a serial pass runs first, adds its pieces in place, and
every other range buffers them. Once the group has ended, the buffered
pieces are added last range first, each range's in the order it made them,
which is the order a serial pass adds them in. The gradients are therefore
bitwise those of a serial pass over the same tape.
"""

from __future__ import annotations

import operator
import os
import threading
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, ShapeError

_TAPES = []  # active tapes, innermost last; ops record into the innermost
_LOCAL = threading.local()  # .records: the list of the ordered_map task this thread runs


def _coerce(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return arr.astype(np.float64)


class Tensor:
    """An n-dimensional float array; one that needs a gradient owns a slot for it."""

    __slots__ = ("data", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _coerce(data)
        self._slot = _GradSlot(self.data.shape) if requires_grad else None

    @property
    def requires_grad(self):
        return self._slot is not None

    @property
    def grad(self):
        """numpy array, same shape as data, once accumulated; None without a slot."""
        return None if self._slot is None else self._slot.grad

    @grad.setter
    def grad(self, value):
        if self._slot is not None:  # a tensor with no slot has no gradient to clear
            self._slot.grad = value

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}{flag})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)


class _GradSlot:
    """Where backward accumulates the gradient of one tensor.

    It stands for the tensor in the tape, so the tape keeps the tensor's
    shape and gradient alive but never its data.
    """

    __slots__ = ("shape", "grad")

    def __init__(self, shape):
        self.shape = shape
        self.grad = None


class Tape:
    """Ordered record of executed ops, consumed in reverse by backward.

    A record is (output slot, [(input slot, pull_fn), ...]); the pulls
    capture arrays and shapes, never a Tensor (see the module docstring).
    A group is one ordered_map call's record ranges, as their bounds
    [start of task 0, start of task 1, ..., end of the last task]; backward
    runs a group's ranges concurrently (see the module docstring).
    """

    def __init__(self):
        self._records = []  # (output slot, [(input slot, pull_fn), ...]) in execution order
        self._groups = []   # bounds of each ordered_map call's ranges, in record order

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.pop()
        return False

    def __len__(self):
        return len(self._records)

    def backward(self, output: Tensor):
        """Accumulate d(output.sum())/d(input) into .grad of every recorded input.

        The seed is ones, the gradient of output.sum(), and goes into
        output's gradient slot. The tape is consumed: each record is
        popped as it runs and its output slot's .grad is reset to None, so
        afterwards the tape is empty and only the inputs that no record of
        it produced (leaves, or op outputs of an earlier tape) keep a
        gradient. An output with no slot needs no gradient: the tape is
        just emptied. A group's ranges run concurrently; if pulls raise, the
        first failure in serial order (last range first) is raised once
        every range has ended.
        """
        slot = output._slot
        if slot is None:
            self._records.clear()
            self._groups.clear()
            return
        seed = np.ones_like(output.data)
        slot.grad = seed if slot.grad is None else slot.grad + seed
        owned = set()  # ids of the slots whose .grad this pass allocated
        records, groups = self._records, self._groups
        while records:
            bounds = groups.pop() if groups else [0]
            tail = records[bounds[-1]:]  # the records after the group, or all of them
            del records[bounds[-1]:]
            _walk_back(tail, owned)
            if len(bounds) > 1:
                ranges = [records[a:b] for a, b in zip(bounds, bounds[1:])]
                del records[bounds[0]:]
                _walk_group(ranges, owned)


def _walk_group(ranges, owned: set):
    """Run one group's ranges back concurrently (see the module docstring)."""
    last = len(ranges) - 1
    pending = [[] for _ in range(last)]  # the shared slots' pieces of every range but the last

    def walk(g):
        if g == last:
            _walk_back(ranges[g], owned)
        else:
            _walk_back(ranges[g], set(), pending[g])

    failed = next((e for e in reversed(_run_tasks(walk, len(ranges))) if e is not None), None)
    if failed is not None:
        raise failed
    for pieces in reversed(pending):
        for t, piece in pieces:
            _accumulate(t, piece, owned)


def _walk_back(records, owned: set, pending=None):
    """Run records last first, emptying the list, and accumulate their pulls.

    With pending, the pieces for slots that no record of the list produced
    are appended to it in order instead of accumulated.
    """
    produced = None if pending is None else {id(out) for out, _ in records}
    while records:
        out, pulls = records.pop()
        g = out.grad
        if g is None:
            continue  # nothing downstream consumed this value
        for t, pull in pulls:
            if produced is None or id(t) in produced:
                _accumulate(t, pull(g), owned)
            else:
                pending.append((t, pull(g)))
        out.grad = None
        owned.discard(id(out))


class _Slice:
    """A gradient that is nonzero only on `index` of its operand."""

    __slots__ = ("index", "grad")

    def __init__(self, index, grad):
        self.index = index
        self.grad = grad


def _accumulate(t, piece, owned: set):
    """Add one pull's contribution into the .grad of slot t.

    Pulls may hand out aliases of the downstream gradient (add, reshape,
    concat views, sum_'s read-only broadcast), so a first dense
    contribution is stored as it is, and t.grad is only updated in place
    once this pass has allocated t a buffer. That buffer's dtype holds every
    later piece: no op narrows a dtype, so each piece of one pass has the
    dtype of the pass's output.
    """
    index, piece = (piece.index, piece.grad) if isinstance(piece, _Slice) else (..., piece)
    grad = t.grad
    if grad is None:
        if index is ...:
            t.grad = piece
            return
        grad = np.zeros(t.shape, dtype=piece.dtype)
        grad[index] = piece
    elif id(t) in owned:
        view = grad[index]
        np.add(view, piece, out=view)
    elif index is ...:
        grad = np.asarray(grad + piece)  # 0-d operands add to a numpy scalar
    else:
        grad = grad.astype(np.result_type(grad, piece))
        grad[index] += piece
    t.grad = grad
    owned.add(id(t))


def active_tape():
    return _TAPES[-1] if _TAPES else None


def _make(out_data: np.ndarray, pulls) -> Tensor:
    """Wrap an op result, recording it when a tape is active and a pull exists.

    pulls pair each operand with the function that maps the output's
    gradient to that operand's. The pulls of operands with no gradient slot
    are dropped here with whatever they captured, and the record keeps the
    others against the operands' slots and a new slot of the output, so a
    pull must close over arrays and shapes only: one that mentions a Tensor
    (even just for `x.shape`) keeps that tensor's data alive until backward.
    """
    tape = active_tape()
    if tape is None:
        return Tensor(out_data)
    live = [(t._slot, fn) for t, fn in pulls if t._slot is not None]
    if not live:
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True)
    records = getattr(_LOCAL, "records", None)
    (tape._records if records is None else records).append((out._slot, live))
    return out


@contextmanager
def undo_on_error():
    """If the block raises, drop the records and groups it added to the active tape."""
    tape = active_tape()
    mark = len(tape) if tape is not None else 0
    try:
        yield
    except BaseException:
        if tape is not None:
            del tape._records[mark:]
            while tape._groups and tape._groups[-1][-1] > mark:
                tape._groups.pop()
        raise


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on (Linux)
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_tasks(fn, count: int) -> list:
    """Run fn(0), ..., fn(count - 1) on up to min(count, usable CPUs) threads.

    The calling thread runs fn(0), and min(count, CPUs) - 1 worker threads
    start with the next tasks; whichever thread ends a task takes the next
    one not started, so one task or one usable CPU starts no thread.
    Returns each task's exception, or None, once every task has ended.
    """
    errors = [None] * count
    tasks = iter(range(count))
    lock = threading.Lock()

    def take():
        with lock:
            return next(tasks, None)

    def work(g):
        while g is not None:
            try:
                fn(g)
            except BaseException as exc:  # the caller picks which one to raise
                errors[g] = exc
            g = take()

    first = take()  # the calling thread's, taken before any worker can
    workers = [threading.Thread(target=work, args=(take(),))
               for _ in range(min(count, _usable_cpus()) - 1)]
    for w in workers:
        w.start()
    try:
        work(first)
    finally:
        for w in workers:
            w.join()
    return errors


def ordered_map(fn, count: int) -> list:
    """[fn(0), ..., fn(count - 1)], run on up to min(count, usable CPUs) threads.

    The tasks must not depend on each other. Each task records its ops into
    a list of its own; once every task has ended, the lists are spliced
    onto the active tape in task order and their ranges are kept as one
    group, which backward runs concurrently (see the module docstring). If
    tasks raise, the exception of the lowest failed task is raised once
    every task has ended, with nothing spliced. A task must not call
    ordered_map itself: that raises RuntimeError.
    """
    if getattr(_LOCAL, "records", None) is not None:
        raise RuntimeError("ordered_map called inside an ordered_map task; "
                           "nested calls would splice their records out of order")
    results = [None] * count
    records = [[] for _ in range(count)]

    def task(g):
        _LOCAL.records = records[g]
        try:
            results[g] = fn(g)
        finally:
            _LOCAL.records = None

    failed = next((e for e in _run_tasks(task, count) if e is not None), None)
    if failed is not None:
        raise failed
    tape = active_tape()
    if tape is not None and any(records):
        bounds = [len(tape)]
        for task_records in records:
            tape._records.extend(task_records)
            bounds.append(len(tape))
        tape._groups.append(bounds)
    return results


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _axis(axis: int, ndim: int, op: str) -> int:
    """The axis as a non-negative index; it must be an integer in [-ndim, ndim)."""
    try:
        axis = operator.index(axis)
    except TypeError:
        raise ShapeError(f"{op}: axis {axis} is not an integer") from None
    if not -ndim <= axis < ndim:
        raise ShapeError(f"{op}: axis {axis} is out of range for {ndim} dimensions")
    return axis % ndim


def _operands(a, b, op: str):
    """Both operands as Tensors, a plain number taking the other's dtype; they must broadcast."""
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.dtype))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.dtype))
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not broadcastable") from None
    return a, b


def add(a, b):
    a, b = _operands(a, b, "add")
    a_shape, b_shape = a.shape, b.shape
    return _make(a.data + b.data, [
        (a, lambda g: _unbroadcast(g, a_shape)),
        (b, lambda g: _unbroadcast(g, b_shape)),
    ])


def sub(a, b):
    a, b = _operands(a, b, "sub")
    a_shape, b_shape = a.shape, b.shape
    return _make(a.data - b.data, [
        (a, lambda g: _unbroadcast(g, a_shape)),
        (b, lambda g: _unbroadcast(-g, b_shape)),
    ])


def mul(a, b):
    a, b = _operands(a, b, "mul")
    a_data, b_data = a.data, b.data
    a_shape, b_shape = a.shape, b.shape
    return _make(a_data * b_data, [
        (a, lambda g: _unbroadcast(g * b_data, a_shape)),
        (b, lambda g: _unbroadcast(g * a_data, b_shape)),
    ])


def div(a, b):
    a, b = _operands(a, b, "div")
    b_data = b.data
    a_shape, b_shape = a.shape, b.shape
    out_data = a.data / b_data
    return _make(out_data, [
        (a, lambda g: _unbroadcast(g / b_data, a_shape)),
        (b, lambda g: _unbroadcast(-g * out_data / b_data, b_shape)),
    ])


def matmul(a: Tensor, b: Tensor):
    """Batched matrix product over the last two axes, gradients included."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} and {b.shape}")
    a_data, b_data = a.data, b.data
    a_shape, b_shape = a.shape, b.shape
    try:
        out_data = a_data @ b_data
    except ValueError:
        raise ShapeError(f"matmul: shapes {a_shape} and {b_shape} do not multiply") from None
    return _make(out_data, [
        (a, lambda g: _unbroadcast(g @ np.swapaxes(b_data, -1, -2), a_shape)),
        (b, lambda g: _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b_shape)),
    ])


def tanh(x: Tensor):
    out_data = np.tanh(x.data)
    return _make(out_data, [(x, lambda g: g * (1.0 - out_data * out_data))])


def sigmoid(x: Tensor):
    # tanh form cannot overflow on either tail
    out_data = 0.5 * (np.tanh(0.5 * x.data) + 1.0)
    return _make(out_data, [(x, lambda g: g * out_data * (1.0 - out_data))])


def relu(x: Tensor):
    # the output is positive exactly where x is (NaN and -0.0 included), so
    # the pull reads the mask from it and x's buffer can be freed
    out_data = np.maximum(x.data, 0.0)
    return _make(out_data, [(x, lambda g: g * (out_data > 0))])


def abs_(x: Tensor):
    x_data = x.data
    return _make(np.abs(x_data), [(x, lambda g: g * np.sign(x_data))])


def softmax(x: Tensor, axis: int = -1):
    """Numerically stabilized softmax along one axis.

    The exponent and the normalization run in place in the freshly
    allocated shifted copy, so x.data is never written.
    """
    axis = _axis(axis, x.ndim, "softmax")
    out_data = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True)

    def pull(g):
        return out_data * (g - (g * out_data).sum(axis=axis, keepdims=True))

    return _make(out_data, [(x, pull)])


def sum_(x: Tensor, axis=None, keepdims=False):
    if axis is None:
        axes = tuple(range(x.ndim))
    else:
        axes = tuple(_axis(a, x.ndim, "sum") for a in np.atleast_1d(axis))
    out_data = x.data.sum(axis=axes, keepdims=keepdims)
    x_shape = x.shape

    def pull(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, x_shape)

    return _make(out_data, [(x, pull)])


def mean(x: Tensor, axis=None, keepdims=False):
    total = sum_(x, axis=axis, keepdims=keepdims)
    return mul(total, total.size / x.size)


def broadcast_to(x: Tensor, shape):
    """Read-only broadcast view; backward sums the gradient back down."""
    x_shape = x.shape
    return _make(np.broadcast_to(x.data, shape), [(x, lambda g: _unbroadcast(g, x_shape))])


def reshape(x: Tensor, shape):
    x_shape = x.shape
    return _make(x.data.reshape(shape), [(x, lambda g: g.reshape(x_shape))])


def swapaxes(x: Tensor, axis1: int, axis2: int):
    """Swap two axes (a view); backward swaps the gradient back."""
    axis1, axis2 = (_axis(a, x.ndim, "swapaxes") for a in (axis1, axis2))
    return _make(np.swapaxes(x.data, axis1, axis2), [(x, lambda g: np.swapaxes(g, axis1, axis2))])


def concat(tensors, axis: int = 0):
    """Concatenate along one axis; backward routes gradient slices to sources."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    axis = _axis(axis, tensors[0].ndim, "concat")
    if len(tensors) == 1:
        return tensors[0]  # as it is: no copy, no record
    try:
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        shapes = ", ".join(str(t.shape) for t in tensors)
        raise ShapeError(f"concat: shapes {shapes} do not join on axis {axis}") from None
    pulls = []
    offset = 0
    for t in tensors:
        start, length = offset, t.shape[axis]
        idx = tuple(slice(None) if i != axis else slice(start, start + length) for i in range(t.ndim))
        pulls.append((t, lambda g, idx=idx: g[idx]))
        offset += length
    return _make(out_data, pulls)


def narrow(x: Tensor, axis: int, start: int, length: int):
    """Contiguous slice along one axis; backward adds into that slice only."""
    axis = _axis(axis, x.ndim, "narrow")
    idx = tuple(slice(None) if i != axis else slice(start, start + length) for i in range(x.ndim))
    return _make(x.data[idx], [(x, lambda g: _Slice(idx, g))])


def gather(table: Tensor, index: np.ndarray):
    """Look up rows of `table` along axis 0 by integer index array.

    Output shape is index.shape + table.shape[1:]. Backward scatter-adds,
    so a row looked up twice accumulates both gradient contributions.
    """
    index = np.asarray(index)
    if index.size and (index.min() < 0 or index.max() >= table.shape[0]):
        raise IndexError(
            f"gather: index range [{index.min()}, {index.max()}] outside table of {table.shape[0]} rows")
    out_data = table.data[index]
    table_shape = table.shape

    def pull(g):
        full = np.zeros(table_shape, dtype=g.dtype)
        np.add.at(full, index.reshape(-1), g.reshape((-1,) + table_shape[1:]))
        return full

    return _make(out_data, [(table, pull)])


def dropout(x: Tensor, rate: float, training: bool, uniforms: np.ndarray | None = None):
    """Inverted dropout: scales survivors by 1/(1-rate) so eval is identity.

    In training mode an entry survives where its draw in `uniforms`, uniform
    draws from an explicit rng shaped like x, is at least rate.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if uniforms is None:
        raise ConfigError("dropout in training mode needs uniform draws from an explicit rng")
    keep = (uniforms >= rate).astype(x.dtype) / (1.0 - rate)
    return _make(x.data * keep, [(x, lambda g: g * keep)])


def top_k_rows(x: Tensor, k: int):
    """Keep the k largest entries of each row (last axis), zero the rest.

    Selects exactly what a stable descending sort would: ties go to the
    lower column index, and NaN ranks below every number (it stays NaN in
    the output either way). A partition finds each row's k-th largest
    value; entries above it are kept and the open slots go to the
    lowest-index entries equal to it, resolved only on rows with more
    such ties than slots (saturated tanh scores, rows of zeros). The mask
    is a constant during backward, so gradient flows only through survivors.
    """
    n = x.shape[-1]
    if not 1 <= k <= n:
        raise ConfigError(f"top-k: k={k} outside [1, {n}], the row length")
    if k == n:
        return x
    rows = x.data.reshape(-1, n)
    neg = -rows
    neg.partition(k - 1, axis=-1)
    kth = -neg[:, k - 1:k]  # partition sorts NaN last, as the descending order ranks it
    del neg
    keep = rows > kth
    tied = rows == kth
    short = np.isnan(kth[:, 0])  # fewer than k numbers: all are kept, NaNs fill the rest
    nan = np.isnan(rows[short])
    keep[short] = ~nan
    tied[short] = nan
    open_slots = k - keep.sum(axis=-1)
    over = np.flatnonzero(tied.sum(axis=-1) > open_slots)
    ties = tied[over]
    ties &= np.cumsum(ties, axis=-1, dtype=np.int32) <= open_slots[over, None]
    tied[over] = ties
    keep |= tied
    mask = keep.reshape(x.shape).astype(x.dtype)
    return _make(x.data * mask, [(x, lambda g: g * mask)])
