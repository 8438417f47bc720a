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

ordered_map runs one thread per task, task 0 on the caller's. The tape
stack is shared, so active_tape() is the caller's tape on every thread, but
a task's ops record into a list of its own (a threading.local names it).
Once every task has ended, the lists join the tape as one entry, a group,
that keeps them in task order; flattened, the tape is record for record
a plain loop's.

Backward adds each pull's piece to its slot's gradient as a new sum
(_accumulate), and never writes a gradient array in place.

Backward runs a group's lists concurrently, list g on the thread that runs
task g. A slot that a list produced is read by that list only, so its
gradient accumulates there. A slot that a list writes but did not
produce (a parameter, or an input made before the map) is shared, and every
list buffers its pieces for such slots. Once every list has ended, the
calling thread adds the buffered pieces, last list first and each list's in
the order it made them, which is the order a serial pass adds them in. The
gradients are therefore bitwise those of a serial pass over the same tape.

Loading this module sets glibc's allocator policy for the process, once and
before ordered_map has started any thread. A step allocates and frees
hundreds of arrays of 0.1-40 MB, and under glibc's defaults every step
faults that memory in again: an array above the mmap threshold gets a
mapping of its own, freed heap is trimmed back to the OS, and each thread
allocates from an arena of its own. _MALLOC_POLICY therefore sets, through
mallopt, one arena (M_ARENA_MAX), a 1 GiB mmap threshold so that arrays
are carved from the heap (M_MMAP_THRESHOLD), and a 1 GiB trim threshold so
that freed memory stays mapped for the next op and step (M_TRIM_THRESHOLD).
All three go together: setting either threshold turns off glibc's dynamic
mmap threshold, so one alone leaves it at 128 KiB and maps every larger
array for itself. mallopt takes a C int, so every value stays below 2**31:
1 << 32 wraps to 0, which trims everything. The cost is that the process
keeps its high-water memory mapped until it exits; peak RSS is that mark
anyway. Nothing is set off glibc (no CS_GNU_LIBC_VERSION, or no mallopt),
or when the environment already sets a malloc tunable (MALLOC_ARENA_MAX,
MALLOC_MMAP_THRESHOLD_, MALLOC_TRIM_THRESHOLD_, or glibc.malloc.* in
GLIBC_TUNABLES): an explicit setting wins. No array op depends on the
policy, so results keep their bits either way.
"""

from __future__ import annotations

import ctypes
import math
import operator
import os
import threading

import numpy as np

from .errors import ConfigError, ShapeError

# (mallopt parameter, value): M_ARENA_MAX, M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
_MALLOC_POLICY = ((-8, 1), (-3, 1 << 30), (-1, 1 << 30))
_MALLOC_ENVIRONMENT = ("MALLOC_ARENA_MAX", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def _keep_freed_memory_mapped():
    """Apply _MALLOC_POLICY on glibc unless the environment sets malloc tunables."""
    if (any(name in os.environ for name in _MALLOC_ENVIRONMENT)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):  # no confstr, name or symbol
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _MALLOC_POLICY:
        mallopt(param, value)


_keep_freed_memory_mapped()

_TAPES = []  # active tapes, innermost last; ops record into the innermost
_LOCAL = threading.local()  # .records: the list of the ordered_map task this thread runs


class Tensor:
    """An n-dimensional float array; one that needs a gradient owns a slot for it."""

    __slots__ = ("data", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
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

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)


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

    An entry is a record, (output slot, [(input slot, pull_fn), ...]), whose
    pulls capture arrays and shapes, never a Tensor, or a _Group of records
    that backward runs concurrently (see the module docstring).
    """

    def __init__(self):
        self._records = []  # records and _Groups in execution order

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.pop()
        return False

    def __len__(self):
        """The number of records, a group counting the records it holds."""
        return sum(sum(map(len, e)) if isinstance(e, _Group) else 1 for e in self._records)

    def backward(self, output: Tensor):
        """Accumulate d(output.sum())/d(input) into .grad of every recorded input.

        The seed is ones, the gradient of output.sum(); _accumulate adds it
        to output's slot as it adds a pull's piece. The tape is consumed:
        each record is popped as it runs and its output slot's .grad is
        reset to None, so afterwards the tape is empty and only the inputs
        that no record of it produced (leaves, or op outputs of an earlier
        tape) keep a gradient. An output with no slot needs no gradient: the
        tape is just emptied. A group's lists run concurrently; if pulls
        raise, the first failure in serial order (last list first) is raised
        once every list has ended.
        """
        slot = output._slot
        if slot is None:
            self._records.clear()
            return
        _accumulate(slot, np.ones_like(output.data))
        _walk_back(self._records)


class _Group(list):
    """One ordered_map call's tape entry: its tasks' record lists, in task order."""

    __slots__ = ()


def _walk_group(group: _Group):
    """Run one group's lists back concurrently (see the module docstring)."""
    pending = [[] for _ in group]  # each list's pieces for the shared slots

    def walk(g):
        _walk_back(group[g], pending[g])

    failed = next((e for e in reversed(_run_tasks(walk, len(group))) if e is not None), None)
    if failed is not None:
        raise failed
    for pieces in reversed(pending):
        for t, piece in pieces:
            _accumulate(t, piece)


def _walk_back(records, pending=None):
    """Run tape entries last first, emptying the list, and accumulate their pulls.

    A group runs through _walk_group. With pending, which a group's lists
    pass and which holds no group, the pieces for slots that no record of
    the list produced are appended to it in order instead of accumulated.
    """
    produced = None if pending is None else {id(out) for out, _ in records}
    while records:
        entry = records.pop()
        if isinstance(entry, _Group):
            _walk_group(entry)
            continue
        out, pulls = entry
        g = out.grad
        if g is None:
            continue  # nothing downstream consumed this value
        for t, pull in pulls:
            if produced is None or id(t) in produced:
                _accumulate(t, pull(g))
            else:
                pending.append((t, pull(g)))
        out.grad = None


def _accumulate(t, piece):
    """Add one pull's piece to the .grad of slot t, never writing either array.

    A pull may hand out an alias of the downstream gradient or a read-only
    view, so the first piece is stored as it is and each later one makes a
    new sum. np.asarray keeps a sum of 0-d arrays an array.
    """
    t.grad = piece if t.grad is None else np.asarray(t.grad + piece)


def active_tape():
    return _TAPES[-1] if _TAPES else None


def _taped(operands) -> bool:
    """Whether an op on these tensors is recorded: a tape is active and one of them has a slot."""
    return active_tape() is not None and any(t.requires_grad for t in operands)


def _make(out_data: np.ndarray, pulls) -> Tensor:
    """Wrap an op result, recording it when _taped holds for its operands.

    pulls pair each operand with the function that maps the output's
    gradient to that operand's. The pulls of operands with no gradient slot
    are dropped here with whatever they captured, and the record keeps the
    others against the operands' slots and a new slot of the output, so a
    pull must close over arrays and shapes only: one that mentions a Tensor
    (even just for `x.shape`) keeps that tensor's data alive until backward.
    """
    if not _taped(t for t, _ in pulls):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True)
    records = getattr(_LOCAL, "records", None)
    (active_tape()._records if records is None else records).append(
        (out._slot, [(t._slot, fn) for t, fn in pulls if t._slot is not None]))
    return out


def _one_record(out_data: np.ndarray, operands, backward) -> Tensor:
    """_make for one op whose backward(g) makes every operand's gradient at once.

    backward maps the output's gradient to the operands' gradients, in
    operand order. It runs once, in the first pull that runs, and each pull
    then hands out its own operand's piece, so the operands are listed in
    the order the chain of ops the record stands for would add their
    pieces. Like any pull, backward closes over arrays and shapes only.
    Without a tape, as in _make, out_data comes back as an unrecorded tensor.
    """
    pieces = {}  # operand index -> gradient, filled by the first pull that runs

    def pull(i):
        def fn(g):
            if not pieces:
                pieces.update(enumerate(backward(g)))
            return pieces.pop(i)
        return fn

    return _make(out_data, [(t, pull(i)) for i, t in enumerate(operands)])


def _run_tasks(fn, count: int) -> list:
    """Run fn(0), ..., fn(count - 1), fn(0) on the caller's thread and each later task on its own.

    Returns each task's exception, or None, once every task has ended.
    """
    errors = [None] * count

    def work(g):
        try:
            fn(g)
        except BaseException as exc:  # the caller picks which one to raise
            errors[g] = exc

    workers = [threading.Thread(target=work, args=(g,)) for g in range(1, count)]
    for w in workers:
        w.start()
    try:
        if count:
            work(0)
    finally:
        for w in workers:
            w.join()
    return errors


def ordered_map(fn, count: int) -> list:
    """[fn(0), ..., fn(count - 1)], run one thread per task (see _run_tasks).

    The tasks must not depend on each other; their record lists join the
    active tape as one _Group entry (see the module docstring). If tasks
    raise, the exception of the lowest failed task is raised once every
    task has ended, with nothing recorded. A task must not call ordered_map
    itself: that raises RuntimeError.
    """
    if getattr(_LOCAL, "records", None) is not None:
        raise RuntimeError("ordered_map called inside an ordered_map task; "
                           "a nested group would add its shared pieces out of order")
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
        tape._records.append(_Group(records))
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


def _binary(a, b, fn, op: str):
    """a, b as Tensors (a number takes the other's dtype) and fn(a.data, b.data), or ShapeError."""
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.dtype))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.dtype))
    try:
        return a, b, fn(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not broadcastable") from None


def add(a, b):
    a, b, out_data = _binary(a, b, operator.add, "add")
    a_shape, b_shape = a.shape, b.shape
    return _make(out_data, [
        (a, lambda g: _unbroadcast(g, a_shape)),
        (b, lambda g: _unbroadcast(g, b_shape)),
    ])


def sub(a, b):
    a, b, out_data = _binary(a, b, operator.sub, "sub")
    a_shape, b_shape = a.shape, b.shape
    return _make(out_data, [
        (a, lambda g: _unbroadcast(g, a_shape)),
        (b, lambda g: _unbroadcast(-g, b_shape)),
    ])


def mul(a, b):
    a, b, out_data = _binary(a, b, operator.mul, "mul")
    a_data, b_data = a.data, b.data
    a_shape, b_shape = a.shape, b.shape
    return _make(out_data, [
        (a, lambda g: _unbroadcast(g * b_data, a_shape)),
        (b, lambda g: _unbroadcast(g * a_data, b_shape)),
    ])


def matmul(a: Tensor, b: Tensor):
    """Batched matrix product over the last two axes, gradients included.

    When b is a 2-D weight, its gradient is one GEMM over every row of a,
    a.reshape(rows, K).T @ g.reshape(rows, n): a.T @ g for a 2-D a, and for
    a with leading axes the sum of one product per leading index up to
    float32 reassociation, with no temporary of a's leading shape times
    b's. The _unbroadcast pull serves a batched b only. a's pull and the
    forward product keep the batched form. Flattening the forward too was
    slower and not bitwise, and one GEMM for a 2-D left operand (q @ k^T)
    was slower for the transposing copies it needs, so neither is done. The
    one GEMM is large enough for a multi-threaded BLAS to thread, which
    competes with the batch halves' own threads; run BLAS on one thread.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} and {b.shape}")
    a_data, b_data = a.data, b.data
    a_shape, b_shape = a.shape, b.shape
    try:
        out_data = a_data @ b_data
    except ValueError:
        raise ShapeError(f"matmul: shapes {a_shape} and {b_shape} do not multiply") from None
    return _make(out_data, [
        (a, lambda g: _matmul_pull_a(g, b_data, a_shape)),
        (b, lambda g: _matmul_pull_b(g, a_data, b_shape)),
    ])


def _matmul_pull_a(g, b, a_shape):
    """The gradient of a in a @ b from the product's gradient g."""
    return _unbroadcast(g @ np.swapaxes(b, -1, -2), a_shape)


def _matmul_pull_b(g, a, b_shape):
    """The gradient of b in a @ b from g: one GEMM over a's rows for a 2-D b (see matmul)."""
    if len(b_shape) == 2:
        rows = math.prod(a.shape[:-1])  # explicit: -1 cannot be inferred when K or n is 0
        return a.reshape(rows, b_shape[0]).T @ g.reshape(rows, b_shape[1])
    return _unbroadcast(np.swapaxes(a, -1, -2) @ g, b_shape)


def tanh(x: Tensor):
    out_data = np.tanh(x.data)
    return _make(out_data, [(x, lambda g: _tanh_pull(g, out_data))])


def sigmoid(x: Tensor):
    out_data = _sigmoid(x.data)
    return _make(out_data, [(x, lambda g: _sigmoid_pull(g, out_data))])


def relu(x: Tensor):
    # the output is positive exactly where x is (NaN and -0.0 included), so
    # the pull reads the mask from it and x's buffer can be freed
    out_data = np.maximum(x.data, 0.0)
    return _make(out_data, [(x, lambda g: _relu_pull(g, out_data))])


def _sigmoid(x):
    """sigmoid in its tanh form, which cannot overflow on either tail."""
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


# The pulls of tanh, sigmoid and relu: the input's gradient from g and the output
def _tanh_pull(g, out):
    return g * (1.0 - out * out)


def _sigmoid_pull(g, out):
    return g * out * (1.0 - out)


def _relu_pull(g, out):
    return g * (out > 0)


def abs_(x: Tensor):
    x_data = x.data
    return _make(np.abs(x_data), [(x, lambda g: g * np.sign(x_data))])


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
    """Contiguous slice along one axis; backward pads the gradient with zeros."""
    axis = _axis(axis, x.ndim, "narrow")
    idx = tuple(slice(None) if i != axis else slice(start, start + length) for i in range(x.ndim))
    x_shape = x.shape

    def pull(g):
        full = np.zeros(x_shape, dtype=g.dtype)
        full[idx] = g
        return full

    return _make(x.data[idx], [(x, pull)])


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


def saturated_top_k(x: Tensor, scale: float, k: int):
    """The k largest entries of each row (last axis) of relu(tanh(scale * x)), the rest zeroed.

    One tape record. k = n, the row length, keeps every entry. tanh and
    the ReLU run in place in the one fresh buffer scale * x, and the
    selection (_top_k_mask) multiplies it by its mask, so the output holds
    the bits of tensor's mul, tanh, relu and the selection applied in turn.
    The record keeps only that output a: its pull is relu's pull and then
    tanh's, both read from a, times scale. Where the selection zeroed an
    entry, or the ReLU did, a > 0 is False and the gradient is the same
    signed zero (or NaN) the chain's mask gives, so the gradient's bits are
    the chain's too.
    """
    n = x.shape[-1]
    if not 1 <= k <= n:
        raise ConfigError(f"top-k: k={k} outside [1, {n}], the row length")
    scale = np.asarray(scale, dtype=x.dtype)
    out_data = x.data * scale
    np.tanh(out_data, out=out_data)
    np.maximum(out_data, 0.0, out=out_data)
    if k < n:
        out_data *= _top_k_mask(out_data, k)  # x * 1.0 or x * 0.0, as a float mask gives

    return _make(out_data, [(x, lambda g: _tanh_pull(_relu_pull(g, out_data), out_data) * scale)])


def _top_k_mask(x: np.ndarray, k: int) -> np.ndarray:
    """The bool mask of the k largest entries of each row (last axis) of x, for k < its length.

    Selects exactly what a stable descending sort would: ties go to the
    lower column index, and NaN ranks below every number. A partition
    finds each row's k-th largest value; entries above it are kept and the
    open slots go to the lowest-index entries equal to it, resolved only on
    rows with more such ties than slots (saturated tanh scores, rows of
    zeros). The mask is a constant during backward, so gradient flows only
    through survivors.
    """
    rows = x.reshape(-1, x.shape[-1])
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
    return keep.reshape(x.shape)


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float):
    """softmax(q @ k^T * scale) @ v over the last two axes, as one tape record.

    The record keeps q, k and v and no [..., N, N] array: the pulls
    recompute the scores with _attention_scores, the helper the forward
    runs, and share one backward (_attention_backward). Without a tape the
    scores are freed once the product is made.
    """
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ShapeError(f"attention: operands must be at least 2-d, "
                         f"got {q.shape}, {k.shape} and {v.shape}")
    q_data, k_data, v_data = q.data, k.data, v.data
    try:
        out_data = _attention_scores(q_data, k_data, scale) @ v_data
    except ValueError:
        raise ShapeError(f"attention: shapes {q.shape}, {k.shape} and {v.shape} "
                         f"do not multiply") from None
    # v first, then q and k: the order in which the chain's records add their pieces
    return _one_record(out_data, (v, q, k),
                       lambda g: _attention_backward(g, q_data, k_data, v_data, scale))


def _attention_scores(q: np.ndarray, k: np.ndarray, scale) -> np.ndarray:
    """softmax(q @ k^T * scale) along the last axis, with scale cast to the product's dtype."""
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= np.asarray(scale, dtype=scores.dtype)
    return _softmax(scores)


def _softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stabilized softmax along the last axis.

    The exponent and the normalization run in place in the freshly
    allocated shifted copy, so x is never written.
    """
    out = x - x.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _attention_backward(g, q, k, v, scale):
    """The gradients of v, q and k in attention from its output's gradient g.

    Each expression is the pull of the op the chain swapaxes(k), q @ k^T,
    * scale, softmax and @ v records, at that op's shapes, so the bits are
    the chain's.
    """
    kt = np.swapaxes(k, -1, -2)
    scores = _attention_scores(q, k, scale)
    g_v = _matmul_pull_b(g, scores, v.shape)
    g_s = _matmul_pull_a(g, v, scores.shape)
    g_s = scores * (g_s - (g_s * scores).sum(axis=-1, keepdims=True))  # softmax's pull
    del scores
    g_s *= np.asarray(scale, dtype=g_s.dtype)
    g_k = np.swapaxes(_matmul_pull_b(g_s, q, kt.shape), -1, -2)
    return g_v, _matmul_pull_a(g_s, kt, q.shape), g_k
