"""Dense float tensors with reverse-mode automatic differentiation.

Values live in numpy arrays (float32 for training, float64 for gradient
checking). Operations executed while a Tape is active are recorded in
execution order; Tape.backward consumes the records in reverse, which is a
valid reverse-topological order, so every op is visited exactly once and
every reachable leaf ends up with a fully accumulated gradient. Each record
is dropped as soon as it has run, together with the activations its pulls
captured and the intermediate's own .grad, so a tape is single-use and
backward memory falls as it walks back.

Without an active tape every op is plain numpy with no recording, which
doubles as inference mode.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ConfigError, ShapeError

# one tape stack per thread: independent tapes may run concurrently as long
# as gradient reduction into shared parameters is serialized by the caller
_LOCAL = threading.local()


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def _coerce(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return arr.astype(np.float64)


class Tensor:
    """An n-dimensional float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _coerce(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None  # numpy array, same shape as data, once accumulated

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
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

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

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def transpose(self, axes):
        return transpose(self, axes)


class Tape:
    """Ordered record of executed ops, consumed in reverse by backward."""

    def __init__(self):
        self._records = []  # (output, [(input, pull_fn), ...]) in execution order

    def __enter__(self):
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _stack().pop()
        return False

    def __len__(self):
        return len(self._records)

    def backward(self, output: Tensor, seed=None):
        """Accumulate d(output)/d(input) into .grad of every recorded input.

        seed defaults to ones, i.e. the gradient of output.sum(). The tape
        is consumed: each record is popped as it runs and its output's
        .grad is reset to None, so afterwards the tape is empty and only
        tensors without a record of their own (leaves) keep a gradient.
        """
        if seed is None:
            seed = np.ones_like(output.data)
        output.grad = seed if output.grad is None else output.grad + seed
        owned = set()  # ids of tensors whose .grad this pass allocated
        records = self._records
        while records:
            out, pulls = records.pop()
            g = out.grad
            if g is None:
                continue  # nothing downstream consumed this value
            for t, pull in pulls:
                _accumulate(t, pull(g), owned)
            out.grad = None
            owned.discard(id(out))

    def clear(self):
        """Drop all records, releasing the recorded intermediates."""
        self._records.clear()


class _Slice:
    """A gradient that is nonzero only on `index` of its operand."""

    __slots__ = ("index", "grad")

    def __init__(self, index, grad):
        self.index = index
        self.grad = grad


def _accumulate(t: Tensor, piece, owned: set):
    """Add one pull's contribution into t.grad.

    Pulls may hand out aliases of the downstream gradient (add, reshape,
    concat views, sum_'s read-only broadcast), so a first dense
    contribution is stored as it is, and t.grad is only updated in place
    once this pass has allocated t a buffer of the right dtype.
    """
    index, piece = (piece.index, piece.grad) if isinstance(piece, _Slice) else (..., piece)
    grad = t.grad
    if grad is None:
        if index is ...:
            t.grad = piece
            return
        grad = np.zeros(t.shape, dtype=piece.dtype)
        grad[index] = piece
    elif id(t) in owned and np.result_type(grad, piece) == grad.dtype:
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
    stack = _stack()
    return stack[-1] if stack else None


def _as_tensor(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.dtype))


def _make(out_data: np.ndarray, pulls) -> Tensor:
    """Wrap an op result, recording it when a tape is active and a pull exists."""
    tape = active_tape()
    if tape is None:
        return Tensor(out_data)
    live = [(t, fn) for t, fn in pulls if t.requires_grad]
    if not live:
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True)
    tape._records.append((out, live))
    return out


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


def _check_broadcast(a: Tensor, b: Tensor, op: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not broadcastable") from None


def add(a, b):
    a = a if isinstance(a, Tensor) else _as_tensor(a, b)
    b = _as_tensor(b, a)
    _check_broadcast(a, b, "add")
    return _make(a.data + b.data, [
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(g, b.shape)),
    ])


def sub(a, b):
    a = a if isinstance(a, Tensor) else _as_tensor(a, b)
    b = _as_tensor(b, a)
    _check_broadcast(a, b, "sub")
    return _make(a.data - b.data, [
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(-g, b.shape)),
    ])


def mul(a, b):
    a = a if isinstance(a, Tensor) else _as_tensor(a, b)
    b = _as_tensor(b, a)
    _check_broadcast(a, b, "mul")
    return _make(a.data * b.data, [
        (a, lambda g: _unbroadcast(g * b.data, a.shape)),
        (b, lambda g: _unbroadcast(g * a.data, b.shape)),
    ])


def div(a, b):
    a = a if isinstance(a, Tensor) else _as_tensor(a, b)
    b = _as_tensor(b, a)
    _check_broadcast(a, b, "div")
    out_data = a.data / b.data
    return _make(out_data, [
        (a, lambda g: _unbroadcast(g / b.data, a.shape)),
        (b, lambda g: _unbroadcast(-g * out_data / b.data, b.shape)),
    ])


def neg(a: Tensor):
    return _make(-a.data, [(a, lambda g: -g)])


def matmul(a: Tensor, b: Tensor):
    """Batched matrix product over the last two axes, gradients included."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree for shapes {a.shape} and {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeError(f"matmul: batch dimensions of {a.shape} and {b.shape} are not broadcastable") from None
    swap = lambda x: np.swapaxes(x, -1, -2)
    return _make(a.data @ b.data, [
        (a, lambda g: _unbroadcast(g @ swap(b.data), a.shape)),
        (b, lambda g: _unbroadcast(swap(a.data) @ g, b.shape)),
    ])


def tanh(x: Tensor):
    out_data = np.tanh(x.data)
    return _make(out_data, [(x, lambda g: g * (1.0 - out_data * out_data))])


def sigmoid(x: Tensor):
    # tanh form cannot overflow on either tail
    out_data = 0.5 * (np.tanh(0.5 * x.data) + 1.0)
    return _make(out_data, [(x, lambda g: g * out_data * (1.0 - out_data))])


def relu(x: Tensor):
    out_data = np.maximum(x.data, 0.0)
    return _make(out_data, [(x, lambda g: g * (x.data > 0))])


def abs_(x: Tensor):
    return _make(np.abs(x.data), [(x, lambda g: g * np.sign(x.data))])


def softmax(x: Tensor, axis: int = -1):
    """Numerically stabilized softmax along one axis."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def pull(g):
        return out_data * (g - (g * out_data).sum(axis=axis, keepdims=True))

    return _make(out_data, [(x, pull)])


def sum_(x: Tensor, axis=None, keepdims=False):
    if axis is None:
        axes = tuple(range(x.ndim))
    elif isinstance(axis, int):
        axes = (axis % x.ndim,)
    else:
        axes = tuple(a % x.ndim for a in axis)
    out_data = x.data.sum(axis=axes, keepdims=keepdims)

    def pull(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, x.shape)

    return _make(out_data, [(x, pull)])


def mean(x: Tensor, axis=None, keepdims=False):
    if axis is None:
        count = x.size
    elif isinstance(axis, int):
        count = x.shape[axis]
    else:
        count = 1
        for a in axis:
            count *= x.shape[a]
    return mul(sum_(x, axis=axis, keepdims=keepdims), 1.0 / count)


def broadcast_to(x: Tensor, shape):
    """Read-only broadcast view; backward sums the gradient back down."""
    return _make(np.broadcast_to(x.data, shape), [(x, lambda g: _unbroadcast(g, x.shape))])


def reshape(x: Tensor, shape):
    return _make(x.data.reshape(shape), [(x, lambda g: g.reshape(x.shape))])


def transpose(x: Tensor, axes):
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _make(x.data.transpose(axes), [(x, lambda g: g.transpose(inverse))])


def concat(tensors, axis: int = 0):
    """Concatenate along one axis; backward routes gradient slices to sources."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    axis = axis % tensors[0].ndim
    ref = tensors[0].shape
    for t in tensors[1:]:
        if t.ndim != len(ref) or any(i != axis and t.shape[i] != ref[i] for i in range(t.ndim)):
            raise ShapeError(
                f"concat: off-axis dimensions disagree, {tuple(ref)} vs {tuple(t.shape)} on axis {axis}")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
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
    axis = axis % x.ndim
    idx = tuple(slice(None) if i != axis else slice(start, start + length) for i in range(x.ndim))
    return _make(x.data[idx], [(x, lambda g: _Slice(idx, g))])


def split(x: Tensor, sizes, axis: int = 0):
    """Split into consecutive chunks of the given sizes along an axis."""
    if sum(sizes) != x.shape[axis % x.ndim]:
        raise ShapeError(f"split: sizes {sizes} do not cover axis {axis} of shape {x.shape}")
    pieces = []
    start = 0
    for s in sizes:
        pieces.append(narrow(x, axis, start, s))
        start += s
    return pieces


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

    def pull(g):
        full = np.zeros(table.shape, dtype=g.dtype)
        np.add.at(full, index.reshape(-1), g.reshape((-1,) + table.shape[1:]))
        return full

    return _make(out_data, [(table, pull)])


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None):
    """Inverted dropout: scales survivors by 1/(1-rate) so eval is identity."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ConfigError("dropout in training mode needs an explicit rng")
    keep = (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    return _make(x.data * keep, [(x, lambda g: g * keep)])


def top_k_rows(x: Tensor, k: int):
    """Keep the k largest entries of each row (last axis), zero the rest.

    Ties break toward the lower column index. The selection mask is a
    constant during backward, so gradient flows only through survivors.
    """
    n = x.shape[-1]
    if k > n:
        raise ConfigError(f"top-k: k={k} exceeds row length {n}")
    if k == n:
        return x
    order = np.argsort(-x.data, axis=-1, kind="stable")
    mask = np.zeros(x.shape, dtype=x.dtype)
    np.put_along_axis(mask, order[..., :k], 1.0, axis=-1)
    return _make(x.data * mask, [(x, lambda g: g * mask)])
