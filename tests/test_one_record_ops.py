"""The six one-record ops against the chains of tensor ops they stand for.

saturated_top_k, attention, gru_forward, rgc_forward, regression_head and
dropout each compute a chain of tensor ops as one tape record that keeps
only what its hand-written backward reads. ONE_RECORD_OPS has a row per
op: the op, its chain, a small call, the bytes the op's record declares,
and its mis-shaped operands. Every row runs through one contract:

- the output and every operand's gradient are the chain's bytes, at
  float32 and at float64, and the op makes exactly one record;
- its record holds exactly the bytes the row declares, and no more than
  the chain's records hold;
- a mis-shaped operand raises ShapeError before any compute and records
  nothing (a row that checks no shapes says why);
- its gradients pass float64 finite differences.

The chains are the references. test_network and test_tensor run the same
legs on more shapes, and check what only one op has.
"""

import dataclasses
import math
import operator
import zlib

import numpy as np
import pytest

from conftest import fd_gradient, flat_records, held_bytes, rel_err
from fusecast import network
from fusecast import tensor as T
from fusecast.errors import ShapeError
from fusecast.network import dropout, gru_forward, regression_head, rgc_forward
from fusecast.tensor import Tape, Tensor

# -- the chains --------------------------------------------------------------


def reshape(x, shape):
    """x reshaped, as a tape op whose pull reshapes the gradient back."""
    x_shape = x.shape
    return T._make(x.data.reshape(shape), [(x, lambda g: g.reshape(x_shape))])


def div(a, b):
    """a / b, broadcast, as a tape op with the quotient's pulls."""
    a, b, out_data = T._binary(a, b, operator.truediv, "div")
    b_data = b.data
    a_shape, b_shape = a.shape, b.shape
    return T._make(out_data, [
        (a, lambda g: T._unbroadcast(g / b_data, a_shape)),
        (b, lambda g: T._unbroadcast(-g * out_data / b_data, b_shape)),
    ])


def _top_k_mask_by_stable_sort(x: np.ndarray, k: int) -> np.ndarray:
    """Reference selection: the first k columns of a stable descending sort."""
    order = np.argsort(-x, axis=-1, kind="stable")
    mask = np.zeros(x.shape, dtype=x.dtype)
    np.put_along_axis(mask, order[..., :k], 1.0, axis=-1)
    return mask


def _saturated_top_k_chain(x: Tensor, scale: float, k: int) -> Tensor:
    """tensor's mul, tanh and relu, then the stable sort's mask as a mul."""
    raw = T.relu(T.tanh(T.mul(x, scale)))
    if k == x.shape[-1]:
        return raw
    return T.mul(raw, Tensor(_top_k_mask_by_stable_sort(raw.data, k)))


def _attention_chain(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """tensor's swapaxes, matmul and mul, a softmax record, then matmul."""
    x = T.mul(T.matmul(q, T.swapaxes(k, -1, -2)), scale)
    p = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    scores = T._make(p, [(x, lambda g: p * (g - (g * p).sum(axis=-1, keepdims=True)))])
    return T.matmul(scores, v)


def _taped_gru(x_seq, weights):
    """The loop of tensor ops that gru_forward's one record replaces."""
    wz, wr, wh, uz, ur, uh, bz, br, bh = weights
    th = x_seq.shape[-3]
    n = x_seq.shape[-2]
    h = Tensor(np.zeros((1, n, uz.shape[0]), dtype=x_seq.dtype))
    outputs = []
    for t in range(th):
        x_t = T.narrow(x_seq, -3, t, 1)
        z = T.sigmoid(x_t @ wz + h @ uz + bz)
        r = T.sigmoid(x_t @ wr + h @ ur + br)
        cand = T.tanh(x_t @ wh + (r * h) @ uh + bh)
        h = T.sub(1.0, z) * h + z * cand
        outputs.append(h)
    return T.concat(outputs, axis=-3)


def _propagation_chain(adjacency):
    """normalized_propagation's (A + I) / degree as a chain of tensor ops."""
    a_tilde = T.add(adjacency, Tensor(np.eye(adjacency.shape[-1], dtype=adjacency.dtype)))
    return div(a_tilde, a_tilde.sum(axis=-1, keepdims=True))


def _rgc_chain(h_in, adjacency, weight, gamma):
    """rgc_forward as the chain of tensor ops it stands for, one record per op."""
    prop = _propagation_chain(adjacency)
    lead, (th, n, d) = h_in.shape[:-3], h_in.shape[-3:]
    node_major = T.swapaxes(h_in, -3, -2)
    x = reshape(node_major, lead + (n, th * d))
    levels = [node_major]
    h = x
    for _ in range(weight.shape[0] // d - 1):
        h = T.add(T.mul(x, gamma), T.mul(T.matmul(prop, h), 1.0 - gamma))
        levels.append(reshape(h, lead + (n, th, d)))
    return T.swapaxes(T.matmul(T.concat(levels, axis=-1), weight), -3, -2)


def _broadcast_rgc(h_in, adjacency, weight, gamma):
    """A second RGC reference: the operator broadcast over the Th axis of [..., Th, N, d]."""
    prop = _propagation_chain(adjacency)
    if prop.ndim == 3:
        prop = reshape(prop, prop.shape[:-2] + (1,) + prop.shape[-2:])
    depth = weight.shape[0] // h_in.shape[-1]
    levels = [h_in]
    h = h_in
    for _ in range(depth - 1):
        h = T.add(T.mul(h_in, gamma), T.mul(T.matmul(prop, h), 1.0 - gamma))
        levels.append(h)
    stacked = levels[0] if depth == 1 else T.concat(levels, axis=-1)
    return T.matmul(stacked, weight)


def _head_chain(parts, weights, horizon):
    """The chain of tensor ops that regression_head's one record replaces."""
    w1, b1, w2, b2, out_weight, out_bias = weights
    h_skip = T.relu(T.concat(parts, axis=-1))
    hidden = T.relu(h_skip @ w1 + b1) @ w2 + b2
    per_node = T.swapaxes(hidden, -3, -2)
    lead = per_node.shape[:-2]
    flat = reshape(per_node, lead + (per_node.shape[-2] * per_node.shape[-1],))
    mapped = flat @ out_weight + out_bias
    mapped = reshape(mapped, lead + (horizon, mapped.shape[-1] // horizon))
    return T.swapaxes(mapped, -3, -2)


def _dropout_chain(x, keep, rate):
    """tensor's mul by the float mask keep.astype(x.dtype) / (1 - rate)."""
    return T.mul(x, Tensor(keep.astype(x.dtype) / (1.0 - rate)))


# -- calls -------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Trial:
    """One call: the op's tensor operands in its row's order and its other arguments.

    Each shared operand also feeds a consumer recorded before the op and one
    after it, so its slot takes the op's piece on top of others.
    """

    operands: list
    args: tuple = ()
    shared: tuple = ()


def _tensors(rng, dtype, shapes, scale=1.0, slots=None):
    return [Tensor((scale * rng.standard_normal(s)).astype(dtype),
                   requires_grad=slots is None or slots[i]) for i, s in enumerate(shapes)]


def top_k_trial(rng, dtype, shape=(9, 12), k=5):
    """Distinct positive scores, none saturated."""
    x = Tensor((np.abs(rng.standard_normal(shape)) + 0.1).astype(dtype), requires_grad=True)
    return Trial([x], (0.5, k), (0,))


def attention_trial(rng, dtype, n=12, lead=(3,)):
    """A 2-D q shared across a batched k and v, and a float64 scale, as fuse_graphs runs it."""
    dh = max(2, n // 4)
    operands = [Tensor(rng.uniform(-1.0, 1.0, s).astype(dtype) * 3.0, requires_grad=True)
                for s in [(n, dh), lead + (n, dh), lead + (n, dh)]]
    return Trial(operands, (1.0 / np.sqrt(dh),), (0, 1, 2))


def gru_trial(rng, dtype, lead=(2,), th=4, n=3, d_in=5, d_h=3, scale=0.8):
    """x_seq and wz ... bh; a weight takes one piece per step, so only x_seq is shared."""
    x_seq = Tensor(rng.standard_normal(lead + (th, n, d_in)).astype(dtype), requires_grad=True)
    shapes = [(d_in, d_h)] * 3 + [(d_h, d_h)] * 3 + [(d_h,)] * 3
    return Trial([x_seq] + _tensors(rng, dtype, shapes, scale), (), (0,))


def rgc_trial(rng, dtype, lead=(3,), batched=True, th=4, n=6, d=4, depth=3, gamma=0.3,
              h_slot=True, a_slot=True, shared=(0, 1, 2)):
    h = Tensor(rng.standard_normal(lead + (th, n, d)).astype(dtype), requires_grad=h_slot)
    a = Tensor(np.maximum(rng.standard_normal((lead if batched else ()) + (n, n)), 0.0)
               .astype(dtype), requires_grad=a_slot)
    w = Tensor(rng.standard_normal((depth * d, 2 * d)).astype(dtype), requires_grad=True)
    return Trial([h, a, w], (gamma,), shared)


def head_trial(rng, dtype, lead=(), th=4, n=5, widths=(4, 8, 3, 3, 3), hidden=6, hc=5,
               horizon=2, channels=3):
    """Parts h_out, x_out, xn (no slot), daily and weekly, then w1 ... out.bias.

    x_out and the daily lookup have earlier consumers in the model.
    """
    parts = _tensors(rng, dtype, [lead + (th, n, d) for d in widths], slots=[1, 1, 0, 1, 1])
    shapes = [(sum(widths), hidden), (hidden,), (hidden, hc), (hc,),
              (th * hc, horizon * channels), (horizon * channels,)]
    return Trial(parts + _tensors(rng, dtype, shapes), (horizon,), (1, 3))


def dropout_trial(rng, dtype, shape=(3, 4, 5, 6), rate=0.3):
    keep = rng.random(shape) >= rate
    return Trial(_tensors(rng, dtype, [shape]), (keep, rate), (0,))


def replaced(index, shape):
    """A change of a Trial that puts a tensor of ones of that shape in operand index's place."""
    def change(trial):
        operands = list(trial.operands)
        operands[index] = Tensor(np.ones(shape), requires_grad=True)
        return dataclasses.replace(trial, operands=operands)
    return change


# -- the bytes each record declares ------------------------------------------


def _nbytes(tensors):
    return sum(t.data.nbytes for t in tensors)


def _gru_held(trial):
    """x_seq, the weights, the zero state, and z, r, cand and h_{t-1} of each later step."""
    x = trial.operands[0]
    th, n, d_h = x.shape[-3], x.shape[-2], trial.operands[4].shape[0]
    steps = n * d_h + (4 * th - 1) * math.prod(x.shape[:-3]) * n * d_h
    return _nbytes(trial.operands) + steps * x.dtype.itemsize


def _rgc_held(trial):
    """h_in, the operator and its degree (no operator at depth 1), and the weight."""
    h, a, w = trial.operands
    if w.shape[0] == h.shape[-1]:
        return _nbytes([h, w])
    return _nbytes([h, a, w]) + a.data.nbytes // a.shape[-1]


def _head_held(trial):
    """h_skip, the first ReLU's output r1, flat, and w1, w2 and out.weight."""
    w1, _, w2, _, w_out, _ = trial.operands[5:]
    rows = math.prod(trial.operands[0].shape[:-1])
    return (rows * (sum(w1.shape) + w2.shape[1]) * w1.dtype.itemsize
            + _nbytes([w1, w2, w_out]))


# -- the table -----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class OneRecordOp:
    """A row: op and chain, each called as fn(trial.operands, *trial.args), and the rest.

    trial(rng, dtype) makes a call small enough for finite differences, and
    held(trial) the bytes the op's record declares. mis_shaped lists (id,
    change of that call, message), or says why no operand can be mis-shaped.
    compute names the first helper that computes, which a mis-shaped operand
    must not reach; fd is the rel_err floor and bound against finite differences.
    """

    op: object
    chain: object
    trial: object
    held: object
    mis_shaped: object
    compute: tuple = None
    fd: tuple = (1e-6, 1e-6)


def _flat(fn):
    return lambda operands, *args: fn(*operands, *args)


def _gru(fn):
    return lambda operands: fn(operands[0], operands[1:])


def _head(fn):
    return lambda operands, horizon: fn(operands[:5], operands[5:], horizon)


ONE_RECORD_OPS = {
    "saturated_top_k": OneRecordOp(
        _flat(T.saturated_top_k), _flat(_saturated_top_k_chain), top_k_trial,
        lambda trial: trial.operands[0].data.nbytes + trial.operands[0].dtype.itemsize,  # out, scale
        "x may be any [..., n]; k is checked with ConfigError "
        "(test_tensor::test_top_k_exceeding_row_length)",
        fd=(1e-3, 1e-5)),
    "attention": OneRecordOp(
        _flat(T.attention), _flat(_attention_chain), attention_trial,
        lambda trial: _nbytes(trial.operands),  # q, k and v, and no [..., N, N] scores
        [("k-width", replaced(1, (3, 12, 4)),
          r"^attention: shapes \(12, 3\), \(3, 12, 4\) and \(3, 12, 3\) do not multiply$"),
         ("q-1d", replaced(0, (12,)), r"^attention: operands must be at least 2-d")],
        fd=(1e-3, 1e-5)),
    "gru_forward": OneRecordOp(
        _gru(gru_forward), _gru(_taped_gru), gru_trial, _gru_held,
        [("input-width", replaced(0, (2, 4, 3, 6)),
          r"^gru: input \(2, 4, 3, 6\) is not \[\.\.\., Th>0, N, d_in=5\]$"),
         ("no-steps", replaced(0, (2, 0, 3, 5)), r"^gru: input \(2, 0, 3, 5\) is not"),
         ("2d-input", replaced(0, (3, 5)), r"^gru: input \(3, 5\) is not")]),
    "rgc_forward": OneRecordOp(
        _flat(rgc_forward), _flat(_rgc_chain), rgc_trial, _rgc_held,
        [("weight-rows", replaced(2, (13, 8)),
          r"^graph convolution: weight \(13, 8\)'s rows are not a positive multiple of d=4$"),
         ("adjacency-not-n-by-n", replaced(1, (3, 6, 5)),
          r"^graph convolution: adjacency \(3, 6, 5\) is not \[\.\.\., 6, 6\]")],
        compute=(network, "normalized_propagation"), fd=(1e-6, 1e-5)),
    "regression_head": OneRecordOp(
        _head(regression_head), _head(_head_chain), head_trial, _head_held,
        [("w2", replaced(7, (6, 4)), r"^regression head: w2 is \(6, 4\), not \(6, 5\)$"),
         ("parts", replaced(4, (4, 6, 3)), r"^regression head: parts .* do not join")],
        compute=(network, "_affine"), fd=(1e-6, 1e-5)),
    "dropout": OneRecordOp(
        _flat(dropout), _flat(_dropout_chain), dropout_trial,
        lambda trial: trial.args[0].nbytes,  # the bool mask, one byte per element
        "its mask comes only from forward_batch, drawn at the GRU output's shape"),
}


# -- the legs ------------------------------------------------------------------


def _taped_run(fn, trial, seed, consumers):
    """fn's output, its record count and every operand's gradient (None without one).

    Backward runs from (out * seed).sum() plus each shared operand's two consumers.
    """
    shared = [trial.operands[i] for i in trial.shared]
    with Tape() as tape:
        terms = [(t * before).sum() for t, (before, _) in zip(shared, consumers)]
        records = len(tape)
        out = fn(trial.operands, *trial.args)
        records = len(tape) - records
        terms += [(t * after).sum() for t, (_, after) in zip(shared, consumers)]
        total = (out * seed).sum()
        for term in terms:
            total = total + term
        tape.backward(total)
    grads = [t.grad for t in trial.operands]
    for t in trial.operands:
        t.grad = None
    return out.data, records, grads


def assert_matches_chain(row, trial, rng, equal_nan=False):
    """The op's output, tape-free too, and every gradient are the chain's; the op makes one record.

    They compare as bytes, or with equal_nan as arrays whose NaNs may differ
    in their bits. Returns the op's output and gradients.
    """
    untaped = row.op(trial.operands, *trial.args).data
    dtype = trial.operands[0].dtype
    draw = lambda shape: Tensor(rng.standard_normal(shape).astype(dtype))
    shapes = [trial.operands[i].shape for i in trial.shared]
    weights = draw(untaped.shape), [(draw(shape), draw(shape)) for shape in shapes]
    out, records, grads = _taped_run(row.op, trial, *weights)
    ref, _, ref_grads = _taped_run(row.chain, trial, *weights)
    assert records == 1
    if equal_nan:
        same = lambda a, b: np.array_equal(a, b, equal_nan=True)
    else:
        same = lambda a, b: a.tobytes() == b.tobytes()
    assert out.dtype == ref.dtype == dtype and same(untaped, out) and same(out, ref)
    for i, (got, want) in enumerate(zip(grads, ref_grads)):
        assert (got is None) == (want is None), i
        assert got is None or (got.dtype == want.dtype == dtype and got.shape == want.shape
                               and same(got, want)), i
    return out, grads


def record_held(fn, trial):
    """The bytes that fn's records hold once it has run under a tape."""
    with Tape() as tape:
        fn(trial.operands, *trial.args)
        return held_bytes(flat_records(tape))


def assert_mis_shaped_raises(monkeypatch, row, trial, message):
    """The op raises ShapeError matching message before row.compute runs, and records nothing."""
    def computed(*args):
        raise AssertionError(f"{row.compute[1]} ran")

    if row.compute is not None:
        monkeypatch.setattr(*row.compute, computed)
    with Tape() as tape:
        with pytest.raises(ShapeError, match=message):
            row.op(trial.operands, *trial.args)
        assert len(tape) == 0


def assert_gradients_match_finite_differences(row, trial, rng):
    """Every operand gradient of sum(op * w) against float64 central differences."""
    w = Tensor(rng.standard_normal(row.op(trial.operands, *trial.args).shape))

    def scalar():
        return (row.op(trial.operands, *trial.args) * w).sum()

    with Tape() as tape:
        tape.backward(scalar())
    for i, t in enumerate(trial.operands):
        if t.requires_grad:
            fd = fd_gradient(lambda: scalar().item(), t.data)
            assert rel_err(t.grad, fd, floor=row.fd[0]) < row.fd[1], i
            t.grad = None


# -- the contract --------------------------------------------------------------

DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])
ROWS = pytest.mark.parametrize("name", list(ONE_RECORD_OPS))


def _row_and_rng(name, *key):
    return ONE_RECORD_OPS[name], np.random.default_rng(zlib.crc32(repr((name,) + key).encode()))


@DTYPES
@ROWS
def test_output_and_gradients_are_the_chain_bytes(name, dtype):
    row, rng = _row_and_rng(name, dtype.__name__)
    assert_matches_chain(row, row.trial(rng, dtype), rng)


@DTYPES
@ROWS
def test_record_holds_the_bytes_its_row_declares(name, dtype):
    row, rng = _row_and_rng(name, dtype.__name__)
    trial = row.trial(rng, dtype)
    assert record_held(row.op, trial) == row.held(trial) <= record_held(row.chain, trial)


@pytest.mark.parametrize("name, change, message", [
    pytest.param(name, change, message, id=f"{name}-{case}")
    for name, row in ONE_RECORD_OPS.items() if not isinstance(row.mis_shaped, str)
    for case, change, message in row.mis_shaped])
def test_a_mis_shaped_operand_raises_and_records_nothing(monkeypatch, name, change, message):
    row, rng = _row_and_rng(name)
    assert_mis_shaped_raises(monkeypatch, row, change(row.trial(rng, np.float64)), message)


@ROWS
def test_gradients_match_finite_differences(name):
    row, rng = _row_and_rng(name)
    assert_gradients_match_finite_differences(row, row.trial(rng, np.float64), rng)
