import numpy as np
import pytest

from fusecast.optim import Adam, grad_check, randomize_parameters
from fusecast.tensor import Tape, Tensor


def _quadratic_step(lr):
    w = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"w": w}, learning_rate=lr)
    with Tape() as tape:
        tape.backward(w * w)  # f(w) = w^2, df/dw = 2w
    opt.step()
    return w


def test_first_adam_step_moves_by_lr_against_gradient_sign():
    w = _quadratic_step(0.1)
    # closed form for step 1: m_hat = g, sqrt(v_hat) = |g|, so the update is
    # lr * g / (|g| + eps) ~ lr * sign(g)
    g = 2.0
    expected = 1.0 - 0.1 * g / (abs(g) + 1e-8)
    assert w.data[0] == pytest.approx(expected, abs=1e-15)
    assert w.data[0] == pytest.approx(0.9, abs=1e-6)


def test_zero_gradient_zero_decay_leaves_parameters():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    before = w.data.copy()
    opt = Adam({"w": w}, learning_rate=0.1, weight_decay=0.0)
    w.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(w.data, before)


def test_batched_and_independent_scalars_match():
    batched = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    solo_a = Tensor(np.array([1.0]), requires_grad=True)
    solo_b = Tensor(np.array([1.0]), requires_grad=True)
    opt_batched = Adam({"w": batched}, learning_rate=0.05)
    opt_a = Adam({"a": solo_a}, learning_rate=0.05)
    opt_b = Adam({"b": solo_b}, learning_rate=0.05)
    for _ in range(20):
        for t, opt in ((batched, opt_batched), (solo_a, opt_a), (solo_b, opt_b)):
            with Tape() as tape:
                tape.backward((t * t).sum())
            opt.step()
            opt.zero_grad()
    assert batched.data[0] == solo_a.data[0]
    assert batched.data[1] == solo_b.data[0]


def test_lr_zero_is_bit_identical():
    w = Tensor(np.array([0.5, -0.25, 3.0]), requires_grad=True)
    before = w.data.tobytes()
    opt = Adam({"w": w}, learning_rate=0.0, weight_decay=1e-5)
    w.grad = np.array([1.0, 2.0, -3.0])
    opt.step()
    assert w.data.tobytes() == before


def test_step_counter_increases_by_one():
    w = Tensor(np.ones(2), requires_grad=True)
    opt = Adam({"w": w}, learning_rate=0.01)
    assert opt.state.step_count == 0
    for expected in (1, 2, 3):
        w.grad = np.ones(2)
        opt.step()
        assert opt.state.step_count == expected


def test_weight_decay_enters_gradient():
    w = Tensor(np.array([2.0]), requires_grad=True)
    opt = Adam({"w": w}, learning_rate=0.1, weight_decay=0.5)
    w.grad = np.zeros(1)
    opt.step()
    # effective gradient is wd * w = 1.0 > 0, so w must shrink
    assert w.data[0] < 2.0


def test_grad_check_closed_form():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    report = grad_check(lambda: (x * x).sum(), {"x": x})
    assert report.max_rel_error < 1e-8


def test_grad_check_constant_function():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    report = grad_check(lambda: Tensor(np.array(4.0)) * 1.0, {"x": x})
    assert report.max_rel_error == 0.0


def test_grad_check_nan_pull_fails_and_names_its_parameter():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = Tensor(np.array([3.0]), requires_grad=True)

    def f():
        out = (x * x).sum() + (y * y).sum()
        # the pulls of y[0] see NaN; the tape gradient at the centre stays finite
        return out * np.nan if y.data[0] != 3.0 else out

    report = grad_check(f, {"x": x, "y": y})
    assert np.isnan(report.max_rel_error)
    assert report.worst_param == "y"


def test_grad_check_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        grad_check(lambda: x * 2.0, {"x": x})


def test_grad_check_rejects_float32():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError, match="float64"):
        grad_check(lambda: (x * x).sum(), {"x": x})


def test_randomize_parameters_is_seeded():
    a = {"w": Tensor(np.zeros(5), requires_grad=True)}
    b = {"w": Tensor(np.zeros(5), requires_grad=True)}
    randomize_parameters(a, seed=9)
    randomize_parameters(b, seed=9)
    assert np.array_equal(a["w"].data, b["w"].data)
    assert np.abs(a["w"].data).max() <= 0.5
