"""Adam optimizer and a central finite-difference gradient checker."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tape, Tensor


@dataclass
class AdamState:
    """Per-parameter moment accumulators plus the shared step counter."""

    learning_rate: float = 0.004
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


class Adam:
    """Bias-corrected Adam with L2 weight decay added to the gradient."""

    def __init__(self, params: dict[str, Tensor], learning_rate=0.004,
                 beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        self.params = params
        self.state = AdamState(learning_rate, beta1, beta2, eps, weight_decay)
        for name, p in params.items():
            self.state.m[name] = np.zeros_like(p.data)
            self.state.v[name] = np.zeros_like(p.data)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        s = self.state
        s.step_count += 1
        bc1 = 1.0 - s.beta1 ** s.step_count
        bc2 = 1.0 - s.beta2 ** s.step_count
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if s.weight_decay != 0.0:
                g = g + s.weight_decay * p.data
            s.m[name] = s.beta1 * s.m[name] + (1.0 - s.beta1) * g
            s.v[name] = s.beta2 * s.v[name] + (1.0 - s.beta2) * (g * g)
            m_hat = s.m[name] / bc1
            v_hat = s.v[name] / bc2
            p.data = p.data - s.learning_rate * m_hat / (np.sqrt(v_hat) + s.eps)


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str


def grad_check(f, params: dict[str, Tensor], h: float = 1e-6,
               floor: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of a scalar function against central differences.

    f is a zero-argument callable closing over `params`; it must return a
    scalar Tensor and be deterministic. Parameters must be float64, since
    finite differences at step h are meaningless in float32.

    Each entry's relative error uses max(|fd|, |analytic|, floor) as the
    denominator. The central difference itself carries roundoff error of
    order eps * |f| / h, so entries far below `floor` cannot be resolved by
    finite differences and are measured against the floor instead. The
    first non-finite error ends the check and is reported with its parameter.
    """
    for name, p in params.items():
        if p.dtype != np.float64:
            raise ValueError(f"grad_check needs float64 parameters, '{name}' is {p.dtype}")

    with Tape() as tape:
        out = f()
        if out.size != 1:
            raise ValueError(f"grad_check needs a scalar function, got output shape {out.shape}")
        tape.backward(out)
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in params.items()}
    for p in params.values():
        p.grad = None

    worst = ("", 0.0)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        ana = analytic[name].reshape(-1)
        worst_here = 0.0
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            f_plus = f().item()
            flat[i] = keep - h
            f_minus = f().item()
            flat[i] = keep
            fd = (f_plus - f_minus) / (2.0 * h)
            rel = abs(fd - ana[i]) / max(abs(fd), abs(ana[i]), floor)
            if not np.isfinite(rel):  # a NaN pull or gradient; no finite error outranks it
                return GradCheckReport(max_rel_error=float(rel), worst_param=name)
            if rel > worst_here:
                worst_here = rel
        if worst_here > worst[1]:
            worst = (name, worst_here)
    return GradCheckReport(max_rel_error=worst[1], worst_param=worst[0])


def randomize_parameters(params: dict[str, Tensor], seed: int, scale: float = 0.5):
    """Re-draw every parameter uniformly in [-scale, scale].

    Gradient checks linearize at this point instead of the training init:
    the 0.01-scale embedding init leaves graph-path gradients near the
    finite-difference noise floor, which says nothing about correctness of
    the derivative implementation.
    """
    rng = np.random.default_rng(seed)
    for p in params.values():
        p.data = rng.uniform(-scale, scale, size=p.shape).astype(p.dtype)
