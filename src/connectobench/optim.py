"""Adam optimizer over named parameter dicts."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self):
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(params: dict[str, Tensor], lr: float, state: AdamState) -> None:
    """Apply one Adam update in-place; parameters with no grad get zero grad.

    Deterministic given the state: parameters are visited in sorted name order
    and the update uses the standard bias-corrected moment estimates.
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name in sorted(params):
        p = params[name]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
