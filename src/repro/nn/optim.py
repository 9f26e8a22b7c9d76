"""Optimizers: Adam, and gradient clipping."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Adam", "clip_grad_norm"]

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8      # Adam's published defaults


def clip_grad_norm(parameters: list[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is ≤ ``max_norm``.

    Returns the pre-clipping norm (useful for training diagnostics).
    """
    total = 0.0
    grads = [p.grad for p in parameters if p.grad is not None]
    for grad in grads:
        total += float(np.sum(grad * grad))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for grad in grads:
            grad *= scale
    return norm


class Optimizer:
    """Base class storing the parameter list."""

    def __init__(self, parameters: list[Parameter]):
        self.parameters = list(parameters)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Adam(Optimizer):
    """Adam with bias correction."""

    def __init__(self, parameters: list[Parameter], lr: float = 1e-3):
        super().__init__(parameters)
        self.lr = lr
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - _BETA1**self._t
        bias2 = 1.0 - _BETA2**self._t
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= _BETA1
            m += (1.0 - _BETA1) * grad
            v *= _BETA2
            v += (1.0 - _BETA2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + _EPS)
