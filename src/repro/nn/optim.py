"""Optimizers: Adam, gradient clipping, and the one minibatch loop."""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor

__all__ = ["Adam", "clip_grad_norm", "train_epochs"]

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


class Adam:
    """Adam with bias correction over a fixed parameter list."""

    def __init__(self, parameters: list[Parameter], lr: float = 1e-3):
        self.parameters = list(parameters)
        self.lr = lr
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.grad = None

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


def train_epochs(
    model: Module,
    optimizer: Adam,
    epochs: int,
    batch_size: int,
    order: Callable[[], Sequence[int]],
    loss_of: Callable[[Sequence[int]], Tensor],
    clip_norm: float | None,
) -> list[float]:
    """The minibatch loop every trainer runs; returns per-epoch mean loss.

    Each epoch calls ``order()`` once for the example indices, slices them
    into ``batch_size`` batches and takes one optimizer step per batch on
    ``loss_of(batch)``, clipping the global gradient norm to ``clip_norm``
    first unless it is ``None``.  The model trains in train mode and is
    left in eval mode.
    """
    losses: list[float] = []
    model.train()
    for _ in range(epochs):
        indices = order()
        total, batches = 0.0, 0
        for start in range(0, len(indices), batch_size):
            loss = loss_of(indices[start : start + batch_size])
            optimizer.zero_grad()
            loss.backward()
            if clip_norm is not None:
                clip_grad_norm(optimizer.parameters, clip_norm)
            optimizer.step()
            total += loss.item()
            batches += 1
        losses.append(total / max(batches, 1))
    model.eval()
    return losses
