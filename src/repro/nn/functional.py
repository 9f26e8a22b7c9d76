"""Functional building blocks on top of the autograd engine."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "dropout",
]


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor) -> Tensor:
    """Numerically stable log-softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=-1, keepdims=True).log()


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Mean softmax cross-entropy over integer class ``targets``.

    ``logits`` has shape ``(..., num_classes)``; ``targets`` has the
    leading shape.  ``weights`` optionally re-weights each example (a
    zero weight masks a padding position in LM training).
    """
    targets = np.asarray(targets, dtype=np.int64)
    flat_logits = logits.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)

    mask = np.ones(flat_targets.shape[0], dtype=np.float64)
    if weights is not None:
        mask = mask * np.asarray(weights, dtype=np.float64).reshape(-1)

    logp = log_softmax(flat_logits)
    rows = np.arange(flat_targets.shape[0])
    picked = logp[rows, flat_targets]
    denom = max(mask.sum(), 1.0)
    return -(picked * Tensor(mask)).sum() / denom


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean BCE for binary ``targets`` given raw ``logits``.

    Uses the stable formulation ``max(x,0) - x*t + log(1+exp(-|x|))``.
    """
    targets_t = Tensor(np.asarray(targets, dtype=np.float64))
    x = logits
    positive = x.relu()
    abs_x = (x * x).sqrt()
    loss = positive - x * targets_t + ((-abs_x).exp() + 1.0).log()
    return loss.mean()


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when ``training`` is false or rate 0."""
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(np.float64) / keep
    return x * Tensor(mask)
