"""Attention primitives used by STAMP, GC-SAN and the GNN readouts."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import softmax
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = ["scaled_dot_product_attention", "SelfAttention"]

_NEG_INF = -1e9


def scaled_dot_product_attention(
    query: Tensor,
    key: Tensor,
    value: Tensor,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Standard attention ``softmax(QK^T / sqrt(d)) V``.

    ``mask`` is a boolean array broadcastable to the score shape with True
    at *valid* positions.
    """
    dim = query.shape[-1]
    scores = (query @ key.transpose(0, 2, 1)) / np.sqrt(dim)
    if mask is not None:
        bias = np.where(mask, 0.0, _NEG_INF)
        scores = scores + Tensor(bias)
    weights = softmax(scores, axis=-1)
    return weights @ value


class SelfAttention(Module):
    """Single-head self-attention block with a residual connection."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.q_proj = Linear(dim, dim, rng)
        self.k_proj = Linear(dim, dim, rng)
        self.v_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        attended = scaled_dot_product_attention(
            self.q_proj(x), self.k_proj(x), self.v_proj(x), mask=mask
        )
        return x + self.out_proj(attended)
