"""A minimal neural-network library on numpy with reverse-mode autodiff.

Provides everything the COSMO reproduction trains: MLP critics, bi/cross
encoders, GRU language models, attention blocks, and the gated GNNs of the
session recommenders.
"""

from repro.nn.attention import SelfAttention, scaled_dot_product_attention
from repro.nn.functional import (
    binary_cross_entropy_with_logits,
    cross_entropy,
    dropout,
    log_softmax,
    softmax,
)
from repro.nn.layers import (
    MLP,
    Dropout,
    Embedding,
    Linear,
    ReLU,
    Sequential,
)
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam, clip_grad_norm, train_epochs
from repro.nn.rnn import GRU, GRUCell
from repro.nn.tensor import Tensor, embedding_lookup, no_grad, vocab_scatter

__all__ = [
    "Tensor",
    "no_grad",
    "embedding_lookup",
    "vocab_scatter",
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "Dropout",
    "Sequential",
    "ReLU",
    "MLP",
    "GRU",
    "GRUCell",
    "SelfAttention",
    "scaled_dot_product_attention",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "dropout",
    "Adam",
    "clip_grad_norm",
    "train_epochs",
]
