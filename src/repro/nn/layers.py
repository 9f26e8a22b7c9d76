"""Core layers: Linear, Embedding, Dropout, MLP, Sequential."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.functional import dropout
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, embedding_lookup

__all__ = [
    "Linear",
    "Embedding",
    "Dropout",
    "Sequential",
    "ReLU",
    "MLP",
]


class Linear(Module):
    """Affine map ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(rng, (in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator, padding_idx: int | None = None):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.padding_idx = padding_idx
        weight = init.normal(rng, (num_embeddings, dim), std=0.1)
        if padding_idx is not None:
            weight[padding_idx] = 0.0
        self.weight = Parameter(weight)

    def forward(self, indices: np.ndarray) -> Tensor:
        return embedding_lookup(self.weight, indices)


class Dropout(Module):
    """Inverted dropout layer with its own random stream."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        self.rate = rate
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return dropout(x, self.rate, self._rng, self.training)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sequential(Module):
    """Run modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x


class MLP(Module):
    """Multi-layer perceptron with ReLU activations between layers.

    ``sizes`` gives the layer widths including input and output, e.g.
    ``MLP([64, 32, 4], rng)`` is a 64→32→4 network with one hidden layer.
    """

    def __init__(self, sizes: list[int], rng: np.random.Generator):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        layers: list[Module] = []
        for index, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layers.append(Linear(fan_in, fan_out, rng))
            is_last = index == len(sizes) - 2
            if not is_last:
                layers.append(ReLU())
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
