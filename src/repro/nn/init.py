"""Weight initialization helpers."""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "normal", "uniform"]


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Glorot/Xavier uniform initialization for (fan_in, fan_out) weights."""
    fan_in, fan_out = shape[0], shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def normal(rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02) -> np.ndarray:
    """Gaussian initialization (the transformer-style default)."""
    return rng.normal(0.0, std, size=shape)


def uniform(rng: np.random.Generator, shape: tuple[int, ...], bound: float) -> np.ndarray:
    """Uniform initialization in ``[-bound, bound]``."""
    return rng.uniform(-bound, bound, size=shape)
