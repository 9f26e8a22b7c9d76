"""Optimizers actually optimize; gradient clipping scales correctly."""

import numpy as np
import pytest

from repro.nn import MLP, Adam, Tensor, clip_grad_norm, cross_entropy
from repro.utils.rng import spawn_rng


def _train(optimizer_factory, steps=120):
    rng = spawn_rng(0, "optim-test")
    model = MLP([4, 8, 3], rng)
    gen = np.random.default_rng(1)
    x = gen.normal(size=(16, 4))
    y = gen.integers(0, 3, size=16)
    optimizer = optimizer_factory(model.parameters())
    first = cross_entropy(model(Tensor(x)), y).item()
    for _ in range(steps):
        loss = cross_entropy(model(Tensor(x)), y)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    return first, cross_entropy(model(Tensor(x)), y).item()


def test_adam_reduces_loss():
    first, last = _train(lambda params: Adam(params, lr=1e-2))
    assert last < first * 0.2


def test_clip_grad_norm_scales_down():
    rng = spawn_rng(3, "clip")
    model = MLP([3, 3], rng)
    for param in model.parameters():
        param.grad = np.full_like(param.data, 10.0)
    norm_before = clip_grad_norm(model.parameters(), max_norm=1.0)
    assert norm_before > 1.0
    total = sum(float(np.sum(p.grad**2)) for p in model.parameters())
    assert np.sqrt(total) == pytest.approx(1.0, rel=1e-6)


def test_clip_grad_norm_noop_below_threshold():
    rng = spawn_rng(4, "clip2")
    model = MLP([2, 2], rng)
    for param in model.parameters():
        param.grad = np.full_like(param.data, 1e-4)
    grads_before = [p.grad.copy() for p in model.parameters()]
    clip_grad_norm(model.parameters(), max_norm=10.0)
    for before, param in zip(grads_before, model.parameters()):
        assert np.array_equal(before, param.grad)


def test_optimizer_skips_parameters_without_grad():
    rng = spawn_rng(5, "skip")
    model = MLP([2, 2], rng)
    optimizer = Adam(model.parameters(), lr=0.1)
    data_before = [p.data.copy() for p in model.parameters()]
    optimizer.step()  # no gradients computed
    for before, param in zip(data_before, model.parameters()):
        assert np.array_equal(before, param.data)
