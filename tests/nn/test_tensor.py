"""Autograd engine correctness: analytic vs numerical gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, no_grad, vocab_scatter


def numerical_grad(fn, array, index, eps=1e-6):
    """Central-difference derivative of fn() w.r.t. array[index]."""
    original = array[index]
    array[index] = original + eps
    up = fn()
    array[index] = original - eps
    down = fn()
    array[index] = original
    return (up - down) / (2 * eps)


def check_gradient(build_loss, tensor, indices):
    tensor.grad = None  # isolate from earlier checks on the same tensor
    loss = build_loss()
    loss.backward()
    analytic = tensor.grad.copy()
    for index in indices:
        numeric = numerical_grad(lambda: build_loss().item(), tensor.data, index)
        assert abs(numeric - analytic[index]) < 1e-5, (index, numeric, analytic[index])


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_add_mul_gradients(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = rng.normal(size=(3, 4))
    check_gradient(lambda: ((x * y + x) * x).sum(), x, [(0, 0), (2, 3), (1, 2)])


def test_broadcast_add_gradient(rng):
    x = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    other = rng.normal(size=(3, 4))
    check_gradient(lambda: (x + other).sum(), x, [(0, 0), (0, 3)])
    # Gradient of a broadcast add sums over the expanded axis.
    x.grad = None
    loss = (x + other).sum()
    loss.backward()
    assert np.allclose(x.grad, np.full((1, 4), 3.0))


def test_matmul_gradients(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    check_gradient(lambda: (a @ b.detach()).sum(), a, [(0, 0), (2, 3)])
    check_gradient(lambda: (a.detach() @ b).sum(), b, [(0, 0), (3, 1)])


def test_batched_matmul_gradient(rng):
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = rng.normal(size=(2, 4, 5))
    check_gradient(lambda: (a @ b).sum(), a, [(0, 0, 0), (1, 2, 3)])


def test_nonlinearity_gradients(rng):
    x = Tensor(rng.normal(size=(5,)), requires_grad=True)
    check_gradient(lambda: (x.tanh() + x.sigmoid() + x.relu()).sum(), x, [(0,), (3,)])


def test_exp_log_gradients(rng):
    x = Tensor(rng.uniform(0.5, 2.0, size=(4,)), requires_grad=True)
    check_gradient(lambda: (x.exp().log() * x).sum(), x, [(1,), (3,)])


def test_reduction_gradients(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    check_gradient(lambda: x.mean(axis=1).sum() + x.sum(axis=0).sum(), x, [(0, 0), (2, 2)])


def test_max_gradient_routes_to_argmax():
    x = Tensor(np.array([[1.0, 5.0, 3.0]]), requires_grad=True)
    x.max(axis=1).sum().backward()
    assert np.allclose(x.grad, [[0.0, 1.0, 0.0]])


def test_getitem_gradient(rng):
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    check_gradient(lambda: (x[1:3, :2] * 2.0).sum(), x, [(1, 0), (2, 1), (0, 0)])


def test_concat_and_stack_gradients(rng):
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    check_gradient(lambda: Tensor.concat([a, b.detach()]).sum(), a, [(0, 0)])
    check_gradient(lambda: Tensor.concat([a.detach(), b]).sum(), b, [(1, 1)])
    c = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    frozen = Tensor(c.data.copy())  # independent constant copy
    check_gradient(lambda: (Tensor.stack([c, frozen], axis=0) ** 2).sum(), c, [(1, 2)])


def test_transpose_and_reshape_gradients(rng):
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    check_gradient(lambda: (x.T @ x).sum(), x, [(0, 0), (1, 2)])
    check_gradient(lambda: (x.reshape(3, 2) * 1.5).sum(), x, [(1, 1)])


def test_vocab_scatter_forward_and_backward():
    weights = Tensor(np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]]), requires_grad=True)
    ids = np.array([[1, 1, 2], [0, 3, 3]])
    out = vocab_scatter(weights, ids, vocab_size=4)
    assert np.allclose(out.data, [[0.0, 0.5, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0]])
    grad_out = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    out.backward(grad_out)
    assert np.allclose(weights.grad, [[2.0, 2.0, 3.0], [5.0, 8.0, 8.0]])


def test_no_grad_blocks_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2.0).sum()
    assert not y.requires_grad


def test_backward_requires_scalar_or_grad():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(RuntimeError):
        (x * 2).backward()


def test_backward_on_non_grad_tensor_raises():
    x = Tensor(np.ones(3))
    with pytest.raises(RuntimeError):
        x.backward()


@given(st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_elementwise_grad_matches_numeric_for_random_shapes(rows, cols):
    rng = np.random.default_rng(rows * 10 + cols)
    x = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    y = rng.normal(size=(rows, cols))

    def loss():
        return ((x * y).tanh() + x.sigmoid()).sum()

    loss_val = loss()
    loss_val.backward()
    analytic = x.grad[0, 0]
    numeric = numerical_grad(lambda: loss().item(), x.data, (0, 0))
    assert abs(analytic - numeric) < 1e-5
