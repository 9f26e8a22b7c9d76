"""Additional autograd coverage: division, power, numerical stability."""

import numpy as np

from repro.nn import Tensor


def _numeric(fn, array, index, eps=1e-6):
    original = array[index]
    array[index] = original + eps
    up = fn()
    array[index] = original - eps
    down = fn()
    array[index] = original
    return (up - down) / (2 * eps)


def test_division_gradients_both_operands():
    rng = np.random.default_rng(0)
    a = Tensor(rng.uniform(1, 2, size=(3,)), requires_grad=True)
    b = Tensor(rng.uniform(1, 2, size=(3,)), requires_grad=True)
    (a / b).sum().backward()
    for tensor, other, numer in ((a, b, True), (b, a, False)):
        grad = tensor.grad.copy()
        tensor.grad = None
        numeric = _numeric(lambda: (a / b).sum().item(), tensor.data, (1,))
        assert abs(grad[1] - numeric) < 1e-6


def test_rtruediv_and_rsub():
    x = Tensor(np.array([2.0, 4.0]), requires_grad=True)
    y = (1.0 / x).sum() + (10.0 - x).sum()
    y.backward()
    expected = -1.0 / x.data**2 - 1.0
    assert np.allclose(x.grad, expected)


def test_pow_gradient():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    (x**3).sum().backward()
    assert np.allclose(x.grad, 3 * x.data**2)


def test_sqrt_via_pow():
    x = Tensor(np.array([4.0, 9.0]), requires_grad=True)
    x.sqrt().sum().backward()
    assert np.allclose(x.grad, 0.5 / np.sqrt(x.data))


def test_sigmoid_extreme_inputs_stay_finite():
    x = Tensor(np.array([-500.0, 0.0, 500.0]), requires_grad=True)
    out = x.sigmoid()
    assert np.isfinite(out.numpy()).all()
    out.sum().backward()
    assert np.isfinite(x.grad).all()


def test_grad_accumulates_across_backward_calls():
    x = Tensor(np.ones(2), requires_grad=True)
    (x * 2).sum().backward()
    (x * 3).sum().backward()
    assert np.allclose(x.grad, [5.0, 5.0])


def test_detach_breaks_graph_but_shares_data():
    x = Tensor(np.ones(2), requires_grad=True)
    d = x.detach()
    assert not d.requires_grad
    assert d.data is x.data


def test_item_and_len():
    scalar = Tensor(np.array(3.5))
    assert scalar.item() == 3.5
    vector = Tensor(np.zeros(4))
    assert len(vector) == 4


def test_same_tensor_used_twice_accumulates_within_one_backward():
    x = Tensor(np.array([2.0]), requires_grad=True)
    (x * x).sum().backward()  # d/dx x^2 = 2x
    assert np.allclose(x.grad, [4.0])
