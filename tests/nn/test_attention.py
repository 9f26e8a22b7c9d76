"""Attention blocks: shapes, masking, residuals."""

import numpy as np
import pytest

from repro.nn import SelfAttention, Tensor, scaled_dot_product_attention
from repro.utils.rng import spawn_rng


@pytest.fixture
def rng():
    return spawn_rng(0, "attention-test")


def test_scaled_dot_product_shapes():
    gen = np.random.default_rng(1)
    q = Tensor(gen.normal(size=(2, 4, 8)))
    k = Tensor(gen.normal(size=(2, 4, 8)))
    v = Tensor(gen.normal(size=(2, 4, 8)))
    out = scaled_dot_product_attention(q, k, v)
    assert out.shape == (2, 4, 8)


def test_masked_positions_get_no_weight():
    gen = np.random.default_rng(2)
    q = Tensor(gen.normal(size=(1, 2, 4)))
    k = Tensor(gen.normal(size=(1, 3, 4)))
    # Distinctive values in the masked position: if it leaked, output moves.
    v_data = gen.normal(size=(1, 3, 4))
    v_data[0, 2] = 1e3
    mask = np.array([[[True, True, False], [True, True, False]]])
    out = scaled_dot_product_attention(q, k, Tensor(v_data), mask=mask)
    assert np.abs(out.numpy()).max() < 100


def test_self_attention_residual_and_shape(rng):
    block = SelfAttention(6, rng)
    x = Tensor(np.random.default_rng(3).normal(size=(2, 5, 6)))
    out = block(x)
    assert out.shape == (2, 5, 6)
    # Residual: zero projections would return x; with random init the
    # output must stay correlated with the input.
    corr = np.corrcoef(out.numpy().ravel(), x.numpy().ravel())[0, 1]
    assert corr > 0.5
