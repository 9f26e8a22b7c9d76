"""Layers, module traversal, and state (de)serialization."""

import numpy as np
import pytest

from repro.nn import MLP, Adam, Dropout, Embedding, Linear, Sequential, Tensor
from repro.utils.rng import spawn_rng


@pytest.fixture
def rng():
    return spawn_rng(0, "layers-test")


def test_linear_shapes_and_bias(rng):
    layer = Linear(5, 3, rng)
    out = layer(Tensor(np.ones((2, 5))))
    assert out.shape == (2, 3)
    no_bias = Linear(5, 3, rng, bias=False)
    assert no_bias.bias is None
    assert len(no_bias.parameters()) == 1


def test_embedding_padding_row_is_zero(rng):
    emb = Embedding(10, 4, rng, padding_idx=0)
    assert np.allclose(emb.weight.data[0], 0.0)
    out = emb(np.array([[0, 3], [5, 0]]))
    assert out.shape == (2, 2, 4)
    assert np.allclose(out.numpy()[0, 0], 0.0)


def test_embedding_gradient_accumulates_per_row(rng):
    emb = Embedding(6, 3, rng)
    out = emb(np.array([2, 2, 4]))
    out.sum().backward()
    assert np.allclose(emb.weight.grad[2], 2.0)
    assert np.allclose(emb.weight.grad[4], 1.0)
    assert np.allclose(emb.weight.grad[1], 0.0)


def test_mlp_structure_and_forward(rng):
    mlp = MLP([6, 4, 2], rng)
    out = mlp(Tensor(np.ones((3, 6))))
    assert out.shape == (3, 2)
    with pytest.raises(ValueError):
        MLP([5], rng)


def test_sequential_runs_in_order(rng):
    model = Sequential(Linear(4, 4, rng), Linear(4, 2, rng))
    assert model(Tensor(np.ones((1, 4)))).shape == (1, 2)


def test_named_parameters_recurse_through_containers(rng):
    model = Sequential(Linear(3, 3, rng), MLP([3, 2], rng))
    names = [name for name, _ in model.named_parameters()]
    assert any("modules.0.weight" in name for name in names)
    assert any("modules.1.net" in name for name in names)


def test_num_parameters_counts_scalars(rng):
    layer = Linear(4, 3, rng)
    assert layer.num_parameters() == 4 * 3 + 3


def test_state_dict_roundtrip(rng):
    model = MLP([4, 3, 2], rng)
    state = model.state_dict()
    clone = MLP([4, 3, 2], spawn_rng(99, "other"))
    before = clone(Tensor(np.ones((1, 4)))).numpy().copy()
    clone.load_state_dict(state)
    after = clone(Tensor(np.ones((1, 4)))).numpy()
    reference = model(Tensor(np.ones((1, 4)))).numpy()
    assert not np.allclose(before, reference)
    assert np.allclose(after, reference)


def test_load_state_dict_validates_keys_and_shapes(rng):
    model = Linear(3, 2, rng)
    state = model.state_dict()
    state["extra"] = np.zeros(1)
    with pytest.raises(KeyError):
        model.load_state_dict(state)
    bad = model.state_dict()
    bad["weight"] = np.zeros((5, 5))
    with pytest.raises(ValueError):
        model.load_state_dict(bad)


def test_save_load_npz(tmp_path, rng):
    model = MLP([3, 3], rng)
    path = str(tmp_path / "model.npz")
    model.save(path)
    other = MLP([3, 3], spawn_rng(123, "fresh"))
    other.load(path)
    x = Tensor(np.ones((1, 3)))
    assert np.allclose(model(x).numpy(), other(x).numpy())


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_load_rejects_an_npz_of_another_dtype(tmp_path, rng, dtype):
    model = Linear(3, 2, rng)
    path = str(tmp_path / "model.npz")
    np.savez(path, **{name: value.astype(dtype) for name, value in model.state_dict().items()})
    with pytest.raises(ValueError, match="dtype mismatch for (weight|bias)"):
        model.load(path)


def test_train_eval_propagates_to_submodules(rng):
    model = Sequential(Dropout(0.5, rng), MLP([2, 2], rng))
    model.eval()
    assert not model.modules[0].training
    model.train()
    assert model.modules[0].training


def test_zero_grad_clears_all(rng):
    model = MLP([3, 2], rng)
    out = model(Tensor(np.ones((1, 3)))).sum()
    out.backward()
    assert any(p.grad is not None for p in model.parameters())
    Adam(model.parameters()).zero_grad()
    assert all(p.grad is None for p in model.parameters())
