"""Functional ops: softmax/cross-entropy/BCE correctness and stability."""

import numpy as np
import pytest

from repro.nn import Tensor, binary_cross_entropy_with_logits, cross_entropy, softmax
from repro.nn.functional import dropout, log_softmax


def test_softmax_rows_sum_to_one():
    logits = Tensor(np.random.default_rng(0).normal(size=(4, 7)))
    probs = softmax(logits).numpy()
    assert np.allclose(probs.sum(axis=-1), 1.0)
    assert (probs >= 0).all()


def test_softmax_handles_large_logits():
    probs = softmax(Tensor(np.array([[1e4, 0.0, -1e4]]))).numpy()
    assert np.isfinite(probs).all()
    assert probs[0, 0] == pytest.approx(1.0)


def test_log_softmax_matches_log_of_softmax():
    logits = Tensor(np.random.default_rng(1).normal(size=(3, 5)))
    assert np.allclose(log_softmax(logits).numpy(), np.log(softmax(logits).numpy()))


def test_cross_entropy_matches_manual():
    logits_arr = np.array([[2.0, 0.5, -1.0], [0.0, 0.0, 0.0]])
    targets = np.array([0, 2])
    expected = -np.mean(
        [
            np.log(np.exp(2.0) / np.exp(logits_arr[0]).sum()),
            np.log(1.0 / 3.0),
        ]
    )
    loss = cross_entropy(Tensor(logits_arr), targets)
    assert loss.item() == pytest.approx(expected)


def test_cross_entropy_ignore_index_masks_positions():
    logits = Tensor(np.random.default_rng(2).normal(size=(2, 3, 5)))
    targets = np.array([[1, 2, 0], [0, 0, 0]])
    weights_loss = cross_entropy(logits, targets, weights=(targets != 0))
    # Only positions (0,0) and (0,1) contribute.
    manual = cross_entropy(
        Tensor(logits.numpy()[0, :2][None]), targets[0, :2][None]
    )
    assert weights_loss.item() == pytest.approx(manual.item())


def test_cross_entropy_weights():
    logits = Tensor(np.zeros((2, 2)))
    targets = np.array([0, 1])
    unweighted = cross_entropy(logits, targets)
    weighted = cross_entropy(logits, targets, weights=np.array([1.0, 0.0]))
    assert unweighted.item() == pytest.approx(np.log(2))
    assert weighted.item() == pytest.approx(np.log(2))


def test_bce_with_logits_matches_manual_and_is_stable():
    logits = Tensor(np.array([[0.0], [100.0], [-100.0]]))
    targets = np.array([[1.0], [1.0], [0.0]])
    loss = binary_cross_entropy_with_logits(logits, targets)
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(np.log(2) / 3, abs=1e-6)


def test_dropout_identity_when_eval_or_zero_rate():
    rng = np.random.default_rng(3)
    x = Tensor(np.ones((4, 4)))
    assert np.array_equal(dropout(x, 0.5, rng, training=False).numpy(), x.numpy())
    assert np.array_equal(dropout(x, 0.0, rng, training=True).numpy(), x.numpy())


def test_dropout_preserves_expectation():
    rng = np.random.default_rng(4)
    x = Tensor(np.ones((200, 200)))
    dropped = dropout(x, 0.3, rng, training=True).numpy()
    assert dropped.mean() == pytest.approx(1.0, abs=0.02)
