"""The shared minibatch loop replays the hand-written loops it replaced.

Each reference below is the loop a trainer carried before ``train_epochs``
existed: the critic's (an MLP on BCE, plain permutation, no clipping;
here also run with the LM loops' clip step) and the pointer seq2seq's
(length-bucketed order, gradient norm clipped to 5).  Two epochs through
either path must leave byte-equal parameters and equal per-epoch losses.
"""

import numpy as np
import pytest

from repro.llm import LatencyModel, Seq2SeqLM, Tokenizer
from repro.llm.interface import BATCH_SIZE, MAX_NEW_TOKENS
from repro.nn import (
    MLP,
    Adam,
    Tensor,
    binary_cross_entropy_with_logits,
    clip_grad_norm,
    train_epochs,
)
from repro.utils.rng import spawn_rng


def _assert_same_parameters(a, b):
    for (name, left), (_, right) in zip(a.named_parameters(), b.named_parameters()):
        assert left.data.tobytes() == right.data.tobytes(), name


def _reference_critic_loop(model, features, labels, rng, epochs, batch_size, clip_norm):
    optimizer = Adam(model.parameters(), lr=3e-3)
    losses = []
    model.train()
    for _ in range(epochs):
        order = rng.permutation(len(features))
        epoch_loss, batches = 0.0, 0
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            logits = model(Tensor(features[batch]))
            loss = binary_cross_entropy_with_logits(logits, labels[batch])
            optimizer.zero_grad()
            loss.backward()
            if clip_norm is not None:  # as the LM loops clipped
                clip_grad_norm(model.parameters(), clip_norm)
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        losses.append(epoch_loss / max(batches, 1))
    model.eval()
    return losses


# At 0.05 every step of this MLP clips; the seq2seq case below never
# reaches its 5.0, so this is what exercises the clipping branch.
@pytest.mark.parametrize("clip_norm", [None, 0.05])
def test_mlp_bce_matches_the_reference_loop(clip_norm):
    data = np.random.default_rng(0)
    features = data.normal(size=(150, 6))
    labels = (data.random((150, 2)) < 0.5).astype(float)
    reference = MLP([6, 8, 2], spawn_rng(0, "train-epochs-mlp"))
    shared = MLP([6, 8, 2], spawn_rng(0, "train-epochs-mlp"))
    expected = _reference_critic_loop(
        reference, features, labels, spawn_rng(0, "order"), epochs=2, batch_size=64,
        clip_norm=clip_norm)
    rng = spawn_rng(0, "order")
    losses = train_epochs(
        shared, Adam(shared.parameters(), lr=3e-3), 2, 64,
        lambda: rng.permutation(len(features)),
        lambda batch: binary_cross_entropy_with_logits(
            shared(Tensor(features[batch])), labels[batch]),
        clip_norm,
    )
    assert losses == expected
    assert not shared.training
    _assert_same_parameters(reference, shared)


def _reference_seq2seq_fit(model, pairs, epochs, lr):
    tok = model.tokenizer
    data = [
        (prompt, tok.encode(target)[:MAX_NEW_TOKENS] + [tok.eos_id])
        for prompt, target in pairs
    ]
    optimizer = Adam(model.parameters(), lr=lr)
    losses = []
    model.train()
    for _ in range(epochs):
        order = model._train_rng.permutation(len(data))
        chunk = BATCH_SIZE * 16
        bucketed = []
        for start in range(0, len(order), chunk):
            segment = sorted(order[start : start + chunk],
                             key=lambda i: len(data[i][1]))
            bucketed.extend(segment)
        order = bucketed
        epoch_loss, batches = 0.0, 0
        for start in range(0, len(order), BATCH_SIZE):
            batch = [data[i] for i in order[start : start + BATCH_SIZE]]
            loss = model._batch_loss(batch)
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(model.parameters(), 5.0)
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        losses.append(epoch_loss / max(batches, 1))
    model.eval()
    return losses


def test_seq2seq_fit_matches_the_reference_loop():
    data = np.random.default_rng(1)
    words = [f"w{i}" for i in range(12)]
    pairs = []
    for _ in range(40):
        prompt = " ".join(words[int(k)] for k in data.integers(12, size=4))
        target = " ".join(words[int(k)] for k in data.integers(12, size=int(data.integers(1, 4))))
        pairs.append((prompt, target))
    tok = Tokenizer().fit([p for p, _ in pairs] + [t for _, t in pairs])

    def model():
        return Seq2SeqLM(tok, embed_dim=8, hidden_dim=8, name="tiny", seed=0,
                         latency=LatencyModel())

    reference, shared = model(), model()
    expected = _reference_seq2seq_fit(reference, pairs, epochs=2, lr=4e-3)
    assert shared.fit(pairs, epochs=2, lr=4e-3) == expected
    _assert_same_parameters(reference, shared)
