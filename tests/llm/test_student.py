"""Plain GRU student LM (the architecture-ablation baseline)."""

import numpy as np
import pytest

from repro.llm import LatencyModel, StudentLM, Tokenizer


def _toy_pairs():
    rng = np.random.default_rng(0)
    colors = ["red", "blue", "green"]
    pairs = []
    for i in range(240):
        color = colors[int(rng.integers(3))]
        pairs.append((f"object {i % 5} color {color} task: say", f"it is {color}"))
        pairs.append((f"object {i % 5} color {color} task: judge",
                      "yes" if color == "red" else "no"))
    return pairs


@pytest.fixture(scope="module")
def trained():
    pairs = _toy_pairs()
    tok = Tokenizer().fit([p for p, _ in pairs] + [t for _, t in pairs])
    model = StudentLM(tok, embed_dim=32, hidden_dim=64, name="cosmo-lm-sim", seed=0, latency=LatencyModel())
    losses = model.fit(pairs, epochs=10, lr=4e-3)
    return model, losses


def test_training_reduces_loss(trained):
    _, losses = trained
    assert losses[-1] < losses[0] * 0.3


def test_generation_conditions_on_task_token(trained):
    model, _ = trained
    outputs = model.decode_batch(
        ["object 1 color blue task: say", "object 1 color blue task: judge"]
    )
    assert outputs[0].text.startswith("it is")
    assert outputs[1].text.rstrip(".") in ("yes", "no")


def test_generation_conditions_on_content(trained):
    model, _ = trained
    outputs = model.decode_batch(
        [f"object 2 color {color} task: say" for color in ("red", "blue", "green")]
    )
    texts = [o.text for o in outputs]
    assert len(set(texts)) >= 2  # not mode-collapsed


def test_classify_learns_rule(trained):
    model, _ = trained
    assert model.classify("object 4 color red task: judge") == "yes"
    assert model.classify("object 4 color green task: judge") == "no"


def test_sequence_logprob_is_negative_and_ranks(trained):
    model, _ = trained
    good = model.sequence_logprob("object 1 color red task: say", "it is red")
    bad = model.sequence_logprob("object 1 color red task: say", "it is blue")
    assert good < 0
    assert good > bad


def test_generate_batch_empty():
    tok = Tokenizer().fit(["a"])
    model = StudentLM(tok, embed_dim=32, hidden_dim=64, name="cosmo-lm-sim", seed=0, latency=LatencyModel())
    assert model.decode_batch([]) == []


def test_latency_charged_per_generation(trained):
    model, _ = trained
    before = model.latency.total_simulated_s
    model.decode_batch(["object 0 color red task: say"])
    assert model.latency.total_simulated_s > before
