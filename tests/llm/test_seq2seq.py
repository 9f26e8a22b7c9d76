"""Pointer-generator seq2seq: the copy mechanism and classification."""

import numpy as np
import pytest

from repro.llm import LatencyModel, Seq2SeqLM, Tokenizer


def _copy_pairs(n=800, n_words=120, train_targets=100):
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(n_words)]
    pairs = []
    for _ in range(n):
        filler = [words[int(rng.integers(n_words))] for _ in range(5)]
        target = words[int(rng.integers(train_targets))]
        position = int(rng.integers(3))
        tokens = filler[:position] + ["marker", target] + filler[position:]
        pairs.append((" ".join(tokens), f"it is {target}"))
    return pairs, words, train_targets


@pytest.fixture(scope="module")
def copy_model():
    pairs, words, train_targets = _copy_pairs()
    tok = Tokenizer().fit([p for p, _ in pairs] + [t for _, t in pairs] + words)
    model = Seq2SeqLM(tok, embed_dim=48, hidden_dim=48, name="cosmo-lm-seq2seq", seed=0, latency=LatencyModel())
    losses = model.fit(pairs, epochs=4, lr=4e-3)
    return model, words, train_targets, losses


def test_training_converges(copy_model):
    _, _, _, losses = copy_model
    assert losses[-1] < losses[0] * 0.2


def test_copies_unseen_targets(copy_model):
    model, words, train_targets, _ = copy_model
    rng = np.random.default_rng(1)
    correct = total = 0
    for index in range(train_targets, len(words)):
        filler = [words[int(rng.integers(len(words)))] for _ in range(5)]
        prompt = f"{filler[0]} {filler[1]} marker {words[index]} {filler[2]}"
        output = model.decode_batch([prompt])[0].text
        correct += int(output == f"it is {words[index]}.")
        total += 1
    # Pointer copying must generalize to words never seen as targets.
    assert correct / total > 0.8


def test_generate_batch_order_and_shapes(copy_model):
    model, words, _, _ = copy_model
    prompts = [f"a b marker {words[3]} c", f"a b marker {words[7]} c"]
    outputs = model.decode_batch(prompts)
    assert len(outputs) == 2
    assert words[3] in outputs[0].text
    assert words[7] in outputs[1].text


def test_sequence_logprob_prefers_copied_target(copy_model):
    model, words, _, _ = copy_model
    prompt = f"x y marker {words[5]} z"
    good = model.sequence_logprob(prompt, f"it is {words[5]}")
    bad = model.sequence_logprob(prompt, f"it is {words[9]}")
    assert good > bad


def test_classify_uses_likelihood():
    pairs = []
    rng = np.random.default_rng(2)
    for i in range(300):
        flag = "hot" if rng.random() < 0.5 else "cold"
        pairs.append((f"item {i % 7} is {flag} task: judge",
                      "yes" if flag == "hot" else "no"))
    tok = Tokenizer().fit([p for p, _ in pairs] + [t for _, t in pairs])
    model = Seq2SeqLM(tok, embed_dim=48, hidden_dim=32, name="cosmo-lm-seq2seq", seed=0, latency=LatencyModel())
    model.fit(pairs, epochs=6, lr=4e-3)
    assert model.classify("item 3 is hot task: judge") == "yes"
    assert model.classify("item 3 is cold task: judge") == "no"


def test_empty_prompt_list():
    tok = Tokenizer().fit(["a"])
    model = Seq2SeqLM(tok, embed_dim=48, hidden_dim=96, name="cosmo-lm-seq2seq", seed=0, latency=LatencyModel())
    assert model.decode_batch([]) == []


def test_parameter_count_positive_and_latency(copy_model):
    model, _, _, _ = copy_model
    assert model.parameter_count > 1000
    before = model.latency.total_simulated_s
    model.decode_batch(["marker w1"])
    assert model.latency.total_simulated_s > before
