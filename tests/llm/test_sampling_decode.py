"""Top-k sampled decoding and sample-and-rerank generation."""

import numpy as np
import pytest

from repro.llm import LatencyModel, Seq2SeqLM, Tokenizer
from repro.utils.rng import spawn_rng


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    colors = ["red", "blue", "green", "yellow"]
    pairs = []
    for i in range(300):
        color = colors[int(rng.integers(4))]
        pairs.append((f"box {i % 6} marker {color} task: say", f"it is {color}"))
    tok = Tokenizer().fit([p for p, _ in pairs] + [t for _, t in pairs])
    lm = Seq2SeqLM(tok, embed_dim=48, hidden_dim=48, name="cosmo-lm-seq2seq", seed=0, latency=LatencyModel())
    lm.fit(pairs, epochs=6, lr=4e-3)
    return lm


def test_greedy_is_deterministic(model):
    a = model.decode_batch(["box 1 marker red task: say"])[0].text
    b = model.decode_batch(["box 1 marker red task: say"])[0].text
    assert a == b


def test_sampling_with_same_rng_is_reproducible(model):
    rng_a = spawn_rng(5, "s")
    rng_b = spawn_rng(5, "s")
    a = model.decode_batch(["box 1 marker red task: say"], temperature=0.8, rng=rng_a)
    b = model.decode_batch(["box 1 marker red task: say"], temperature=0.8, rng=rng_b)
    assert a[0].text == b[0].text


def test_sampling_produces_diversity(model):
    rng = spawn_rng(6, "s")
    prompts = ["box 2 marker blue task: say"] * 12
    outputs = model.decode_batch(prompts, temperature=1.5, rng=rng)
    assert len({o.text for o in outputs}) > 1


def test_high_temperature_still_mostly_well_formed(model):
    rng = spawn_rng(7, "s")
    outputs = model.decode_batch(
        [f"box {i % 6} marker green task: say" for i in range(10)],
        temperature=0.7, rng=rng,
    )
    well_formed = sum(o.text.startswith("it is") for o in outputs)
    assert well_formed >= 6
