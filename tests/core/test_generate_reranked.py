"""Sample-and-rerank generation through the CosmoLM API."""

import pytest

from repro.core import CosmoLMConfig


def test_reranked_returns_one_generation_per_prompt(trained_pipeline):
    lm = trained_pipeline.cosmo_lm
    samples = trained_pipeline.samples[:8]
    prompts = [lm.prompt_for_sample(trained_pipeline.world, s) for s in samples]
    winners = lm.generate_reranked(prompts)
    assert len(winners) == len(prompts)
    for winner in winners:
        assert winner.text is not None


def test_reranked_is_deterministic(trained_pipeline):
    lm = trained_pipeline.cosmo_lm
    sample = trained_pipeline.samples[0]
    prompt = lm.prompt_for_sample(trained_pipeline.world, sample)
    first = [g.text for g in lm.generate_reranked([prompt])]
    second = [g.text for g in lm.generate_reranked([prompt])]
    assert first == second


def test_reranked_costs_more_latency_than_greedy(trained_pipeline):
    lm = trained_pipeline.cosmo_lm
    prompts = [lm.prompt_for_sample(trained_pipeline.world, s)
               for s in trained_pipeline.samples[:6]]
    before = lm.latency.total_simulated_s
    lm.generate_batch(prompts).require()
    greedy_cost = lm.latency.total_simulated_s - before
    before = lm.latency.total_simulated_s
    lm.generate_reranked(prompts)
    rerank_cost = lm.latency.total_simulated_s - before
    assert rerank_cost > greedy_cost


def test_reranked_requires_seq2seq():
    from repro.core.cosmo_lm import CosmoLM

    lm = CosmoLM(config=CosmoLMConfig(architecture="lm", epochs=1))
    with pytest.raises(RuntimeError):
        lm.generate_reranked(["x"])  # not finetuned -> RuntimeError first
