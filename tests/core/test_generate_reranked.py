"""Sample-and-rerank generation through the CosmoLM API."""

import pytest

from repro.behavior import WorldConfig
from repro.core import CosmoLMConfig, CosmoPipeline, PipelineConfig
from repro.core.relations import parse_predicate


@pytest.fixture(scope="module")
def small_cosmo():
    config = PipelineConfig(
        seed=61,
        world=WorldConfig(seed=61, products_per_domain=16,
                          broad_queries_per_domain=8, specific_queries_per_domain=8),
        cobuy_pairs_per_domain=20,
        searchbuy_records_per_domain=25,
        annotation_budget=250,
        lm=CosmoLMConfig(epochs=6, hidden_dim=48),
        expand_with_lm=False,
    )
    return CosmoPipeline(config).run()


def test_reranked_returns_one_generation_per_prompt(small_cosmo):
    lm = small_cosmo.cosmo_lm
    samples = small_cosmo.samples[:8]
    prompts = [lm.prompt_for_sample(small_cosmo.world, s) for s in samples]
    winners = lm.generate_reranked(prompts, num_candidates=3)
    assert len(winners) == len(prompts)
    for winner in winners:
        assert winner.text is not None


def test_reranked_is_deterministic(small_cosmo):
    lm = small_cosmo.cosmo_lm
    sample = small_cosmo.samples[0]
    prompt = lm.prompt_for_sample(small_cosmo.world, sample)
    first = [g.text for g in lm.generate_reranked([prompt], num_candidates=3)]
    second = [g.text for g in lm.generate_reranked([prompt], num_candidates=3)]
    assert first == second


def test_reranked_costs_more_latency_than_greedy(small_cosmo):
    lm = small_cosmo.cosmo_lm
    prompts = [lm.prompt_for_sample(small_cosmo.world, s)
               for s in small_cosmo.samples[:6]]
    before = lm.latency.total_simulated_s
    lm.generate_batch(prompts).require()
    greedy_cost = lm.latency.total_simulated_s - before
    before = lm.latency.total_simulated_s
    lm.generate_reranked(prompts, num_candidates=3)
    rerank_cost = lm.latency.total_simulated_s - before
    assert rerank_cost > greedy_cost


def test_reranked_requires_seq2seq():
    from repro.core.cosmo_lm import CosmoLM

    lm = CosmoLM(config=CosmoLMConfig(architecture="lm", epochs=1))
    with pytest.raises(RuntimeError):
        lm.generate_reranked(["x"])  # not finetuned -> RuntimeError first
