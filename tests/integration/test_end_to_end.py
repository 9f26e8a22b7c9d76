"""Full-system integration: pipeline with COSMO-LM, serving, applications.

These run a genuinely finetuned (small) COSMO-LM, so they are the slowest
tests in the suite; everything trains at reduced scale.
"""

import pytest

from repro.behavior import WorldConfig
from repro.core import CosmoLMConfig, CosmoPipeline, PipelineConfig
from repro.core.cosmo_lm import CosmoLM
from repro.core.relations import parse_predicate
from repro.serving import CosmoService, ServeRequest


def _handle(service, query):
    return service.serve(ServeRequest(query=query)).text


@pytest.fixture(scope="module")
def full_result():
    config = PipelineConfig(
        seed=21,
        world=WorldConfig(seed=21, products_per_domain=24,
                          broad_queries_per_domain=10, specific_queries_per_domain=10),
        cobuy_pairs_per_domain=30,
        searchbuy_records_per_domain=40,
        annotation_budget=400,
        lm=CosmoLMConfig(epochs=10, hidden_dim=64),
        finetune_lm=True,
        expand_with_lm=True,
    )
    return CosmoPipeline(config).run()


def test_cosmo_lm_generates_parseable_knowledge(full_result):
    lm = full_result.cosmo_lm
    samples = full_result.samples[:60]
    prompts = [lm.prompt_for_sample(full_result.world, s) for s in samples]
    generations = lm.generate_batch(prompts).require()
    parsed = sum(parse_predicate(g.text) is not None for g in generations)
    assert parsed / len(generations) > 0.6


def test_cosmo_lm_label_prediction_runs(full_result):
    lm = full_result.cosmo_lm
    sample = full_result.samples[0]
    prompt = lm.prompt_for_sample(full_result.world, sample)
    prediction = lm.predict_typicality(prompt, "it is used for camping")
    assert prediction in ("yes", "no")


def test_lm_expansion_added_edges(full_result):
    # The KG contains both refined teacher edges and LM-expanded edges.
    assert len(full_result.kg) > 0
    assert full_result.lm_latency.total_simulated_s > 0


def test_student_is_orders_of_magnitude_cheaper(full_result):
    teacher_total = full_result.teacher_latency.total_simulated_s
    teacher_per = teacher_total / len(full_result.candidates)
    lm = full_result.cosmo_lm
    before = lm.latency.total_simulated_s
    generations = lm.generate_batch(
        [lm.prompt_for_sample(full_result.world, s) for s in full_result.samples[:20]]
    ).require()
    student_per = (lm.latency.total_simulated_s - before) / len(generations)
    assert teacher_per / max(student_per, 1e-9) > 100


def test_judge_generations_quality_fields(full_result):
    lm = full_result.cosmo_lm
    samples = [s for s in full_result.samples if s.behavior == "search-buy"][:50]
    texts = [g.text for g in lm.generate_batch(
        [lm.prompt_for_sample(full_result.world, s) for s in samples]).require()]
    quality = CosmoLM.judge_generations(full_result.world, samples, texts)
    assert quality.total == 50
    assert 0 <= quality.typical <= quality.plausible <= quality.parsed <= 50


def test_serving_cosmo_lm_end_to_end(full_result):
    lm = full_result.cosmo_lm
    world = full_result.world
    query = next(
        q for q in world.queries.broad()
        if world.catalog.serving_intent(q.intent_id)
    )
    product = world.catalog.serving_intent(query.intent_id)[0]

    def prompt_builder(query_text):
        return lm.searchbuy_prompt(query_text, product.domain, product.product_type)

    service = CosmoService(lm, prompt_builder=prompt_builder)
    assert _handle(service, query.text) == ""
    service.run_batch()
    response = _handle(service, query.text)
    assert response  # now cached
    assert service.cache.stats.hit_rate > 0
    assert service.features.text(query.text) == response


def test_pipeline_reproducible_with_same_seed():
    config = PipelineConfig(
        seed=33,
        world=WorldConfig(seed=33, products_per_domain=12,
                          broad_queries_per_domain=6, specific_queries_per_domain=6),
        cobuy_pairs_per_domain=10,
        searchbuy_records_per_domain=12,
        annotation_budget=80,
        finetune_lm=False,
        expand_with_lm=False,
    )
    first = CosmoPipeline(config).run()
    second = CosmoPipeline(config).run()
    assert len(first.kg) == len(second.kg)
    assert first.quality_ratios == second.quality_ratios
    assert [c.text for c in first.candidates[:50]] == [c.text for c in second.candidates[:50]]
