"""Candidate harvesting: prompts, parsing, rotation."""

from repro.core.generation import CANDIDATES_PER_SAMPLE, build_prompt, generate_candidates
from repro.core.relations import SEED_RELATIONS
from repro.llm import TeacherLLM


def test_build_prompt_dispatches_by_behavior(world, pipeline_result):
    samples = pipeline_result.samples
    cobuy = next(s for s in samples if s.behavior == "co-buy")
    searchbuy = next(s for s in samples if s.behavior == "search-buy")
    assert build_prompt(world, cobuy).behavior == "co-buy"
    assert build_prompt(world, searchbuy).behavior == "search-buy"


def test_candidates_per_sample(pipeline_result, world):
    samples = pipeline_result.samples[:10]
    teacher = TeacherLLM(world, seed=1)
    candidates = generate_candidates(world, teacher, samples, seed=1)
    assert len(candidates) == len(samples) * CANDIDATES_PER_SAMPLE


def test_most_candidates_parse(pipeline_result):
    parsed = sum(c.parsed for c in pipeline_result.candidates)
    assert parsed / len(pipeline_result.candidates) > 0.7


def test_candidate_ids_unique(pipeline_result):
    ids = [c.candidate_id for c in pipeline_result.candidates]
    assert len(ids) == len(set(ids))


def test_seed_relation_rotation(world, pipeline_result):
    samples = pipeline_result.samples[: len(SEED_RELATIONS)]
    prompts = [
        build_prompt(world, sample, seed_relation=SEED_RELATIONS[i % 4])
        for i, sample in enumerate(samples)
    ]
    questions = {p.prompt_text.split("Question: ")[1].split("\n")[0] for p in prompts}
    assert len(questions) == 4


def test_truth_preserved_on_candidates(pipeline_result):
    for candidate in pipeline_result.candidates[:100]:
        assert candidate.truth is not None
        assert candidate.truth.quality
