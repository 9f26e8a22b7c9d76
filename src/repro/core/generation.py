"""Knowledge-candidate harvesting from the teacher LLM (§3.2.2).

Builds the QA prompt for each sampled behavior, asks the teacher for a
handful of continuations, and parses each into a (relation, tail) via the
predicate templates.  Unparseable generations are kept as candidates with
``relation=None`` so the refinement stage can count (and drop) them.
"""

from __future__ import annotations

from repro.behavior.world import World
from repro.core.prompts import BehaviorPrompt, cobuy_prompt, searchbuy_prompt
from repro.core.relations import SEED_RELATIONS, parse_predicate
from repro.core.triples import BehaviorSample, KnowledgeCandidate
from repro.llm.teacher import TeacherLLM
from repro.utils.rng import spawn_rng

__all__ = ["build_prompt", "generate_candidates"]

CANDIDATES_PER_SAMPLE = 3       #: teacher continuations harvested per behavior


def build_prompt(
    world: World,
    sample: BehaviorSample,
    seed_relation: str | None = None,
) -> BehaviorPrompt:
    """Render the Figure 3 QA prompt for one behavior sample."""
    if sample.behavior == "co-buy":
        product_a = world.catalog.get(sample.product_ids[0])
        product_b = world.catalog.get(sample.product_ids[1])
        return cobuy_prompt(
            product_a.title,
            product_b.title,
            sample.domain,
            (product_a.product_id, product_b.product_id),
            seed_relation=seed_relation,
            intent_id=sample.intent_id,
        )
    query = world.queries.get(sample.query_id)
    product = world.catalog.get(sample.product_ids[0])
    return searchbuy_prompt(
        query.text,
        product.title,
        sample.domain,
        product.product_id,
        query.query_id,
        seed_relation=seed_relation,
        intent_id=sample.intent_id,
    )


def generate_candidates(
    world: World,
    teacher: TeacherLLM,
    samples: list[BehaviorSample],
    seed: int = 0,
) -> list[KnowledgeCandidate]:
    """Harvest ``CANDIDATES_PER_SAMPLE`` raw knowledge candidates for
    every behavior sample, cycling the four seed relations across samples
    (the paper prompts with each to diversify generations)."""
    rng = spawn_rng(seed, "generation")
    candidates: list[KnowledgeCandidate] = []
    for index, sample in enumerate(samples):
        seed_relation = SEED_RELATIONS[index % len(SEED_RELATIONS)]
        prompt = build_prompt(world, sample, seed_relation=seed_relation)
        for gen_index, generation in enumerate(
            teacher.generate_for(prompt, num_candidates=CANDIDATES_PER_SAMPLE)
        ):
            parsed = parse_predicate(generation.text)
            relation, tail = parsed if parsed else (None, None)
            candidates.append(
                KnowledgeCandidate(
                    candidate_id=f"kc-{sample.sample_id}-{gen_index}",
                    sample=sample,
                    text=generation.text,
                    relation=relation,
                    tail=tail,
                    truth=generation.truth,
                )
            )
    rng.shuffle(candidates)
    return candidates
