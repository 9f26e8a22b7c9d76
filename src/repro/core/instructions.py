"""Instruction-data construction (§3.4, Figure 4).

From the annotated candidates we build instruction data covering
**5 task types** across 18 domains and 15 relations:

1. ``generation``          — behavior → typical knowledge text (only
   candidates judged *typical* become demonstrations);
2. ``plausibility``        — behavior + knowledge → yes/no;
3. ``typicality``          — behavior + knowledge → yes/no;
4. ``copurchase``          — two products → would they be co-bought?
5. ``search_relevance``    — query + product → is the product relevant?

Each task has several verbalization templates ("search query:", "user
searched:", ...) so the finetuned model is robust to input format — the
paper's template-diversity trick.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.annotation.schema import AnnotationResult
from repro.behavior.world import World
from repro.core.triples import BehaviorSample, KnowledgeCandidate
from repro.utils.rng import spawn_rng

__all__ = ["InstructionExample", "InstructionDataset", "build_instruction_dataset"]

GENERATION_OVERSAMPLE = 4

TASKS: tuple[str, ...] = (
    "generation", "plausibility", "typicality", "copurchase", "search_relevance",
)

# Input-prefix template variants per behavior side.
_QUERY_PREFIXES = ("search query:", "user searched:", "user input:")
_PRODUCT_PREFIXES = ("product:", "item:", "bought:")
_PAIR_PREFIXES = ("products bought together:", "co purchased items:")


@dataclass(frozen=True)
class InstructionExample:
    """One instruction-tuning record."""

    task: str
    prompt: str
    target: str
    domain: str
    relation: str | None


@dataclass
class InstructionDataset:
    """The assembled instruction corpus with coverage statistics."""

    examples: list[InstructionExample]

    def __len__(self) -> int:
        return len(self.examples)

    def pairs(self) -> list[tuple[str, str]]:
        """(prompt, target) pairs for LM finetuning."""
        return [(example.prompt, example.target) for example in self.examples]

    def coverage(self) -> dict[str, int]:
        """Figure 4 scale-up numbers: domains, relations, tasks, examples."""
        domains = {example.domain for example in self.examples}
        relations = {example.relation for example in self.examples if example.relation}
        tasks = {example.task for example in self.examples}
        return {
            "examples": len(self.examples),
            "domains": len(domains),
            "relations": len(relations),
            "tasks": len(tasks),
        }

    def task_distribution(self) -> Counter:
        return Counter(example.task for example in self.examples)


def _behavior_prompt(sample: BehaviorSample, world: World, rng: np.random.Generator,
                     task: str) -> str:
    """Compact instruction verbalization of one behavior.

    Generation prompts use the canonical behavior fields (query text and
    product types — what the feature store serves); the classification
    tasks keep the noisier full titles so the model stays robust to raw
    product text.
    """
    canonical = task == "generation"
    if sample.behavior == "search-buy":
        query = world.queries.get(sample.query_id)
        product = world.catalog.get(sample.product_ids[0])
        q_prefix = _QUERY_PREFIXES[int(rng.integers(len(_QUERY_PREFIXES)))]
        if canonical:
            return (
                f"domain: {sample.domain} {q_prefix} {query.text} "
                f"type: {product.product_type} task: {task}"
            )
        p_prefix = _PRODUCT_PREFIXES[int(rng.integers(len(_PRODUCT_PREFIXES)))]
        return (
            f"behavior: search buy domain: {sample.domain} "
            f"{q_prefix} {query.text} {p_prefix} {product.title} "
            f"type: {product.product_type} task: {task}"
        )
    product_a = world.catalog.get(sample.product_ids[0])
    product_b = world.catalog.get(sample.product_ids[1])
    if canonical:
        return (
            f"domain: {sample.domain} types: {product_a.product_type} "
            f"and {product_b.product_type} task: {task}"
        )
    pair_prefix = _PAIR_PREFIXES[int(rng.integers(len(_PAIR_PREFIXES)))]
    return (
        f"behavior: co buy domain: {sample.domain} "
        f"{pair_prefix} {product_a.title} and {product_b.title} "
        f"types: {product_a.product_type} and {product_b.product_type} task: {task}"
    )


def build_instruction_dataset(
    world: World,
    candidates: list[KnowledgeCandidate],
    annotations: list[AnnotationResult],
    seed: int = 0,
) -> InstructionDataset:
    """Convert annotated candidates into the 5-task instruction corpus.

    Each generation demonstration is repeated ``GENERATION_OVERSAMPLE``
    times (with a fresh prefix template) so the small student does not
    drown the generation task under the more numerous yes/no tasks.
    """
    if len(candidates) != len(annotations):
        raise ValueError("candidates and annotations must align")
    rng = spawn_rng(seed, "instructions")
    examples: list[InstructionExample] = []

    for candidate, annotation in zip(candidates, annotations):
        relation_name = candidate.relation.value if candidate.relation else None
        # Task 1: generation — typical knowledge becomes a demonstration.
        if annotation.typical and candidate.parsed:
            for _ in range(GENERATION_OVERSAMPLE):
                prompt = _behavior_prompt(candidate.sample, world, rng, "generation")
                examples.append(
                    InstructionExample(
                        task="generation",
                        prompt=prompt,
                        target=candidate.text.rstrip("."),
                        domain=candidate.sample.domain,
                        relation=relation_name,
                    )
                )
        # Tasks 2 & 3: label-prediction from every annotation.
        base = _behavior_prompt(candidate.sample, world, rng, "base")
        base = base.rsplit(" task: base", 1)[0]
        examples.append(
            InstructionExample(
                task="plausibility",
                prompt=f"{base} knowledge: {candidate.text.rstrip('.')} task: plausibility",
                target="yes" if annotation.plausible else "no",
                domain=candidate.sample.domain,
                relation=relation_name,
            )
        )
        examples.append(
            InstructionExample(
                task="typicality",
                prompt=f"{base} knowledge: {candidate.text.rstrip('.')} task: typicality",
                target="yes" if annotation.typical else "no",
                domain=candidate.sample.domain,
                relation=relation_name,
            )
        )

    # Tasks 4 & 5: behavior-level prediction built from the annotated
    # samples plus sampled negatives (§3.4: annotations identified the
    # irrelevant / random pairs).
    samples = [candidate.sample for candidate in candidates]
    examples.extend(_copurchase_examples(world, samples, rng))
    examples.extend(_relevance_examples(world, samples, rng))
    return InstructionDataset(examples=examples)


def _copurchase_examples(world, samples, rng):
    cobuy_samples = [s for s in samples if s.behavior == "co-buy"]
    out: list[InstructionExample] = []
    all_products = world.catalog.all()
    for sample in cobuy_samples:
        product_a = world.catalog.get(sample.product_ids[0])
        product_b = world.catalog.get(sample.product_ids[1])
        label = "yes" if sample.intent_id is not None else "no"
        out.append(
            InstructionExample(
                task="copurchase",
                prompt=(f"domain: {sample.domain} products: {product_a.title} "
                        f"and {product_b.title} task: copurchase"),
                target=label,
                domain=sample.domain,
                relation=None,
            )
        )
        # One sampled negative per positive.
        other = all_products[int(rng.integers(len(all_products)))]
        if other.product_id in sample.product_ids:
            continue
        out.append(
            InstructionExample(
                task="copurchase",
                prompt=(f"domain: {sample.domain} products: {product_a.title} "
                        f"and {other.title} task: copurchase"),
                target="no" if other.domain != sample.domain else "yes"
                if set(product_a.intent_ids) & set(other.intent_ids) else "no",
                domain=sample.domain,
                relation=None,
            )
        )
    return out


def _relevance_examples(world, samples, rng):
    search_samples = [s for s in samples if s.behavior == "search-buy"]
    out: list[InstructionExample] = []
    all_products = world.catalog.all()
    for sample in search_samples:
        query = world.queries.get(sample.query_id)
        product = world.catalog.get(sample.product_ids[0])
        label = "yes" if sample.intent_id is not None else "no"
        out.append(
            InstructionExample(
                task="search_relevance",
                prompt=(f"domain: {sample.domain} query: {query.text} "
                        f"product: {product.title} task: search relevance"),
                target=label,
                domain=sample.domain,
                relation=None,
            )
        )
        # One sampled negative per positive.
        other = all_products[int(rng.integers(len(all_products)))]
        relevant = (
            query.intent_id is not None and query.intent_id in other.intent_ids
        )
        out.append(
            InstructionExample(
                task="search_relevance",
                prompt=(f"domain: {sample.domain} query: {query.text} "
                        f"product: {other.title} task: search relevance"),
                target="yes" if relevant else "no",
                domain=sample.domain,
                relation=None,
            )
        )
    return out
