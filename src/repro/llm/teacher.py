"""The simulated teacher LLM (stand-in for OPT-30b/175b, §3.2.2).

Given a QA-style behavior prompt, the teacher emits knowledge-candidate
continuations with a calibrated quality mix: *typical* explanations (the
behavior's true latent intent verbalized through a relation template),
*plausible-but-not-typical* ones, the paper's documented failure modes —
generic intentions ("because they like them"), paraphrases of the product
title, one-sided explanations for co-buy pairs, implausible knowledge —
and truncated generations.  Each output carries a hidden
:class:`~repro.llm.interface.GenerationTruth` read only by the annotation
oracle, never by the pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.behavior.world import World
from repro.catalog.vocab import GENERIC_TAILS
from repro.core.prompts import BehaviorPrompt
from repro.core.relations import RELATION_SPECS, Relation, verbalize
from repro.llm.interface import Generation, GenerationBatch, GenerationTruth, LatencyModel
from repro.utils.rng import spawn_rng
from repro.utils.textproc import tokenize_words

__all__ = ["TeacherLLM", "QUALITY_MIX"]

# Per-behavior quality mixtures, calibrated so annotation recovers the
# Table 4 shape (search-buy ≈35% typical; co-buy notably lower because the
# teacher tends to explain only one of the two co-bought products).
QUALITY_MIX: dict[str, dict[str, float]] = {
    "search-buy": {
        "typical": 0.35, "plausible": 0.20, "generic": 0.15,
        "paraphrase": 0.12, "implausible": 0.10, "incomplete": 0.08,
    },
    "co-buy": {
        "typical": 0.10, "plausible": 0.15, "one_sided": 0.33,
        "generic": 0.15, "paraphrase": 0.10, "implausible": 0.10,
        "incomplete": 0.07,
    },
}


class TeacherLLM:
    """Quality-mixture generator conditioned on world ground truth."""

    name = "opt-30b-sim"
    parameter_count = 30_000_000_000

    def __init__(
        self,
        world: World,
        latency: LatencyModel | None = None,
        seed: int = 0,
    ):
        self.world = world
        self.latency = latency or LatencyModel()
        self._rng = spawn_rng(seed, f"teacher:{self.name}")

    # ------------------------------------------------------------------
    def generate_for(self, prompt: BehaviorPrompt, num_candidates: int = 3) -> list[Generation]:
        """Emit ``num_candidates`` knowledge candidates for a behavior."""
        mix = QUALITY_MIX[prompt.behavior]
        qualities = list(mix)
        probabilities = np.array([mix[q] for q in qualities])
        outputs: list[Generation] = []
        for _ in range(num_candidates):
            drawn = qualities[int(self._rng.choice(len(qualities), p=probabilities))]
            text, intent_id, actual = self._compose(prompt, drawn)
            tokens = len(tokenize_words(text))
            latency = self.latency.charge(self.parameter_count, tokens)
            outputs.append(
                Generation(
                    text=text,
                    tokens=tokens,
                    latency_s=latency,
                    # The oracle records what was actually composed: a
                    # drawn "typical" degrades when the behavior has no
                    # shared intent to be typical about.
                    truth=GenerationTruth(quality=actual, intent_id=intent_id),
                )
            )
        return outputs

    def generate_batch(self, prompts: list[str]) -> GenerationBatch:
        """:class:`~repro.llm.interface.KnowledgeGenerator` entrypoint.

        Lets the serving bench mount the raw teacher behind
        :class:`~repro.serving.deployment.CosmoService` without an
        adapter — the expensive comparison arm of Figure 5.
        """
        return GenerationBatch(generations=[self._continue(prompt) for prompt in prompts])

    def _continue(self, prompt: str) -> Generation:
        """Raw continuation of an unstructured prompt."""
        tail = GENERIC_TAILS[int(self._rng.integers(len(GENERIC_TAILS)))]
        text = f"it is {tail}."
        tokens = len(tokenize_words(text))
        return Generation(text=text, tokens=tokens,
                          latency_s=self.latency.charge(self.parameter_count, tokens),
                          truth=GenerationTruth(quality="generic"))

    # ------------------------------------------------------------------
    # Quality-class compositors
    # ------------------------------------------------------------------
    def _compose(self, prompt: BehaviorPrompt, quality: str) -> tuple[str, str | None, str]:
        """Compose text for the drawn class; returns (text, intent, actual).

        ``actual`` may differ from the drawn class when the behavior
        cannot support it (e.g. a noise pair has nothing typical to say).
        """
        if quality == "typical":
            return self._typical(prompt)
        if quality == "plausible":
            return self._plausible(prompt)
        if quality == "one_sided":
            return self._one_sided(prompt)
        if quality == "generic":
            tail = GENERIC_TAILS[int(self._rng.integers(len(GENERIC_TAILS)))]
            return f"it is {tail}.", None, "generic"
        if quality == "paraphrase":
            return self._paraphrase(prompt)
        if quality == "implausible":
            return self._implausible(prompt)
        if quality == "incomplete":
            return self._incomplete(prompt)
        raise ValueError(f"unknown quality class {quality!r}")

    def _render(self, relation: Relation, tail: str) -> str:
        return f"{verbalize(relation, tail)}."

    def _relation_for(self, intent, prompt: BehaviorPrompt) -> Relation:
        """Honor the prompt's seed-relation hint when types allow it."""
        if prompt.seed_relation is None:
            return intent.relation
        spec = RELATION_SPECS[intent.relation]
        for relation, candidate in RELATION_SPECS.items():
            if candidate.seed == prompt.seed_relation and candidate.tail_type == spec.tail_type:
                return relation
        return intent.relation

    def _typical(self, prompt: BehaviorPrompt) -> tuple[str, str | None, str]:
        intent_id = prompt.intent_id
        if intent_id is None and prompt.behavior == "co-buy":
            intent_id = self._shared_intent(prompt)
        if intent_id is None:
            # A noise behavior has no true explanation.  The teacher
            # still answers — with knowledge about the product alone,
            # which is one-sided w.r.t. the behavior.
            product = self.world.catalog.get(prompt.product_ids[-1])
            if not product.intent_ids:
                tail = GENERIC_TAILS[int(self._rng.integers(len(GENERIC_TAILS)))]
                return f"it is {tail}.", None, "generic"
            intent = self.world.intents.get(
                product.intent_ids[int(self._rng.integers(len(product.intent_ids)))]
            )
            return self._render(intent.relation, intent.tail), intent.intent_id, "one_sided"
        intent = self.world.intents.get(intent_id)
        relation = self._relation_for(intent, prompt)
        return self._render(relation, intent.tail), intent_id, "typical"

    def _plausible(self, prompt: BehaviorPrompt) -> tuple[str, str | None, str]:
        """True of the product, but not the reason for *this* behavior."""
        product = self.world.catalog.get(prompt.product_ids[-1])
        others = [i for i in product.intent_ids if i != prompt.intent_id]
        if not others:
            # Single-intent products leave nothing merely plausible to
            # say; co-buy degrades to a one-sided explanation instead of
            # inflating the typical ratio.
            if prompt.behavior == "co-buy":
                return self._one_sided(prompt)
            return self._typical(prompt)
        intent = self.world.intents.get(others[int(self._rng.integers(len(others)))])
        return self._render(intent.relation, intent.tail), intent.intent_id, "plausible"

    def _one_sided(self, prompt: BehaviorPrompt) -> tuple[str, str | None, str]:
        """Explains one co-bought product, ignoring the pair (§3.4).

        Syntactically these read like ordinary knowledge — the defect is
        semantic (the intent holds for product A but is not shared with
        product B), so only annotators/critics can catch it, exactly as
        the paper observes.
        """
        product = self.world.catalog.get(prompt.product_ids[0])
        partner = self.world.catalog.get(prompt.product_ids[-1])
        unshared = [i for i in product.intent_ids if i not in partner.intent_ids]
        if not unshared:
            return self._typical(prompt)
        intent = self.world.intents.get(
            unshared[int(self._rng.integers(len(unshared)))]
        )
        return self._render(intent.relation, intent.tail), intent.intent_id, "one_sided"

    def _paraphrase(self, prompt: BehaviorPrompt) -> tuple[str, str | None, str]:
        """Echo of the behavior context (the "Apple watch is a watch" mode)."""
        product = self.world.catalog.get(prompt.product_ids[-1])
        if self._rng.random() < 0.5:
            return f"it is a type of {product.product_type}.", None, "paraphrase"
        return f"it is a type of {product.title}.", None, "paraphrase"

    def _implausible(self, prompt: BehaviorPrompt) -> tuple[str, str | None, str]:
        """Knowledge from an unrelated domain — fluent but wrong."""
        foreign = [
            intent for intent in self.world.intents.all()
            if intent.domain != prompt.domain
        ]
        intent = foreign[int(self._rng.integers(len(foreign)))]
        return self._render(intent.relation, intent.tail), intent.intent_id, "implausible"

    def _incomplete(self, prompt: BehaviorPrompt) -> tuple[str, str | None, str]:
        """A typical generation truncated mid-phrase (no terminal period)."""
        text, intent_id, _ = self._typical(prompt)
        words = text.rstrip(".").split()
        cut = max(2, int(len(words) * float(self._rng.uniform(0.3, 0.7))))
        return " ".join(words[:cut]), intent_id, "incomplete"

    def _shared_intent(self, prompt: BehaviorPrompt) -> str | None:
        """Ground-truth intent shared by all head products, if any."""
        pools = [set(self.world.catalog.get(pid).intent_ids) for pid in prompt.product_ids]
        shared = set.intersection(*pools) if pools else set()
        if not shared:
            return None
        ordered = sorted(shared)
        return ordered[int(self._rng.integers(len(ordered)))]
