"""The latent purchase-intent model behind all simulated behaviors.

The paper's premise (§1, Figure 1) is that user behaviors are *caused* by
latent intentions ("attend a wedding party" → "buy normal clothes").  Our
world model makes this causal structure explicit: an :class:`Intent` is a
ground-truth (domain, relation, tail) the behavior simulators condition
on.  The pipeline under test never sees intents directly — it only sees
the behaviors and the teacher LLM's noisy verbalizations — which is what
makes knowledge extraction a real inference problem here.

Activities additionally carry a coarse→fine hierarchy ("camping" →
"winter camping"), the structure §4.3 organizes navigation around
(Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.catalog.domains import Domain, all_domains
from repro.catalog.vocab import ACTIVITY_MODIFIERS
from repro.core.relations import Relation, TailType, relations_for_tail_type
from repro.utils.rng import spawn_rng

__all__ = ["Intent", "IntentSpace"]

# Latent embedding dimensionality for intents (behavior models only).
INTENT_DIM = 16

# How many modified variants each base activity spawns.
_VARIANTS_PER_ACTIVITY = 2


@dataclass(frozen=True)
class Intent:
    """A ground-truth purchase intention.

    ``tail`` is the natural-language phrase ("winter camping"),
    ``relation`` the COSMO relation it instantiates, ``parent`` the
    coarse intent id for refined activities (None for base intents).
    """

    intent_id: str
    domain: str
    relation: Relation
    tail_type: TailType
    tail: str
    parent: str | None = None


class IntentSpace:
    """All intents of the world, with per-domain and hierarchy indexes."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._intents: dict[str, Intent] = {}
        self._by_domain: dict[str, list[Intent]] = {}
        self._children: dict[str, list[str]] = {}
        self._vectors: dict[str, np.ndarray] = {}
        self._build()

    # ------------------------------------------------------------------
    def _add(self, intent: Intent, rng: np.random.Generator) -> None:
        self._intents[intent.intent_id] = intent
        self._by_domain.setdefault(intent.domain, []).append(intent)
        self._vectors[intent.intent_id] = rng.normal(size=INTENT_DIM)
        if intent.parent is not None:
            self._children.setdefault(intent.parent, []).append(intent.intent_id)

    def _build(self) -> None:
        rng = spawn_rng(self.seed, "intent-space")
        for domain_index, domain in enumerate(all_domains()):
            counter = 0
            for tail_type, phrases in self._iter_banks(domain):
                relations = relations_for_tail_type(tail_type)
                for phrase_index, phrase in enumerate(phrases):
                    relation = relations[phrase_index % len(relations)]
                    base_id = f"i{domain_index:02d}-{counter:03d}"
                    counter += 1
                    base = Intent(
                        intent_id=base_id,
                        domain=domain.name,
                        relation=relation,
                        tail_type=tail_type,
                        tail=phrase,
                    )
                    self._add(base, rng)
                    if tail_type == TailType.ACTIVITY:
                        counter = self._add_variants(
                            base, domain_index, counter, rng
                        )

    def _add_variants(
        self,
        base: Intent,
        domain_index: int,
        counter: int,
        rng: np.random.Generator,
    ) -> int:
        """Spawn refined activity intents, e.g. camping → winter camping."""
        modifiers = rng.choice(
            len(ACTIVITY_MODIFIERS), size=_VARIANTS_PER_ACTIVITY, replace=False
        )
        for modifier_index in modifiers:
            modifier = ACTIVITY_MODIFIERS[int(modifier_index)]
            variant = Intent(
                intent_id=f"i{domain_index:02d}-{counter:03d}",
                domain=base.domain,
                relation=base.relation,
                tail_type=base.tail_type,
                tail=f"{modifier} {base.tail}",
                parent=base.intent_id,
            )
            counter += 1
            # Child vectors stay close to the parent so refined intents
            # behave like specializations in embedding space.
            child_vec = self._vectors[base.intent_id] + 0.3 * rng.normal(size=INTENT_DIM)
            self._intents[variant.intent_id] = variant
            self._by_domain.setdefault(variant.domain, []).append(variant)
            self._vectors[variant.intent_id] = child_vec
            self._children.setdefault(base.intent_id, []).append(variant.intent_id)
        return counter

    @staticmethod
    def _iter_banks(domain: Domain):
        for tail_type in TailType:
            phrases = domain.tail_phrases(tail_type)
            if tail_type == TailType.CONCEPT:
                # Product-type tails are IS_A knowledge about the product
                # itself; keep a couple per domain to exercise IS_A/USED_AS.
                phrases = phrases[:3]
            if phrases:
                yield tail_type, phrases

    # ------------------------------------------------------------------
    # Lookup API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._intents)

    def __contains__(self, intent_id: str) -> bool:
        return intent_id in self._intents

    def get(self, intent_id: str) -> Intent:
        return self._intents[intent_id]

    def all(self) -> list[Intent]:
        return list(self._intents.values())

    def for_domain(self, domain: str) -> list[Intent]:
        return list(self._by_domain.get(domain, []))

    def vector(self, intent_id: str) -> np.ndarray:
        """The latent embedding used by behavior simulators."""
        return self._vectors[intent_id]

    def children(self, intent_id: str) -> list[Intent]:
        """Refined variants of a coarse intent (Figure 8 hierarchy)."""
        return [self._intents[i] for i in self._children.get(intent_id, [])]

    def roots(self) -> list[Intent]:
        """Base (unrefined) intents."""
        return [intent for intent in self._intents.values() if intent.parent is None]

    def similarity(self, intent_a: str, intent_b: str) -> float:
        """Cosine similarity between two latent intent vectors."""
        a, b = self._vectors[intent_a], self._vectors[intent_b]
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))
