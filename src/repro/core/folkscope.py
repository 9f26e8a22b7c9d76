"""FolkScope baseline (Yu et al. 2023) — the system COSMO extends.

The paper positions COSMO against FolkScope (§2, Table 1): FolkScope
distills intention knowledge from an LLM for **co-buy pairs only**, in
**two domains**, keeps the raw ConceptNet-style relations, and serves
knowledge by running the full *teacher + critic* pipeline per behavior —
no instruction-tuned student, so inference cost stays at LLM scale.

This module implements that pipeline faithfully as a comparison baseline
so the COSMO-vs-FolkScope bench can measure what each extension buys:
domain/behavior coverage, relation taxonomy, and serving cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.annotation.annotators import AnnotatorPool
from repro.behavior.cobuy import simulate_cobuy
from repro.behavior.world import World, WorldConfig
from repro.core.critic import CriticClassifier
from repro.core.filtering import KnowledgeFilter
from repro.core.generation import generate_candidates
from repro.core.kg import KnowledgeGraph
from repro.core.sampling import sample_cobuy, sample_products
from repro.core.triples import KnowledgeCandidate
from repro.embeddings.encoder import TextEncoder
from repro.llm.interface import LatencyModel
from repro.llm.teacher import TeacherLLM

__all__ = ["FolkScopeConfig", "FolkScopeResult", "FolkScopePipeline"]

# FolkScope covers two domains (clothing and electronics in the paper).
FOLKSCOPE_DOMAINS: tuple[str, str] = ("Clothing, Shoes & Jewelry", "Electronics")
ANNOTATION_BUDGET = 600


@dataclass(frozen=True)
class FolkScopeConfig:
    """Scale knobs for the baseline pipeline."""

    seed: int = 0
    world: WorldConfig = field(default_factory=WorldConfig)
    cobuy_pairs_per_domain: int = 120


@dataclass
class FolkScopeResult:
    """Artifacts of one FolkScope run."""

    config: FolkScopeConfig
    world: World
    kg: KnowledgeGraph
    candidates: list[KnowledgeCandidate]
    annotated: int
    teacher_latency: LatencyModel

    def serving_cost_per_behavior(self) -> float:
        """Simulated seconds of LLM inference per behavior served.

        FolkScope has no student: serving a *new* behavior requires a
        fresh teacher generation (plus critic scoring, which is cheap),
        so the cost is the teacher's per-candidate latency.
        """
        if not self.candidates:
            return 0.0
        return self.teacher_latency.total_simulated_s / len(self.candidates)


class FolkScopePipeline:
    """Teacher + critic pipeline over co-buy pairs in two domains."""

    def __init__(self, config: FolkScopeConfig | None = None):
        self.config = config or FolkScopeConfig()

    def run(self, world: World | None = None) -> FolkScopeResult:
        """Execute the baseline; optionally reuse an existing world."""
        cfg = self.config
        world = world or World(cfg.world)
        teacher_latency = LatencyModel()

        cobuy = simulate_cobuy(world, pairs_per_domain=cfg.cobuy_pairs_per_domain,
                               seed=cfg.seed)
        # Restrict to FolkScope's two domains and co-buy only.
        selected = sample_products(world, cobuy, _EmptySearchLog(), 0.8)
        samples = [
            s for s in sample_cobuy(world, cobuy, selected)
            if s.domain in FOLKSCOPE_DOMAINS
        ]
        teacher = TeacherLLM(world, latency=teacher_latency, seed=cfg.seed)
        candidates = generate_candidates(world, teacher, samples, seed=cfg.seed)
        encoder = TextEncoder(seed=cfg.seed)
        filtered, _ = KnowledgeFilter(encoder).apply(candidates)

        annotated = filtered[:ANNOTATION_BUDGET]
        annotations = AnnotatorPool(seed=cfg.seed).annotate_batch(
            [(c.candidate_id, c.truth.quality) for c in annotated]
        )
        critic = CriticClassifier(encoder, seed=cfg.seed)
        critic.fit(annotated, annotations)
        kept = critic.populate(filtered)

        kg = KnowledgeGraph()
        kg.extend(c.to_triple() for c in kept)
        return FolkScopeResult(
            config=cfg,
            world=world,
            kg=kg,
            candidates=candidates,
            annotated=len(annotated),
            teacher_latency=teacher_latency,
        )


class _EmptySearchLog:
    """Null search-buy log: FolkScope ignores search behaviors."""

    records: list = []

    def product_degree(self, product_id: str) -> int:
        return 0

    def query_engagement(self, query_id: str) -> tuple[int, int]:
        return 0, 0

    def purchase_rate(self, query_id: str) -> float:
        return 0.0
