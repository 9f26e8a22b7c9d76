"""End-to-end COSMO pipeline orchestration (Figure 2).

``CosmoPipeline.run()`` executes the paper's offline knowledge-generation
flow: simulate behaviors → sample representative pairs → harvest teacher
candidates → refine → annotation sampling (Eq. 2) → human-in-the-loop
annotation → critic training → instruction-data construction → COSMO-LM
finetuning → KG assembly with COSMO-LM expansion.  The returned
:class:`PipelineResult` carries every intermediate artifact the
evaluation benches need (Table 3/4 statistics, critic accuracy, latency
accounting, the KG itself).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.annotation.annotators import AnnotatorPool
from repro.annotation.audit import AuditReport, audit_annotations
from repro.annotation.schema import AnnotationResult
from repro.behavior.cobuy import CoBuyLog, simulate_cobuy
from repro.behavior.searchbuy import SearchBuyLog, simulate_searchbuy
from repro.behavior.world import World, WorldConfig
from repro.core.annotation_sampling import sample_for_annotation
from repro.core.cosmo_lm import CosmoLM, CosmoLMConfig
from repro.core.critic import CriticClassifier
from repro.core.filtering import FilterReport, KnowledgeFilter
from repro.core.generation import generate_candidates
from repro.core.instructions import InstructionDataset, build_instruction_dataset
from repro.core.kg import KnowledgeGraph
from repro.core.relations import parse_predicate
from repro.core.sampling import sample_cobuy, sample_products, sample_searchbuy
from repro.core.triples import BehaviorSample, KnowledgeCandidate, KnowledgeTriple
from repro.embeddings.encoder import TextEncoder
from repro.llm.interface import LatencyModel
from repro.llm.teacher import TeacherLLM
from repro.obs.tracing import Tracer
from repro.utils.rng import spawn_rng

__all__ = ["PipelineConfig", "PipelineResult", "CosmoPipeline"]

_EXPAND_CHUNK = 64      # prompts per COSMO-LM decode batch during expansion


@dataclass(frozen=True)
class PipelineConfig:
    """All scale and hyperparameter knobs for one pipeline run."""

    seed: int = 0
    world: WorldConfig = field(default_factory=WorldConfig)
    cobuy_pairs_per_domain: int = 120
    searchbuy_records_per_domain: int = 150
    annotation_budget: int = 600  # split evenly across the two behaviors
    lm: CosmoLMConfig = field(default_factory=CosmoLMConfig)
    finetune_lm: bool = True
    expand_with_lm: bool = True

    @classmethod
    def at_scale(cls, seed: int, scale: float, lm_epochs: int) -> "PipelineConfig":
        """The command line's sizing: world and sampling budgets scaled
        together (1.0 = default world sizes)."""
        return cls(
            seed=seed,
            world=WorldConfig(seed=seed).scaled(scale),
            cobuy_pairs_per_domain=max(10, int(120 * scale)),
            searchbuy_records_per_domain=max(10, int(150 * scale)),
            annotation_budget=max(100, int(1500 * scale)),
            lm=CosmoLMConfig(epochs=lm_epochs),
        )


@dataclass
class PipelineResult:
    """Every artifact of one pipeline run."""

    config: PipelineConfig
    world: World
    cobuy: CoBuyLog
    searchbuy: SearchBuyLog
    samples: list[BehaviorSample]
    candidates: list[KnowledgeCandidate]
    filter_report: FilterReport
    filtered: list[KnowledgeCandidate]
    annotated_candidates: list[KnowledgeCandidate]
    annotations: list[AnnotationResult]
    audit: AuditReport
    quality_ratios: dict[str, dict[str, float]]
    critic: CriticClassifier
    critic_accuracy: dict[str, float]
    instruction_dataset: InstructionDataset
    cosmo_lm: CosmoLM | None
    kg: KnowledgeGraph
    teacher_latency: LatencyModel
    lm_latency: LatencyModel

    # Table 3 bookkeeping --------------------------------------------------
    def behavior_pair_counts(self) -> Counter:
        """(domain, behavior) → sampled behavior pairs."""
        return Counter((s.domain, s.behavior) for s in self.samples)

    def annotation_counts(self) -> Counter:
        """(domain, behavior) → annotated candidates."""
        return Counter(
            (c.sample.domain, c.sample.behavior) for c in self.annotated_candidates
        )


class CosmoPipeline:
    """Drives the full offline knowledge-generation flow.

    Observability: per-stage spans land on ``tracer`` (timed on simulated
    LLM seconds — the run's only notion of elapsed time — so traces
    replay bit-identically), each carrying its stage's item count as a
    span attribute.
    """

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self.tracer = Tracer()

    # ------------------------------------------------------------------
    def run(self) -> PipelineResult:
        cfg = self.config
        teacher_latency = LatencyModel()
        lm_latency = LatencyModel()

        # The pipeline's deterministic timebase: simulated LLM seconds
        # accumulated so far.  Stages that never touch a model have zero
        # duration by construction; LLM-bound stages show their true
        # simulated cost.
        def sim_clock() -> float:
            return teacher_latency.total_simulated_s + lm_latency.total_simulated_s

        self.tracer.clock = sim_clock
        with self.tracer.span("pipeline.run", seed=cfg.seed):
            return self._run(cfg, teacher_latency, lm_latency)

    def _run(self, cfg: PipelineConfig, teacher_latency: LatencyModel,
             lm_latency: LatencyModel) -> PipelineResult:
        world = World(cfg.world)

        # 1. Behavior simulation (the raw logs).
        with self.tracer.span("pipeline.behavior_simulation") as span:
            cobuy = simulate_cobuy(
                world, pairs_per_domain=cfg.cobuy_pairs_per_domain, seed=cfg.seed
            )
            searchbuy = simulate_searchbuy(
                world, records_per_domain=cfg.searchbuy_records_per_domain, seed=cfg.seed
            )
            span.set_attribute("cobuy_pairs", len(cobuy))
            span.set_attribute("searchbuy_records", len(searchbuy))

        # 2. Representative behavior sampling (§3.2.1).
        with self.tracer.span("pipeline.behavior_sampling") as span:
            selected = sample_products(world, cobuy, searchbuy)
            samples = sample_cobuy(world, cobuy, selected)
            samples += sample_searchbuy(world, searchbuy)
            span.set_attribute("samples", len(samples))

        # 3. Teacher harvesting (§3.2.2).
        with self.tracer.span("pipeline.teacher_generation") as span:
            teacher = TeacherLLM(world, latency=teacher_latency, seed=cfg.seed)
            candidates = generate_candidates(world, teacher, samples, seed=cfg.seed)
            span.set_attribute("candidates", len(candidates))

        # 4. Refinement (§3.3.1).
        with self.tracer.span("pipeline.filtering") as span:
            encoder = TextEncoder(seed=cfg.seed)
            knowledge_filter = KnowledgeFilter(encoder)
            filtered, filter_report = knowledge_filter.apply(candidates)
            span.set_attribute("kept", len(filtered))

        # 5. Annotation sampling (Eq. 2) + human-in-the-loop labeling.
        with self.tracer.span("pipeline.annotation") as span:
            per_behavior_budget = cfg.annotation_budget // 2
            annotated_candidates: list[KnowledgeCandidate] = []
            for behavior in ("co-buy", "search-buy"):
                pool = [c for c in filtered if c.sample.behavior == behavior]
                annotated_candidates += sample_for_annotation(
                    pool,
                    cobuy,
                    searchbuy,
                    budget=per_behavior_budget,
                    seed=cfg.seed,
                )
            annotators = AnnotatorPool(seed=cfg.seed)
            annotations = annotators.annotate_batch(
                [(c.candidate_id, c.truth.quality) for c in annotated_candidates]
            )
            qualities = {c.candidate_id: c.truth.quality for c in annotated_candidates}
            audit = audit_annotations(annotations, qualities, seed=cfg.seed)
            quality_ratios = self._quality_ratios(annotated_candidates, annotations)
            span.set_attribute("annotated", len(annotations))

        # 6. Critic training and population (§3.3.2).  ``annotated_candidates``
        # is ordered co-buy-then-search-buy, so a positional 85/15 split would
        # evaluate on a single behavior; shuffle with the run seed first.
        with self.tracer.span("pipeline.critic") as span:
            critic = CriticClassifier(encoder, seed=cfg.seed)
            order = spawn_rng(cfg.seed, "critic-split").permutation(len(annotated_candidates))
            shuffled_candidates = [annotated_candidates[i] for i in order]
            shuffled_annotations = [annotations[i] for i in order]
            split = max(1, int(len(shuffled_candidates) * 0.85))
            critic.fit(shuffled_candidates[:split], shuffled_annotations[:split])
            if split < len(shuffled_candidates):
                critic_accuracy = critic.accuracy(
                    shuffled_candidates[split:], shuffled_annotations[split:]
                )
            else:
                critic_accuracy = {"plausibility": float("nan"), "typicality": float("nan")}
            refined = critic.populate(filtered)
            span.set_attribute("refined", len(refined))

        # 7. Instruction data (§3.4) and COSMO-LM finetuning.
        with self.tracer.span("pipeline.instruction_build") as span:
            instruction_dataset = build_instruction_dataset(
                world, annotated_candidates, annotations, seed=cfg.seed
            )
            span.set_attribute("examples", len(instruction_dataset))

        cosmo_lm: CosmoLM | None = None
        if cfg.finetune_lm and len(instruction_dataset):
            with self.tracer.span("pipeline.lm_finetune") as span:
                cosmo_lm = CosmoLM(config=cfg.lm, seed=cfg.seed, latency=lm_latency)
                cosmo_lm.finetune(instruction_dataset)
                span.set_attribute("examples", len(instruction_dataset))

        # 8. KG assembly: refined teacher knowledge + COSMO-LM expansion.
        with self.tracer.span("pipeline.kg_assembly") as span:
            kg = KnowledgeGraph()
            kg.extend([c.to_triple() for c in refined])
            if cosmo_lm is not None and cfg.expand_with_lm:
                kg.extend(self._expand(world, cosmo_lm, critic, samples))
            span.set_attribute("triples", len(kg))

        return PipelineResult(
            config=cfg,
            world=world,
            cobuy=cobuy,
            searchbuy=searchbuy,
            samples=samples,
            candidates=candidates,
            filter_report=filter_report,
            filtered=filtered,
            annotated_candidates=annotated_candidates,
            annotations=annotations,
            audit=audit,
            quality_ratios=quality_ratios,
            critic=critic,
            critic_accuracy=critic_accuracy,
            instruction_dataset=instruction_dataset,
            cosmo_lm=cosmo_lm,
            kg=kg,
            teacher_latency=teacher_latency,
            lm_latency=lm_latency,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _quality_ratios(
        candidates: list[KnowledgeCandidate],
        annotations: list[AnnotationResult],
    ) -> dict[str, dict[str, float]]:
        """Table 4: plausibility/typicality ratios per behavior."""
        totals: Counter = Counter()
        plausible: Counter = Counter()
        typical: Counter = Counter()
        for candidate, annotation in zip(candidates, annotations):
            behavior = candidate.sample.behavior
            totals[behavior] += 1
            plausible[behavior] += int(annotation.plausible)
            typical[behavior] += int(annotation.typical)
        return {
            behavior: {
                "plausibility": plausible[behavior] / totals[behavior],
                "typicality": typical[behavior] / totals[behavior],
            }
            for behavior in totals
        }

    def _expand(
        self,
        world: World,
        cosmo_lm: CosmoLM,
        critic: CriticClassifier,
        samples: list[BehaviorSample],
    ) -> list[KnowledgeTriple]:
        """COSMO-LM expansion: generate knowledge for every sampled
        behavior, score with the critic, keep the plausible edges."""
        triples: list[KnowledgeTriple] = []
        for start in range(0, len(samples), _EXPAND_CHUNK):
            batch = samples[start : start + _EXPAND_CHUNK]
            prompts = [cosmo_lm.prompt_for_sample(world, s) for s in batch]
            generations = cosmo_lm.generate_batch(prompts).require()
            candidates = []
            for sample, generation in zip(batch, generations):
                parsed = parse_predicate(generation.text)
                if parsed is None:
                    continue
                relation, tail = parsed
                candidates.append(
                    KnowledgeCandidate(
                        candidate_id=f"lm-{sample.sample_id}",
                        sample=sample,
                        text=generation.text,
                        relation=relation,
                        tail=tail,
                    )
                )
            kept = critic.populate(candidates)
            triples.extend(c.to_triple() for c in kept)
        return triples
