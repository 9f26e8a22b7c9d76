"""Incremental knowledge refresh: mini-batches of behaviors → snapshots.

:class:`KnowledgeRefresher` reuses the offline pipeline's stages —
candidate generation (§3.2.2), refinement filtering (§3.3.1) and critic
scoring (§3.3.2) — but over a *mini-batch* of new behavior samples, and
merges the survivors into the parent snapshot instead of rebuilding the
world.  Each round is frozen via
:func:`~repro.refresh.snapshot.build_snapshot`, so the result is a
lineage of immutable versions the rollout controller can walk.

Per-round LLM cost is bounded (the E-CARE motivation): with
``llm_call_budget`` set, samples past the budget are *deferred*, not
dropped — the report says how many, and the caller feeds them to the
next round.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.behavior.world import World
from repro.core.critic import CriticClassifier
from repro.core.filtering import KnowledgeFilter
from repro.core.generation import CANDIDATES_PER_SAMPLE, generate_candidates
from repro.core.kg import KnowledgeGraph
from repro.core.triples import BehaviorSample, KnowledgeCandidate
from repro.llm.teacher import TeacherLLM
from repro.refresh.snapshot import KgSnapshot, build_snapshot

__all__ = ["RefreshConfig", "RefreshReport", "KnowledgeRefresher"]


@dataclass(frozen=True)
class RefreshConfig:
    """Seed and cost bound for one refresher."""

    seed: int
    #: Max teacher generations per round (None = unbounded).  Samples
    #: whose generations would exceed it are deferred to the next round.
    llm_call_budget: int | None = None

    def __post_init__(self):
        if self.llm_call_budget is not None and self.llm_call_budget < 1:
            raise ValueError("llm_call_budget must be positive when set")


@dataclass(frozen=True)
class RefreshReport:
    """Accounting for one refresh round."""

    round_index: int
    parent_version: str
    version: str
    samples_in: int
    samples_processed: int
    samples_deferred: int
    llm_calls: int
    candidates: int
    survivors: int
    kept: int
    new_entries: int
    new_triples: int


class KnowledgeRefresher:
    """Drives refresh rounds against a trained filter + critic.

    The filter and critic come from a prior full pipeline run (they are
    the expensive, annotation-backed components); the refresher only
    spends teacher calls on the *new* behaviors.
    """

    def __init__(
        self,
        world: World,
        teacher: TeacherLLM,
        knowledge_filter: KnowledgeFilter,
        critic: CriticClassifier,
        config: RefreshConfig,
    ):
        self.world = world
        self.teacher = teacher
        self.filter = knowledge_filter
        self.critic = critic
        self.config = config
        self.rounds = 0
        self.deferred: list[BehaviorSample] = []

    def refresh(
        self, parent: KgSnapshot, samples: list[BehaviorSample]
    ) -> tuple[KgSnapshot, RefreshReport]:
        """Run one mini-batch round and freeze the result.

        Deferred samples from the previous round are processed first
        (oldest knowledge debt clears before new arrivals).  Returns the
        child snapshot and the round's accounting; the child's entries
        are the parent's overlaid with the round's survivors, its
        graph the parent's with the survivors support-merged in.
        """
        cfg = self.config
        queue = self.deferred + list(samples)
        if cfg.llm_call_budget is not None:
            max_samples = max(1, cfg.llm_call_budget // CANDIDATES_PER_SAMPLE)
            batch, self.deferred = queue[:max_samples], queue[max_samples:]
        else:
            batch, self.deferred = queue, []

        candidates = generate_candidates(
            self.world,
            self.teacher,
            batch,
            seed=cfg.seed + self.rounds,
        )
        survivors, _filter_report = self.filter.apply(candidates)
        kept = self.critic.populate(survivors)

        # Serving entries: per query keep the most plausible survivor;
        # parent entries stay unless this round regenerated them.
        best: dict[str, KnowledgeCandidate] = {}
        for candidate in kept:
            query = candidate.sample.head_text
            current = best.get(query)
            if (current is None
                    or (candidate.plausibility_score or 0.0)
                    > (current.plausibility_score or 0.0)):
                best[query] = candidate
        entries = dict(parent.entries)
        entries.update({query: c.text for query, c in best.items()})

        graph = KnowledgeGraph.from_columns(parent.columns)
        graph.extend(c.to_triple() for c in kept)

        child = build_snapshot(entries, parent=parent,
                               note=f"refresh round {self.rounds}",
                               graph=graph)
        report = RefreshReport(
            round_index=self.rounds,
            parent_version=parent.version,
            version=child.version,
            samples_in=len(queue),
            samples_processed=len(batch),
            samples_deferred=len(self.deferred),
            llm_calls=len(batch) * CANDIDATES_PER_SAMPLE,
            candidates=len(candidates),
            survivors=len(survivors),
            kept=len(kept),
            new_entries=len(best),
            new_triples=(child.manifest.triple_count
                         - parent.manifest.triple_count),
        )
        self.rounds += 1
        return child, report
