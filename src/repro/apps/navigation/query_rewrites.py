"""Query-rewrite reduction study (§4.2.4's future work, implemented).

The paper observes that electronics sessions carry ~2.5 unique queries —
users *rewrite* broad queries until results match their refined need —
and leaves "how COSMO reduces query rewrites" to future work.  This
module implements that study: customers with a refined latent intent
("winter camping") issue the coarse query ("camping"); in the baseline
experience they must rewrite the query to surface refined-intent
products, while the COSMO experience offers the refined intent as a
navigation suggestion after the first query, replacing the rewrite with
a click.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.navigation.hierarchy import NavigationHierarchy
from repro.behavior.world import World
from repro.utils.rng import spawn_rng

__all__ = ["RewriteOutcome", "QueryRewriteStudy"]

_TOP_K = 8              # results a customer scans per search
_MAX_ATTEMPTS = 3       # searches before a customer gives up


@dataclass
class RewriteOutcome:
    """Aggregate search behavior under one experience."""

    name: str
    sessions: int = field(default=0, init=False)
    rewrites: int = field(default=0, init=False)
    successes: int = field(default=0, init=False)

    @property
    def avg_rewrites(self) -> float:
        """Mean query rewrites per session (the Table 7-adjacent metric)."""
        return self.rewrites / self.sessions if self.sessions else 0.0

    @property
    def success_rate(self) -> float:
        """Sessions that surfaced a refined-intent product in budget."""
        return self.successes / self.sessions if self.sessions else 0.0


class QueryRewriteStudy:
    """Simulates coarse-query sessions with and without COSMO navigation."""

    def __init__(self, world: World, hierarchy: NavigationHierarchy, seed: int = 0):
        self.world = world
        self.hierarchy = hierarchy
        self._rng = spawn_rng(seed, "query-rewrites")

    # ------------------------------------------------------------------
    def _customers(self, n_sessions: int):
        """(coarse intent, refined intent) pairs with refined products."""
        refined_intents = [
            intent for intent in self.world.intents.all()
            if intent.parent is not None
            and self.world.catalog.serving_intent(intent.intent_id)
        ]
        customers = []
        for _ in range(n_sessions):
            refined = refined_intents[int(self._rng.integers(len(refined_intents)))]
            coarse = self.world.intents.get(refined.parent)
            customers.append((coarse, refined))
        return customers

    def _results_for(self, intent_id: str) -> list[str]:
        """Top-k popular products serving ``intent_id``."""
        products = self.world.catalog.serving_intent(intent_id)
        ranked = sorted(products, key=lambda p: -p.popularity)[:_TOP_K]
        return [p.product_id for p in ranked]

    def _satisfied(self, shown: list[str], refined) -> bool:
        wanted = {p.product_id for p in self.world.catalog.serving_intent(refined.intent_id)}
        return any(product_id in wanted for product_id in shown)

    # ------------------------------------------------------------------
    def run(self, n_sessions: int, use_cosmo: bool) -> RewriteOutcome:
        """Simulate sessions under one experience.

        Baseline: the customer searches the coarse query; if the results
        miss their refined need they rewrite toward the refined intent
        (one rewrite per attempt, up to three).  COSMO: after
        the first query the navigation pane offers refined intents of
        the coarse concept; when the customer's refinement is among them
        a click replaces the rewrite.
        """
        outcome = RewriteOutcome(name="cosmo" if use_cosmo else "baseline")
        for coarse, refined in self._customers(n_sessions):
            outcome.sessions += 1
            shown = self._results_for(coarse.intent_id)
            if self._satisfied(shown, refined):
                outcome.successes += 1
                continue
            if use_cosmo:
                node = self.hierarchy.find(coarse.domain, coarse.tail)
                suggested = {child.label for child in (node.children if node else [])}
                if refined.tail in suggested:
                    # Navigation click instead of a rewrite.
                    shown = self._results_for(refined.intent_id)
                    if self._satisfied(shown, refined):
                        outcome.successes += 1
                    continue
            # Rewrite loop (both experiences fall back to it).
            for _ in range(_MAX_ATTEMPTS - 1):
                outcome.rewrites += 1
                shown = self._results_for(refined.intent_id)
                if self._satisfied(shown, refined):
                    outcome.successes += 1
                    break
        return outcome
