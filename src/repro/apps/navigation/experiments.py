"""Online A/B experiment simulator for search navigation (§4.3.2).

The paper reports, over months of A/B tests on ~10% of US traffic, a
**0.7% relative product-sales increase** and an **8% relative navigation
engagement increase**.  This harness reproduces the experiment's shape:

* a traffic simulator draws customers with latent (possibly refined)
  intents issuing broad queries;
* the control arm shows taxonomy suggestions, the treatment arm COSMO's
  intent-first multi-turn navigation (both see the *same* customers via
  a deterministic assignment hash);
* engagement = the customer clicked a navigation suggestion (they click
  when a suggestion matches their intent or its refinement);
* sales = the customer purchased; purchases mostly happen through
  ordinary search regardless of navigation (which is why the sales lift
  is small), with a boost when navigation surfaced intent-matching
  products;
* two-proportion z-tests give the significance of both lifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from repro.apps.navigation.navigator import CosmoNavigator, TaxonomyNavigator
from repro.behavior.world import World
from repro.utils.rng import spawn_rng

__all__ = ["ArmOutcome", "ABTestResult", "NavigationABTest"]


@dataclass
class ArmOutcome:
    """Counters for one experiment arm."""

    name: str
    sessions: int = field(default=0, init=False)
    engaged: int = field(default=0, init=False)
    purchases: int = field(default=0, init=False)

    @property
    def engagement_rate(self) -> float:
        """Fraction of sessions that clicked a navigation suggestion."""
        return self.engaged / self.sessions if self.sessions else 0.0

    @property
    def purchase_rate(self) -> float:
        """Fraction of sessions ending in a purchase (the sales metric)."""
        return self.purchases / self.sessions if self.sessions else 0.0


def _two_proportion_z(success_a: int, n_a: int, success_b: int, n_b: int) -> tuple[float, float]:
    """z statistic and two-sided p-value for proportion difference."""
    if n_a == 0 or n_b == 0:
        return 0.0, 1.0
    p_pool = (success_a + success_b) / (n_a + n_b)
    se = np.sqrt(p_pool * (1 - p_pool) * (1 / n_a + 1 / n_b))
    if se == 0:
        return 0.0, 1.0
    z = (success_b / n_b - success_a / n_a) / se
    return float(z), float(2 * (1 - stats.norm.cdf(abs(z))))


@dataclass
class ABTestResult:
    """Both arms plus derived lifts and significance."""

    control: ArmOutcome
    treatment: ArmOutcome

    @property
    def sales_lift(self) -> float:
        """Relative product-sales increase (the paper's 0.7%)."""
        if self.control.purchase_rate == 0:
            return 0.0
        return self.treatment.purchase_rate / self.control.purchase_rate - 1.0

    @property
    def engagement_lift(self) -> float:
        """Relative navigation-engagement increase (the paper's 8%)."""
        if self.control.engagement_rate == 0:
            return 0.0
        return self.treatment.engagement_rate / self.control.engagement_rate - 1.0

    def sales_significance(self) -> tuple[float, float]:
        """(z, p) of the purchase-rate difference between arms."""
        return _two_proportion_z(
            self.control.purchases, self.control.sessions,
            self.treatment.purchases, self.treatment.sessions,
        )

    def engagement_significance(self) -> tuple[float, float]:
        """(z, p) of the engagement-rate difference between arms."""
        return _two_proportion_z(
            self.control.engaged, self.control.sessions,
            self.treatment.engaged, self.treatment.sessions,
        )


#: Chance a customer clicks a suggestion when none matches their intent.
_BASE_CLICK_RATE = 0.04
#: Purchase probability before the navigation boost.
_BASE_PURCHASE_RATE = 0.30
#: Added when navigation lands the customer on a matching product.
_NAVIGATION_PURCHASE_BOOST = 0.06


class NavigationABTest:
    """Runs the simulated A/B experiment over generated traffic."""

    def __init__(
        self,
        world: World,
        control: TaxonomyNavigator,
        treatment: CosmoNavigator,
        treatment_fraction: float = 0.10,
        seed: int = 0,
    ):
        self.world = world
        self.control = control
        self.treatment = treatment
        self.treatment_fraction = treatment_fraction
        self._rng = spawn_rng(seed, "nav-abtest")

    # ------------------------------------------------------------------
    def _draw_customer(self):
        """A customer with a latent (possibly refined) intent + query."""
        intents = self.world.intents.all()
        intent = intents[int(self._rng.integers(len(intents)))]
        children = self.world.intents.children(intent.intent_id)
        refined = None
        if children and self._rng.random() < 0.5:
            refined = children[int(self._rng.integers(len(children)))]
        return intent, refined

    def _matches(self, suggestion_label: str, intent, refined) -> bool:
        targets = {intent.tail.lower()}
        if refined is not None:
            targets.add(refined.tail.lower())
        # A customer wanting "winter camping" also clicks the coarse
        # "camping" concept, and vice versa.
        if intent.parent is not None:
            targets.add(self.world.intents.get(intent.parent).tail.lower())
        label = suggestion_label.lower()
        if label in targets:
            return True
        # A product-type suggestion matches when it serves the intent.
        wanted = refined or intent
        serving_types = {
            p.product_type.lower()
            for p in self.world.catalog.serving_intent(wanted.intent_id)
        }
        return label in serving_types

    def _session(self, navigator, outcome: ArmOutcome) -> None:
        intent, refined = self._draw_customer()
        outcome.sessions += 1
        turn = navigator.first_turn(intent.domain, intent.tail)
        engaged = False
        matched_product = False
        picked = None
        for suggestion in turn.suggestions:
            if self._matches(suggestion.label, intent, refined):
                picked = suggestion
                break
        if picked is None and turn.suggestions and self._rng.random() < _BASE_CLICK_RATE:
            picked = turn.suggestions[int(self._rng.integers(len(turn.suggestions)))]
        if picked is not None:
            engaged = True
            if self._matches(picked.label, intent, refined):
                # A matching pick lands on intent-filtered results: a
                # matching product type shows its products; a matching
                # intent concept shows the products serving that intent.
                matched_product = True
            else:
                second = navigator.refine(intent.domain, picked)
                matched_product = any(
                    self._matches(s.label, intent, refined) for s in second.suggestions
                )
        if engaged:
            outcome.engaged += 1
        purchase_rate = _BASE_PURCHASE_RATE
        if matched_product:
            purchase_rate += _NAVIGATION_PURCHASE_BOOST
        if self._rng.random() < purchase_rate:
            outcome.purchases += 1

    # ------------------------------------------------------------------
    def run(self, n_sessions: int = 20_000) -> ABTestResult:
        """Simulate ``n_sessions`` customer sessions across both arms."""
        control = ArmOutcome(name=self.control.name)
        treatment = ArmOutcome(name=self.treatment.name)
        for _ in range(n_sessions):
            if self._rng.random() < self.treatment_fraction:
                self._session(self.treatment, treatment)
            else:
                self._session(self.control, control)
        return ABTestResult(control=control, treatment=treatment)
