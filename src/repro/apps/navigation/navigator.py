"""Multi-turn search navigation (§4.3.1, Figure 9).

COSMO navigation walks broad-conception interpretation (intent roots
matching the query) and product type/subtype discovery, with multi-turn
refinement ("camping" → "air mattress" → "camping air mattress" →
"lakeside camping ..."); the paper's third layer, attribute-based
refinement, is the taxonomy control's ``refine``.

The control experience is the traditional product-centric taxonomy:
suggestions are popular product types of the query's domain, blind to
the customer's intent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.navigation.hierarchy import IntentNode, NavigationHierarchy
from repro.behavior.world import World
from repro.catalog.products import Product

__all__ = ["Suggestion", "NavigationTurn", "TaxonomyNavigator", "CosmoNavigator"]

SUGGESTIONS_PER_TURN = 5


@dataclass(frozen=True)
class Suggestion:
    """One clickable refinement shown to the customer."""

    kind: str  # "intent" | "product_type" | "attribute"
    label: str


@dataclass
class NavigationTurn:
    """One round of the navigation dialog."""

    layer: str
    suggestions: list[Suggestion] = field(default_factory=list)


class TaxonomyNavigator:
    """Control arm: static product-taxonomy suggestions."""

    name = "taxonomy"

    def __init__(self, world: World):
        self.world = world

    def first_turn(self, domain: str, query_text: str) -> NavigationTurn:
        """Popular product types of the domain, intent-blind."""
        products = self.world.catalog.for_domain(domain)
        by_type: dict[str, float] = {}
        for product in products:
            by_type[product.product_type] = by_type.get(product.product_type, 0.0) + product.popularity
        ranked = sorted(by_type, key=lambda t: -by_type[t])[:SUGGESTIONS_PER_TURN]
        return NavigationTurn(
            layer="product_type",
            suggestions=[Suggestion("product_type", label) for label in ranked],
        )

    def refine(self, domain: str, picked: Suggestion) -> NavigationTurn:
        """Attribute filters for the picked type (generic modifiers)."""
        products = self.world.catalog.for_type(domain, picked.label)
        attributes = sorted({a for p in products for a in p.attributes})[:SUGGESTIONS_PER_TURN]
        return NavigationTurn(
            layer="attribute",
            suggestions=[Suggestion("attribute", label) for label in attributes],
        )

    def results(self, domain: str, product_type: str) -> list[Product]:
        """Products shown after the customer picks a type suggestion."""
        return self.world.catalog.for_type(domain, product_type)


class CosmoNavigator:
    """Treatment arm: intent-first, multi-turn COSMO navigation."""

    name = "cosmo"

    def __init__(self, world: World, hierarchy: NavigationHierarchy):
        self.world = world
        self.hierarchy = hierarchy

    # -- layer 1: broad conception interpretation -----------------------
    def first_turn(self, domain: str, query_text: str) -> NavigationTurn:
        """Intent concepts matching the broad query.

        COSMO navigation *augments* the product-centric experience
        (§4.3: "a single, relatively minor feature on the search page"):
        intent concepts that plausibly match the query lead, and the
        remaining slots keep the familiar popular product types, so the
        treatment never regresses below the taxonomy baseline.
        """
        query_tokens = set(query_text.lower().split())
        scored: list[tuple[float, IntentNode]] = []
        for root in self.hierarchy.for_domain(domain):
            overlap = len(query_tokens & set(root.label.lower().split()))
            if overlap:
                scored.append((overlap + 0.01 * len(root.children), root))
        scored.sort(key=lambda item: -item[0])
        suggestions = [
            Suggestion("intent", node.label) for _, node in scored[:SUGGESTIONS_PER_TURN - 2]
        ]
        products = self.world.catalog.for_domain(domain)
        by_type: dict[str, float] = {}
        for product in products:
            by_type[product.product_type] = by_type.get(product.product_type, 0.0) + product.popularity
        for label in sorted(by_type, key=lambda t: -by_type[t]):
            if len(suggestions) >= SUGGESTIONS_PER_TURN:
                break
            suggestions.append(Suggestion("product_type", label))
        return NavigationTurn(layer="intent", suggestions=suggestions)

    # -- layer 2: refined intents and product types ----------------------
    def refine(self, domain: str, picked: Suggestion) -> NavigationTurn:
        """Multi-turn refinement under the picked intent."""
        node = self.hierarchy.find(domain, picked.label)
        if node is None:
            return NavigationTurn(layer="product_type", suggestions=[])
        suggestions: list[Suggestion] = []
        for child in node.children[:SUGGESTIONS_PER_TURN]:
            suggestions.append(Suggestion("intent", child.label))
        for product_type in node.product_types[:SUGGESTIONS_PER_TURN - len(suggestions)]:
            suggestions.append(Suggestion("product_type", product_type))
        return NavigationTurn(layer="intent_or_type", suggestions=suggestions)

    def results(self, domain: str, intent_label: str) -> list[Product]:
        """Products linked to the intent concept (via the hierarchy)."""
        node = self.hierarchy.find(domain, intent_label)
        if node is None:
            return []
        products: list[Product] = []
        for product_type in node.product_types:
            products.extend(self.world.catalog.for_type(domain, product_type))
        return products
