"""Representative user-behavior sampling (§3.2.1).

Millions of raw behaviors are noisy; this stage selects the pairs worth
spending LLM generation on:

* **product sampling** — top-tier products by interaction volume, spread
  across product types;
* **co-buy pair sampling** — at least one endpoint in the selected set,
  deduplicated at the product-type-pair level, with the heuristic that a
  type pair seen only once is likely a random co-purchase;
* **search-buy pair sampling** — engagement (click / purchase-rate)
  thresholds plus the query-specificity service: *broad* queries are
  preferred because bridging their semantic gap is where knowledge has
  most value, with a slice of low-engagement queries kept to probe the
  LLM directly.
"""

from __future__ import annotations

from collections import Counter

from repro.behavior.cobuy import CoBuyLog
from repro.behavior.searchbuy import SearchBuyLog
from repro.behavior.world import World
from repro.core.triples import BehaviorSample

__all__ = ["SamplingConfig", "sample_products", "sample_cobuy", "sample_searchbuy"]


from dataclasses import dataclass

#: A query scoring at most this on the specificity service is *broad*.
BROAD_SPECIFICITY_MAX = 0.51


@dataclass(frozen=True)
class SamplingConfig:
    """Thresholds for behavior-pair selection."""

    min_type_pair_count: int = 2
    min_clicks: int = 2
    min_purchase_rate: float = 0.2
    low_engagement_fraction: float = 0.15


def sample_products(
    world: World,
    cobuy: CoBuyLog,
    searchbuy: SearchBuyLog,
    top_fraction: float = 0.6,
) -> set[str]:
    """Select top-tier products by total interaction volume, per domain."""
    selected: set[str] = set()
    for domain in {p.domain for p in world.catalog.all()}:
        products = world.catalog.for_domain(domain)
        scored = sorted(
            products,
            key=lambda p: cobuy.degree(p.product_id) + searchbuy.product_degree(p.product_id),
            reverse=True,
        )
        keep = max(1, int(len(scored) * top_fraction))
        selected.update(p.product_id for p in scored[:keep])
    return selected


def sample_cobuy(
    world: World,
    cobuy: CoBuyLog,
    selected_products: set[str],
    config: SamplingConfig | None = None,
) -> list[BehaviorSample]:
    """Filter and deduplicate co-buy pairs into behavior samples."""
    config = config or SamplingConfig()
    # Type-pair frequency: singleton type pairs are treated as random
    # co-purchases (the paper's cross-check heuristic).
    type_pair_counts: Counter[tuple[str, str]] = Counter()
    for pair in cobuy.pairs:
        type_a = world.catalog.get(pair.product_a).product_type
        type_b = world.catalog.get(pair.product_b).product_type
        type_pair_counts[tuple(sorted((type_a, type_b)))] += 1

    samples: list[BehaviorSample] = []
    seen_type_pairs: set[tuple[str, str]] = set()
    for pair in cobuy.pairs:
        if pair.product_a not in selected_products and pair.product_b not in selected_products:
            continue
        product_a = world.catalog.get(pair.product_a)
        product_b = world.catalog.get(pair.product_b)
        if product_a.product_type == product_b.product_type:
            continue  # same-type pairs carry no cross-product intent
        type_key = tuple(sorted((product_a.product_type, product_b.product_type)))
        if type_pair_counts[type_key] < config.min_type_pair_count:
            continue  # likely a random co-purchase
        dedupe_key = (type_key, pair.product_a, pair.product_b)
        if dedupe_key in seen_type_pairs:
            continue
        seen_type_pairs.add(dedupe_key)
        samples.append(
            BehaviorSample(
                sample_id=f"bs-{pair.pair_id}",
                behavior="co-buy",
                domain=pair.domain,
                product_ids=(pair.product_a, pair.product_b),
                query_id=None,
                head_text=f"{product_a.title} ||| {product_b.title}",
                intent_id=pair.intent_id,
                weight=float(pair.count),
            )
        )
    return samples


def sample_searchbuy(
    world: World,
    searchbuy: SearchBuyLog,
    config: SamplingConfig | None = None,
) -> list[BehaviorSample]:
    """Select search-buy pairs via engagement and specificity thresholds."""
    config = config or SamplingConfig()
    samples: list[BehaviorSample] = []
    seen: set[tuple[str, str]] = set()
    low_engagement_budget = int(len(searchbuy.records) * config.low_engagement_fraction)
    for record in searchbuy.records:
        key = (record.query_id, record.product_id)
        if key in seen:
            continue
        query = world.queries.get(record.query_id)
        clicks, _ = searchbuy.query_engagement(record.query_id)
        engaged = (
            clicks >= config.min_clicks
            and searchbuy.purchase_rate(record.query_id) >= config.min_purchase_rate
        )
        broad_enough = world.specificity.score(query) <= BROAD_SPECIFICITY_MAX
        if engaged and broad_enough:
            accepted = True
        elif not engaged and low_engagement_budget > 0:
            # Keep a slice of low-engagement queries: knowledge for them
            # must come from the LLM itself (§3.2.1).
            accepted = True
            low_engagement_budget -= 1
        else:
            accepted = False
        if not accepted:
            continue
        seen.add(key)
        product = world.catalog.get(record.product_id)
        samples.append(
            BehaviorSample(
                sample_id=f"bs-{record.record_id}",
                behavior="search-buy",
                domain=record.domain,
                product_ids=(record.product_id,),
                query_id=record.query_id,
                head_text=f"{query.text} ||| {product.title}",
                intent_id=record.intent_id,
                weight=float(record.purchases),
            )
        )
    return samples
