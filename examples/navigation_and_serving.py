"""Search navigation + online serving (paper §3.5, §4.3).

Runs the pipeline to get a knowledge graph, organizes it into the
Figure 8 intent hierarchy, walks a multi-turn navigation session, runs
the simulated A/B experiment, and exercises the two-layer cache serving
flow of Figure 5.

Run:  python examples/navigation_and_serving.py
"""

from repro.apps.navigation import (
    CosmoNavigator,
    NavigationABTest,
    TaxonomyNavigator,
    build_navigation_hierarchy,
)
from repro.behavior import WorldConfig
from repro.core import CosmoLMConfig, CosmoPipeline, PipelineConfig
from repro.serving import CosmoService, ServeRequest


def main() -> None:
    config = PipelineConfig(
        seed=13,
        world=WorldConfig(seed=13, products_per_domain=30,
                          broad_queries_per_domain=12, specific_queries_per_domain=12),
        cobuy_pairs_per_domain=40,
        searchbuy_records_per_domain=60,
        annotation_budget=600,
        lm=CosmoLMConfig(epochs=8),
    )
    print("Running the pipeline to build the knowledge graph...")
    result = CosmoPipeline(config).run()
    world = result.world

    hierarchy = build_navigation_hierarchy(result.kg, world)
    print(f"\nIntent hierarchy: {hierarchy.stats()}")

    # Show one coarse → fine chain (Figure 8).
    for domain in hierarchy.domains():
        for root in hierarchy.for_domain(domain):
            if root.children:
                child = root.children[0]
                print(f"  {domain}: {root.label!r} -> {child.label!r} "
                      f"-> products {child.product_types[:3] or root.product_types[:3]}")
                break
        else:
            continue
        break

    # Multi-turn navigation (Figure 9).
    navigator = CosmoNavigator(world, hierarchy)
    domain = hierarchy.domains()[0]
    root = hierarchy.for_domain(domain)[0]
    first = navigator.first_turn(domain, root.label)
    print(f"\nNavigation for query {root.label!r} in {domain}:")
    print(f"  turn 1 ({first.layer}): {[s.label for s in first.suggestions]}")
    if first.suggestions:
        second = navigator.refine(domain, first.suggestions[0])
        print(f"  turn 2 ({second.layer}): {[s.label for s in second.suggestions]}")

    # Online A/B experiment (§4.3.2).
    experiment = NavigationABTest(
        world, TaxonomyNavigator(world), CosmoNavigator(world, hierarchy),
        treatment_fraction=0.5, seed=13,
    )
    outcome = experiment.run(n_sessions=20_000)
    z_eng, p_eng = outcome.engagement_significance()
    print(f"\nA/B test over 20k sessions:")
    print(f"  engagement lift {100 * outcome.engagement_lift:+.1f}% (z={z_eng:.1f}, p={p_eng:.2g})")
    print(f"  sales lift      {100 * outcome.sales_lift:+.2f}%")

    # Serving flow (Figure 5): miss -> batch -> hit.
    lm = result.cosmo_lm
    query = next(q for q in world.queries.broad()
                 if world.catalog.serving_intent(q.intent_id))
    product = world.catalog.serving_intent(query.intent_id)[0]
    service = CosmoService(
        lm,
        prompt_builder=lambda text: lm.searchbuy_prompt(
            text, product.domain, product.product_type),
        fallback_response="(pending batch)",
    )
    print(f"\nServing {query.text!r}:")
    cold = service.serve_batch([ServeRequest(query=query.text)])[0]
    print(f"  cold request -> {cold.text!r}")
    service.run_batch()
    warm = service.serve_batch([ServeRequest(query=query.text)])[0]
    print(f"  after batch  -> {warm.text!r} (from {warm.source})")
    print(f"  cache hit rate {service.cache.stats.hit_rate:.0%}, "
          f"feature store entries {len(service.features)}")


if __name__ == "__main__":
    main()
