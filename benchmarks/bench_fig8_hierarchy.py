"""Figure 8: hierarchical organization of COSMO tail knowledge.

Coarse intents expand to fine-grained ones ("camping" → "winter
camping") and intent concepts link to product concepts ("winter boots").
The bench regenerates the hierarchy from the built KG and verifies that
structure exists.
"""

from conftest import publish

from repro.apps.navigation import build_navigation_hierarchy
from repro.reporting import Table


def test_fig8_intent_hierarchy(bench_pipeline):
    hierarchy = build_navigation_hierarchy(bench_pipeline.kg, bench_pipeline.world)
    stats = hierarchy.stats()

    lines = []
    shown = 0
    for domain in hierarchy.domains():
        for root in hierarchy.for_domain(domain):
            if root.children and shown < 6:
                child = root.children[0]
                linked = child.product_types[:3] or root.product_types[:3]
                lines.append(f"  {domain}: {root.label!r} -> {child.label!r} -> {linked}")
                shown += 1
    table = Table("Figure 8 — intent hierarchy statistics", ["Metric", "Value"])
    for key, value in stats.items():
        table.add_row(key, value)
    publish("fig8_hierarchy", table.render() + "\nSample coarse→fine chains:\n" + "\n".join(lines))

    # Shape: the hierarchy has refined intents under coarse ones, links
    # to product concepts, and spans multiple domains.
    assert stats["root_intents"] > 50
    assert stats["refined_intents"] > 10
    assert stats["linked_product_types"] > 100
    assert stats["max_depth"] >= 2
    assert shown > 0
