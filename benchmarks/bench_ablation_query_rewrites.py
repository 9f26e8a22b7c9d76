"""Query-rewrite reduction (§4.2.4 future work, quantified).

Customers with refined intents start from coarse queries; the baseline
experience makes them rewrite the query to reach refined-intent
products, while COSMO's intent suggestions replace rewrites with clicks.
"""

import pytest
from conftest import publish

from repro.apps.navigation import QueryRewriteStudy, build_navigation_hierarchy
from repro.reporting import Table, format_float, format_percent


@pytest.fixture(scope="module")
def rewrite_outcomes(bench_pipeline):
    hierarchy = build_navigation_hierarchy(bench_pipeline.kg, bench_pipeline.world)
    baseline = QueryRewriteStudy(bench_pipeline.world, hierarchy, seed=9).run(
        3000, use_cosmo=False
    )
    cosmo = QueryRewriteStudy(bench_pipeline.world, hierarchy, seed=9).run(
        3000, use_cosmo=True
    )
    return baseline, cosmo


def test_cosmo_reduces_query_rewrites(rewrite_outcomes):
    baseline, cosmo = rewrite_outcomes

    table = Table("§4.2.4 — query rewrites with and without COSMO navigation",
                  ["Experience", "Avg rewrites / session", "Success rate"])
    table.add_row("baseline search", format_float(baseline.avg_rewrites, 3),
                  format_percent(baseline.success_rate))
    table.add_row("COSMO navigation", format_float(cosmo.avg_rewrites, 3),
                  format_percent(cosmo.success_rate))
    reduction = (1 - cosmo.avg_rewrites / baseline.avg_rewrites
                 if baseline.avg_rewrites else 0.0)
    publish("ablation_query_rewrites",
            table.render() + f"\nRewrite reduction: {format_percent(reduction)}")

    # The future-work hypothesis holds in this world: refined-intent
    # suggestions absorb a substantial share of query rewrites without
    # hurting task success.
    assert cosmo.avg_rewrites < baseline.avg_rewrites
    assert reduction > 0.1
    assert cosmo.success_rate >= baseline.success_rate - 0.02
