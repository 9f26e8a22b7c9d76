"""Figure 9 / §4.3.2: multi-turn navigation and the online A/B test.

Paper: over months of A/B tests on ~10% of US traffic, COSMO navigation
produced a **0.7% relative sales increase** and an **8% relative
navigation-engagement increase**.  The bench reproduces the shape at
simulation-scale traffic: a large, highly significant engagement lift
and a small positive sales lift (whose significance, as in the paper,
needs much larger traffic than a bench run).
"""

import pytest
from conftest import publish

from repro.apps.navigation import (
    CosmoNavigator,
    NavigationABTest,
    TaxonomyNavigator,
    build_navigation_hierarchy,
)
from repro.reporting import Table, format_percent


@pytest.fixture(scope="module")
def ab_outcome(bench_pipeline):
    world = bench_pipeline.world
    hierarchy = build_navigation_hierarchy(bench_pipeline.kg, world)
    experiment = NavigationABTest(
        world,
        TaxonomyNavigator(world),
        CosmoNavigator(world, hierarchy),
        treatment_fraction=0.5,
        seed=29,
    )
    return experiment.run(n_sessions=240_000)


def test_fig9_navigation_ab(ab_outcome):
    outcome = ab_outcome
    z_eng, p_eng = outcome.engagement_significance()
    z_sales, p_sales = outcome.sales_significance()

    table = Table("§4.3.2 — navigation A/B experiment (paper vs measured)",
                  ["Metric", "Paper", "Measured"])
    table.add_row("Engagement lift", "+8%",
                  f"{format_percent(outcome.engagement_lift)} (z={z_eng:.1f}, p={p_eng:.1e})")
    table.add_row("Sales lift", "+0.7%",
                  f"{format_percent(outcome.sales_lift)} (z={z_sales:.1f}, p={p_sales:.2f})")
    table.add_row("Control sessions", "~90% traffic", outcome.control.sessions)
    table.add_row("Treatment sessions", "~10% traffic", outcome.treatment.sessions)
    table.add_row("Control engagement", "-", format_percent(outcome.control.engagement_rate))
    table.add_row("Treatment engagement", "-", format_percent(outcome.treatment.engagement_rate))
    publish("fig9_navigation_ab", table.render())

    # Paper shape: engagement lift large and highly significant; sales
    # lift small and positive; engagement lift >> sales lift.
    assert outcome.engagement_lift > 0.03
    assert p_eng < 1e-6
    assert outcome.sales_lift > 0.0
    assert outcome.engagement_lift > outcome.sales_lift
