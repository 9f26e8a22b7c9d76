"""Navigation: hierarchy, navigators, and the A/B experiment shape."""

import pytest

from repro.apps.navigation import (
    CosmoNavigator,
    NavigationABTest,
    TaxonomyNavigator,
    build_navigation_hierarchy,
)
from repro.apps.navigation.navigator import SUGGESTIONS_PER_TURN


@pytest.fixture(scope="module")
def hierarchy(pipeline_result):
    return build_navigation_hierarchy(pipeline_result.kg, pipeline_result.world)


def test_hierarchy_covers_kg_domains(pipeline_result, hierarchy):
    kg_domains = {t.domain for t in pipeline_result.kg.triples()}
    assert set(hierarchy.domains()) == kg_domains


def test_hierarchy_children_are_refinements(hierarchy):
    refined = 0
    for domain in hierarchy.domains():
        for root in hierarchy.for_domain(domain):
            for child in root.children:
                refined += 1
                assert child.label.endswith(root.label)
    # The KG contains modifier-refined activity tails, so some domain
    # must exhibit Figure 8's coarse→fine structure.
    assert refined > 0


def test_hierarchy_find(hierarchy):
    domain = hierarchy.domains()[0]
    root = hierarchy.for_domain(domain)[0]
    assert hierarchy.find(domain, root.label) is root
    assert hierarchy.find(domain, "no such intent") is None


def test_hierarchy_stats_fields(hierarchy):
    stats = hierarchy.stats()
    assert stats["root_intents"] > 0
    assert stats["max_depth"] >= 1


def test_taxonomy_navigator_suggests_popular_types(world):
    navigator = TaxonomyNavigator(world)
    turn = navigator.first_turn("Electronics", "anything at all")
    assert len(turn.suggestions) == SUGGESTIONS_PER_TURN
    assert all(s.kind == "product_type" for s in turn.suggestions)
    # Intent-blind: the same suggestions regardless of query.
    other = navigator.first_turn("Electronics", "different query")
    assert [s.label for s in turn.suggestions] == [s.label for s in other.suggestions]


def test_cosmo_navigator_first_turn_matches_query(pipeline_result, hierarchy):
    world = pipeline_result.world
    navigator = CosmoNavigator(world, hierarchy)
    domain = hierarchy.domains()[0]
    root = hierarchy.for_domain(domain)[0]
    turn = navigator.first_turn(domain, root.label)
    assert turn.suggestions
    assert turn.suggestions[0].label == root.label  # query overlap wins


def test_cosmo_navigator_multi_turn_refinement(pipeline_result, hierarchy):
    world = pipeline_result.world
    navigator = CosmoNavigator(world, hierarchy)
    for domain in hierarchy.domains():
        for root in hierarchy.for_domain(domain):
            if root.children or root.product_types:
                turn = navigator.refine(domain,
                                        navigator.first_turn(domain, root.label).suggestions[0])
                assert isinstance(turn.suggestions, list)
                return
    pytest.skip("no refinable intent in the tiny KG")


def test_ab_test_shape(pipeline_result, hierarchy):
    world = pipeline_result.world
    test = NavigationABTest(
        world,
        TaxonomyNavigator(world),
        CosmoNavigator(world, hierarchy),
        treatment_fraction=0.5,
        seed=3,
    )
    result = test.run(n_sessions=6000)
    assert result.control.sessions + result.treatment.sessions == 6000
    # The paper's shape: COSMO lifts engagement strongly and sales mildly.
    assert result.engagement_lift > 0
    assert result.sales_lift > -0.02
    assert result.engagement_lift > result.sales_lift
    z, p = result.engagement_significance()
    assert z > 0


def test_ab_outcome_rates_bounded(pipeline_result, hierarchy):
    world = pipeline_result.world
    test = NavigationABTest(
        world, TaxonomyNavigator(world), CosmoNavigator(world, hierarchy),
        treatment_fraction=0.2, seed=4,
    )
    result = test.run(n_sessions=2000)
    for arm in (result.control, result.treatment):
        assert 0.0 <= arm.engagement_rate <= 1.0
        assert 0.0 <= arm.purchase_rate <= 1.0


def test_cosmo_navigator_results_serve_the_intent(pipeline_result, hierarchy):
    world = pipeline_result.world
    navigator = CosmoNavigator(world, hierarchy)
    for domain in hierarchy.domains():
        for root in hierarchy.for_domain(domain):
            if root.product_types:
                products = navigator.results(domain, root.label)
                assert products
                types = {p.product_type for p in products}
                assert types <= set(root.product_types)
                return
    pytest.skip("no linked product types in the tiny KG")


def test_taxonomy_navigator_refine_gives_attributes(world):
    navigator = TaxonomyNavigator(world)
    first = navigator.first_turn("Electronics", "query")
    second = navigator.refine("Electronics", first.suggestions[0])
    assert second.layer == "attribute"
    assert second.suggestions


def test_query_rewrite_study_cosmo_reduces_rewrites(pipeline_result, hierarchy):
    from repro.apps.navigation import QueryRewriteStudy

    study = QueryRewriteStudy(pipeline_result.world, hierarchy, seed=5)
    baseline = study.run(400, use_cosmo=False)
    study_cosmo = QueryRewriteStudy(pipeline_result.world, hierarchy, seed=5)
    cosmo = study_cosmo.run(400, use_cosmo=True)
    # §4.2.4: COSMO's refined-intent suggestions replace query rewrites.
    assert cosmo.avg_rewrites <= baseline.avg_rewrites
    assert cosmo.success_rate >= baseline.success_rate - 0.02
    assert baseline.sessions == cosmo.sessions == 400


def test_query_rewrite_outcome_properties():
    from repro.apps.navigation import RewriteOutcome

    empty = RewriteOutcome(name="x")
    assert empty.avg_rewrites == 0.0 and empty.success_rate == 0.0
    filled = RewriteOutcome(name="y")
    filled.sessions, filled.rewrites, filled.successes = 10, 5, 8
    assert filled.avg_rewrites == 0.5
    assert filled.success_rate == 0.8
