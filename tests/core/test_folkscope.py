"""FolkScope baseline pipeline (the §2 / Table 1 comparison)."""

import pytest

from repro.core.folkscope import FOLKSCOPE_DOMAINS, FolkScopeConfig, FolkScopePipeline
from tests.conftest import TINY_WORLD


@pytest.fixture(scope="module")
def folkscope_result(world):
    config = FolkScopeConfig(
        seed=11,
        world=TINY_WORLD,
        cobuy_pairs_per_domain=40,
    )
    return FolkScopePipeline(config).run(world=world)


def test_covers_only_two_domains(folkscope_result):
    domains = {t.domain for t in folkscope_result.kg.triples()}
    assert domains <= set(FOLKSCOPE_DOMAINS)
    assert len(domains) >= 1


def test_cobuy_only(folkscope_result):
    behaviors = {t.behavior for t in folkscope_result.kg.triples()}
    assert behaviors == {"co-buy"}


def test_kg_edges_pass_critic(folkscope_result):
    for triple in folkscope_result.kg.triples():
        assert triple.plausibility > 0.5


def test_serving_cost_is_llm_scale(folkscope_result):
    # No student model: serving each new behavior costs whole seconds of
    # simulated teacher inference.
    assert folkscope_result.serving_cost_per_behavior() > 0.5


def test_narrower_than_cosmo(folkscope_result, pipeline_result):
    cosmo_stats = pipeline_result.kg.stats()
    folk_stats = folkscope_result.kg.stats()
    # COSMO's scale-up: 18 domains and both behaviors vs 2 domains, co-buy.
    assert cosmo_stats.domains > folk_stats.domains
    cosmo_behaviors = {t.behavior for t in pipeline_result.kg.triples()}
    assert cosmo_behaviors == {"co-buy", "search-buy"}
