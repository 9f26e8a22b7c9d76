"""COSMO vs FolkScope (§2, Table 1): what each extension buys.

FolkScope (the system COSMO extends) covers two domains, co-buy only,
and serves knowledge by running the teacher LLM per behavior.  The bench
runs both pipelines on the same world and quantifies COSMO's scale-up:
domain and behavior coverage, KG size, and serving cost per behavior.
"""

import pytest
from conftest import BENCH_PIPELINE_CONFIG, publish

from repro.core.folkscope import FolkScopeConfig, FolkScopePipeline
from repro.reporting import Table


@pytest.fixture(scope="module")
def folkscope(bench_pipeline):
    config = FolkScopeConfig(
        seed=7,
        world=BENCH_PIPELINE_CONFIG.world,
        cobuy_pairs_per_domain=BENCH_PIPELINE_CONFIG.cobuy_pairs_per_domain,
    )
    return FolkScopePipeline(config).run(world=bench_pipeline.world)


def test_cosmo_vs_folkscope(bench_pipeline, folkscope, benchmark):
    cosmo_kg = bench_pipeline.kg
    folk_kg = folkscope.kg
    cosmo_stats = cosmo_kg.stats()
    folk_stats = folk_kg.stats()

    cosmo_teacher_cost = (bench_pipeline.teacher_latency.total_simulated_s
                          / len(bench_pipeline.candidates))
    lm = bench_pipeline.cosmo_lm
    before = lm.latency.total_simulated_s
    prompts = [lm.prompt_for_sample(bench_pipeline.world, s)
               for s in bench_pipeline.samples[:50]]
    lm.generate_batch(prompts)
    cosmo_serving = (lm.latency.total_simulated_s - before) / len(prompts)

    table = Table("COSMO vs FolkScope (same world)",
                  ["Metric", "FolkScope", "COSMO"])
    table.add_row("Domains", folk_stats.domains, cosmo_stats.domains)
    table.add_row("Behaviors", "co-buy", "co-buy & search-buy")
    table.add_row("Relations", folk_stats.relations, cosmo_stats.relations)
    table.add_row("KG edges", folk_stats.edges, cosmo_stats.edges)
    table.add_row("Serving cost / new behavior",
                  f"{folkscope.serving_cost_per_behavior():.2f} s (teacher LLM)",
                  f"{cosmo_serving * 1000:.1f} ms (COSMO-LM)")
    publish("ablation_folkscope", table.render())

    benchmark(folk_kg.stats)

    # COSMO's §2 claims over FolkScope: broader coverage and a serving
    # path that does not require per-behavior LLM inference.
    assert cosmo_stats.domains > folk_stats.domains
    assert cosmo_stats.edges > folk_stats.edges
    assert folkscope.serving_cost_per_behavior() / cosmo_serving > 100
    assert {t.behavior for t in cosmo_kg.triples()} == {"co-buy", "search-buy"}
    assert {t.behavior for t in folk_kg.triples()} == {"co-buy"}
