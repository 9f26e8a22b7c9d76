"""Table 9 / Figure 10: COSMO-LM generation examples per category.

The paper's appendix shows one generation per domain.  The bench asks
the finetuned COSMO-LM to explain one fresh behavior per domain and
verifies the generations are well-formed knowledge across all 18
categories.
"""

from conftest import publish

from repro.catalog import DOMAIN_NAMES
from repro.core.relations import parse_predicate
from repro.reporting import Table


def _one_sample_per_domain(bench_pipeline):
    chosen = {}
    for sample in bench_pipeline.samples:
        if sample.behavior == "search-buy" and sample.domain not in chosen:
            chosen[sample.domain] = sample
    return [chosen[d] for d in DOMAIN_NAMES if d in chosen]


def test_table9_generation_examples(bench_pipeline):
    lm = bench_pipeline.cosmo_lm
    world = bench_pipeline.world
    samples = _one_sample_per_domain(bench_pipeline)
    prompts = [lm.prompt_for_sample(world, s) for s in samples]
    generations = lm.generate_batch(prompts).require()

    table = Table("Table 9 — COSMO-LM generations per category",
                  ["Category", "Query", "Generation"])
    parsed = 0
    for sample, generation in zip(samples, generations):
        query_text = sample.head_text.split(" ||| ")[0]
        table.add_row(sample.domain, query_text[:34], generation.text[:60])
        parsed += int(parse_predicate(generation.text) is not None)
    publish("table9_generations", table.render())

    assert len(samples) == 18  # one behavior per category
    assert parsed / len(samples) > 0.7  # well-formed knowledge everywhere
