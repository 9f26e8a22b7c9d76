"""Table 6: search relevance on the public ESCI subset.

Trains the three architectures in both encoder regimes.  The knowledge
features follow the deployed path of Figure 5: downstream applications
read *stored* COSMO knowledge (the KG built by the pipeline, which the
finetuned COSMO-LM expanded), not fresh per-request generations.

Paper shape: Cross > Bi; "+ Intent" gives the largest relative Macro-F1
gain in the fixed regime (~60% rel.) and a clear gain when trainable;
Cross+Intent is best overall.
"""

import pytest
from conftest import publish

from repro.apps.relevance import (
    FeatureExtractor,
    kg_knowledge_provider,
    prepare_esci,
    train_relevance_model,
)
from repro.behavior import generate_esci
from repro.reporting import Table, format_float


@pytest.fixture(scope="module")
def table6(bench_pipeline):
    world = bench_pipeline.world
    dataset = generate_esci(world, locale="KDD Cup", pairs_per_query=6,
                            max_queries=500, seed=7)
    prepared = prepare_esci(
        dataset, knowledge_provider=kg_knowledge_provider(bench_pipeline.kg, world)
    )
    results = {}
    for architecture in ("bi-encoder", "cross-encoder", "cross-encoder-intent"):
        for trainable in (False, True):
            _, results[(architecture, trainable)] = train_relevance_model(
                prepared, architecture, trainable, epochs=8, seed=7,
                extractor=FeatureExtractor(512),
            )
    return results


def test_table6_relevance(table6):
    results = table6

    table = Table("Table 6 — public ESCI relevance (COSMO-LM knowledge)",
                  ["Method", "Fixed Macro", "Fixed Micro",
                   "Trainable Macro", "Trainable Micro"])
    for architecture, label in (
        ("bi-encoder", "Bi-encoder"),
        ("cross-encoder", "Cross-encoder"),
        ("cross-encoder-intent", "Cross-encoder w/ Intent"),
    ):
        fixed = results[(architecture, False)]
        tuned = results[(architecture, True)]
        table.add_row(label,
                      format_float(100 * fixed.macro_f1),
                      format_float(100 * fixed.micro_f1),
                      format_float(100 * tuned.macro_f1),
                      format_float(100 * tuned.micro_f1))
    cross_f = results[("cross-encoder", False)]
    intent_f = results[("cross-encoder-intent", False)]
    cross_t = results[("cross-encoder", True)]
    intent_t = results[("cross-encoder-intent", True)]
    delta = (
        f"Δ fixed:     Macro {100 * (intent_f.macro_f1 / cross_f.macro_f1 - 1):+.1f}%  "
        f"Micro {100 * (intent_f.micro_f1 / cross_f.micro_f1 - 1):+.1f}%  "
        f"(paper: +60.1% / +29.3%)\n"
        f"Δ trainable: Macro {100 * (intent_t.macro_f1 / cross_t.macro_f1 - 1):+.1f}%  "
        f"Micro {100 * (intent_t.micro_f1 / cross_t.micro_f1 - 1):+.1f}%  "
        f"(paper: +27.8% / +22.3%)"
    )
    publish("table6_relevance", table.render() + "\n" + delta)

    # Paper shape checks.
    assert results[("cross-encoder", True)].macro_f1 > results[("bi-encoder", True)].macro_f1
    # The fixed regime shows the clearest intent gain (as in the paper,
    # where it is +60% relative); the trainable regime must not regress.
    assert intent_f.macro_f1 > cross_f.macro_f1
    assert intent_t.macro_f1 > cross_t.macro_f1 - 0.01
    # The largest relative gain comes in the fixed regime.
    fixed_gain = intent_f.macro_f1 / cross_f.macro_f1 - 1.0
    tuned_gain = intent_t.macro_f1 / cross_t.macro_f1 - 1.0
    assert fixed_gain > tuned_gain
