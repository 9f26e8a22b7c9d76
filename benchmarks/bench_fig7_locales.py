"""Figure 7: multi-locale ("private dataset") relevance results.

For each of the four markets (US, CA, UK, IN), compare the cross-encoder
with and without COSMO intent knowledge, in both encoder regimes.  The
paper's claim: intent knowledge wins for every locale under both
regimes, i.e. the knowledge generalizes across product distributions and
language habits.
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

_LOCALES = ("US", "CA", "UK", "IN")


@pytest.fixture(scope="module")
def locale_results(bench_pipeline):
    world = bench_pipeline.world
    provider = kg_knowledge_provider(bench_pipeline.kg, world)
    results = {}
    for locale in _LOCALES:
        dataset = generate_esci(world, locale=locale, pairs_per_query=6,
                                max_queries=350, seed=7)
        prepared = prepare_esci(dataset, knowledge_provider=provider)
        for architecture in ("cross-encoder", "cross-encoder-intent"):
            for trainable in (False, True):
                _, result = train_relevance_model(
                    prepared, architecture, trainable, epochs=8, seed=7,
                    extractor=FeatureExtractor(512),
                )
                results[(locale, architecture, trainable)] = result
    return results


def test_fig7_locale_generalization(locale_results):
    table = Table("Figure 7 — multi-locale relevance (Macro F1)",
                  ["Locale", "Cross fixed", "+Intent fixed",
                   "Cross tuned", "+Intent tuned"])
    for locale in _LOCALES:
        table.add_row(
            locale,
            format_float(100 * locale_results[(locale, "cross-encoder", False)].macro_f1),
            format_float(100 * locale_results[(locale, "cross-encoder-intent", False)].macro_f1),
            format_float(100 * locale_results[(locale, "cross-encoder", True)].macro_f1),
            format_float(100 * locale_results[(locale, "cross-encoder-intent", True)].macro_f1),
        )
    publish("fig7_locales", table.render())

    # Paper shape: +Intent wins for every locale in both regimes (our
    # knowledge is weaker than LLaMA-generated, so a near-tie is
    # tolerated in at most two of the eight cells).
    wins = 0
    for locale in _LOCALES:
        for trainable in (False, True):
            base = locale_results[(locale, "cross-encoder", trainable)].macro_f1
            intent = locale_results[(locale, "cross-encoder-intent", trainable)].macro_f1
            wins += int(intent > base - 0.005)
    assert wins >= 6
