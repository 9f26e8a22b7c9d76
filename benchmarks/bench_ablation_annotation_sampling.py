"""Eq. 2 re-weighting ablation (§3.3.2).

The paper re-weights annotation sampling by log-knowledge-frequency over
head popularity so long-tail knowledge is not starved.  The bench
compares Eq. 2 sampling with uniform sampling on (a) long-tail coverage —
how many annotated candidates hang off low-popularity heads — and (b)
distinct knowledge tails covered per annotation budget.
"""

import numpy as np
import pytest
from conftest import publish

from repro.core.annotation_sampling import sample_for_annotation
from repro.reporting import Table, format_percent


def _head_popularity(candidate, cobuy, searchbuy):
    sample = candidate.sample
    if sample.behavior == "co-buy":
        return cobuy.degree(sample.product_ids[0]) * cobuy.degree(sample.product_ids[1])
    clicks, _ = searchbuy.query_engagement(sample.query_id)
    return (clicks + 1) * (searchbuy.product_degree(sample.product_ids[0]) + 1)


@pytest.fixture(scope="module")
def sampling_comparison(bench_pipeline):
    pool = bench_pipeline.filtered
    cobuy, searchbuy = bench_pipeline.cobuy, bench_pipeline.searchbuy
    budget = 1000
    weighted = sample_for_annotation(pool, cobuy, searchbuy, budget, seed=3)
    uniform = sample_for_annotation(pool, cobuy, searchbuy, budget, uniform=True, seed=3)

    popularity = np.array([_head_popularity(c, cobuy, searchbuy) for c in pool])
    tail_threshold = np.median(popularity)

    def describe(sample):
        pops = np.array([_head_popularity(c, cobuy, searchbuy) for c in sample])
        return {
            "long_tail_share": float((pops <= tail_threshold).mean()),
            "distinct_tails": len({c.tail for c in sample if c.tail}),
        }

    return describe(weighted), describe(uniform), budget


def test_eq2_reweighting_improves_long_tail_coverage(sampling_comparison):
    weighted, uniform, budget = sampling_comparison
    table = Table("Eq. 2 annotation re-weighting vs uniform sampling",
                  ["Metric", "Eq. 2", "Uniform"])
    table.add_row("Long-tail head share",
                  format_percent(weighted["long_tail_share"]),
                  format_percent(uniform["long_tail_share"]))
    table.add_row("Distinct knowledge tails",
                  weighted["distinct_tails"], uniform["distinct_tails"])
    table.add_row("Annotation budget", budget, budget)
    publish("ablation_annotation_sampling", table.render())

    # Eq. 2 shifts annotation budget toward long-tail heads — the
    # property the paper designed it for.
    assert weighted["long_tail_share"] > uniform["long_tail_share"]
