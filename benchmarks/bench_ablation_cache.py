"""Cache-design ablation (§3.5.1).

The two-layer asynchronous cache combines a pre-loaded yearly layer with
a batch-updated daily layer.  The bench serves identical Zipf traffic
against (a) the full design, (b) daily layer only (no yearly preload),
and (c) no batch processing — quantifying what each layer buys.
"""

import numpy as np
import pytest
from conftest import publish

from repro.reporting import Table, format_percent
from repro.serving import CosmoService, ServeRequest
from repro.utils.rng import spawn_rng


def _traffic(world, n_requests, seed):
    rng = spawn_rng(seed, "cache-traffic")
    queries = world.queries.broad()
    weights = np.array([q.popularity for q in queries])
    weights = weights / weights.sum()
    picks = rng.choice(len(queries), size=n_requests, p=weights)
    return [queries[int(i)].text for i in picks]


def _serve(lm, traffic, preload_yearly: bool, run_batches: bool, head: list[str]):
    service = CosmoService(lm, fallback_response="")
    if preload_yearly:
        warm = {q: g.text for q, g in zip(head, lm.generate_batch(head).require())}
        service.cache.preload_yearly(warm)
    for start in range(0, len(traffic), 500):
        service.serve_batch(
            [ServeRequest(query=query) for query in traffic[start : start + 500]])
        if run_batches:
            service.run_batch()
    return service


@pytest.fixture(scope="module")
def cache_variants(bench_pipeline):
    from collections import Counter

    world = bench_pipeline.world
    lm = bench_pipeline.cosmo_lm
    traffic = _traffic(world, 3000, seed=17)
    head = [q for q, _ in Counter(traffic).most_common(20)]
    return {
        "yearly + daily (full design)": _serve(lm, traffic, True, True, head),
        "daily layer only": _serve(lm, traffic, False, True, head),
        "no batch processing": _serve(lm, traffic, True, False, head),
    }


def test_cache_layer_ablation(cache_variants):
    table = Table("Cache ablation — identical Zipf traffic",
                  ["Configuration", "Hit rate", "L1 hits", "L2 hits", "Fallbacks"])
    snapshot = {}
    for name, service in cache_variants.items():
        stats = service.cache.stats
        snapshot[name] = (stats.hit_rate, stats.layer1_hits, stats.layer2_hits)
        table.add_row(name, format_percent(stats.hit_rate),
                      stats.layer1_hits, stats.layer2_hits,
                      service.metrics.fallbacks)
    publish("ablation_cache", table.render())

    full_rate, full_l1, full_l2 = snapshot["yearly + daily (full design)"]
    daily_rate, _, _ = snapshot["daily layer only"]
    no_batch_rate, _, _ = snapshot["no batch processing"]
    # The full design dominates: the yearly layer catches head traffic
    # immediately, batch processing is what fills the tail.
    assert full_rate >= daily_rate
    assert full_rate > no_batch_rate + 0.2
    assert full_l1 > 0 and full_l2 > 0
