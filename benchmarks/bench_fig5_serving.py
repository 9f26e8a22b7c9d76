"""Figure 5 / §3.5: the serving deployment.

Simulates a day of query traffic against the two-layer asynchronous
cache + feature store deployment and compares it with serving the
teacher LLM directly per request — the comparison that justifies the
paper's design (cache-speed latency for most traffic at LLM-refresh
cost, vs seconds-per-request for a 30B model).
"""

import numpy as np
from conftest import publish

from repro.llm import TeacherLLM
from repro.reporting import Table, format_percent
from repro.serving import CosmoService, ServeRequest
from repro.utils.rng import spawn_rng


def _traffic(world, n_requests: int, seed: int) -> list[str]:
    """Zipf-weighted broad-query traffic."""
    rng = spawn_rng(seed, "serving-traffic")
    queries = world.queries.broad()
    weights = np.array([q.popularity for q in queries])
    weights = weights / weights.sum()
    picks = rng.choice(len(queries), size=n_requests, p=weights)
    return [queries[int(i)].text for i in picks]


def test_fig5_serving_deployment(bench_pipeline, obs_registry):
    world = bench_pipeline.world
    lm = bench_pipeline.cosmo_lm
    traffic = _traffic(world, n_requests=4000, seed=7)

    service = CosmoService(lm, fallback_response="",
                           registry=obs_registry, name="cached")
    # Pre-load layer 1 with the "yearly frequent searches": the head of
    # the traffic distribution.
    from collections import Counter

    head = [q for q, _ in Counter(traffic).most_common(20)]
    warm = {q: g.text for q, g in zip(head, lm.generate_batch(head).require())}
    service.cache.preload_yearly(warm)

    # A day of traffic with periodic batch processing, fed through the
    # batch-first ingress one window at a time.
    for start in range(0, len(traffic), 500):
        service.serve_batch(
            [ServeRequest(query=query) for query in traffic[start : start + 500]])
        service.run_batch()
    service.daily_refresh(refresh_stale=False)

    stats = service.cache.stats

    # Direct-teacher serving of a small slice of the same traffic, sharing
    # the registry: both arms land in one metrics surface, split by the
    # ``service`` label.
    # TeacherLLM implements KnowledgeGenerator directly — no adapter.
    teacher_service = CosmoService(TeacherLLM(world, seed=7),
                                   registry=obs_registry, name="direct")
    teacher_service.serve_batch(
        [ServeRequest(query=query, direct=True) for query in traffic[:25]])

    # Read the headline numbers back off the shared registry rather than
    # the service objects — what the snapshot artifact will contain.
    latency = obs_registry.get("serving_request_latency_seconds")
    cached_p99 = latency.labels(service="cached").percentile(99)
    direct_p50 = latency.labels(service="direct").percentile(50)
    cache_requests = obs_registry.get("cache_requests_total")
    registry_hits = (cache_requests.labels(store="cached", outcome="layer1_hit").value
                     + cache_requests.labels(store="cached", outcome="layer2_hit").value)
    assert registry_hits == stats.layer1_hits + stats.layer2_hits

    table = Table("Figure 5 — serving simulation (one day of traffic)",
                  ["Metric", "Value"])
    table.add_row("Requests", stats.requests)
    table.add_row("Cache hit rate", format_percent(stats.hit_rate))
    table.add_row("Layer-1 (yearly) hits", stats.layer1_hits)
    table.add_row("Layer-2 (daily) hits", stats.layer2_hits)
    table.add_row("Batch runs", service.metrics.batch_runs)
    table.add_row("Feature-store entries", len(service.features))
    table.add_row("Cached p99 latency", f"{cached_p99 * 1000:.1f} ms")
    table.add_row("Direct OPT-30b p50 latency", f"{direct_p50:.2f} s")
    table.add_row("Latency ratio (direct/cached)", f"{direct_p50 / cached_p99:,.0f}x")
    publish("fig5_serving", table.render())

    # Shape: most traffic is served from cache at millisecond latency,
    # while direct large-model serving costs whole seconds per request.
    assert stats.hit_rate > 0.6
    assert direct_p50 / cached_p99 > 100
