"""Monitoring overhead: what the scrape/evaluate/emit loop costs.

Drives identical Zipf traffic through two clusters — one bare, one with
the full continuous-monitoring stack attached (three burn-rate SLOs
evaluated at every point of a fine scrape grid, and a structured event
log wired into every serving component) — and checks that monitoring
stays *bounded*: the evaluation count is exactly the drive horizon over
the grid interval, the event log never exceeds its cap, and the
wall-clock cost of the monitored drive stays within a generous constant
factor of the bare one.  The wall-clock ratio is a smoke bound (machines vary); the
structural bounds are the real contract.
"""

import numpy as np
from conftest import publish

from repro.obs import (
    BurnRateRule,
    EventLog,
    MetricSum,
    MetricsRegistry,
    ScrapeGrid,
    SloEvaluator,
    SloSpec,
    WallProfiler,
)
from repro.reporting import Table
from repro.serving import ClusterConfig, CosmoCluster
from repro.serving.chaos import ScriptedGenerator
from repro.utils.rng import spawn_rng

N_REQUESTS = 3000
N_QUERIES = 200
INTER_ARRIVAL_S = 0.002
SCRAPE_INTERVAL_S = 0.25


def _traffic(seed: int) -> list[str]:
    rng = spawn_rng(seed, "monitor-overhead-traffic")
    weights = 1.0 / np.arange(1, N_QUERIES + 1) ** 1.3
    weights /= weights.sum()
    picks = rng.choice(N_QUERIES, size=N_REQUESTS, p=weights)
    return [f"query {int(i):03d}" for i in picks]


def _specs() -> list[SloSpec]:
    served = ("serving_served_fresh_total", "serving_degraded_serves_total")
    windows = (BurnRateRule(long_s=4 * SCRAPE_INTERVAL_S,
                            short_s=SCRAPE_INTERVAL_S, max_burn_rate=10.0),)
    return [
        SloSpec(name="availability", description="served with knowledge",
                target=0.99, good=MetricSum(served),
                total=MetricSum(served + ("serving_fallbacks_total",)),
                windows=windows),
        SloSpec(name="latency-p99", description="latency under 250ms",
                target=0.95,
                good=MetricSum(("cluster_request_latency_seconds",), le=0.25),
                total=MetricSum(("cluster_request_latency_seconds",)),
                windows=windows),
        SloSpec(name="cache-hit-rate", description="cache-layer answers",
                target=0.50,
                good=MetricSum(("cache_requests_total",),
                               where=(("outcome", ("layer1_hit", "layer2_hit")),)),
                total=MetricSum(("cache_requests_total",)),
                windows=windows),
    ]


def _build(monitored: bool):
    registry = MetricsRegistry()
    event_log = EventLog(max_events=500) if monitored else None
    cluster = CosmoCluster(
        lambda i: ScriptedGenerator(),
        config=ClusterConfig(n_replicas=3, max_batch_size=16,
                             max_batch_delay_s=0.25, seed=7,
                             name="mon" if monitored else "bare"),
        registry=registry,
        event_log=event_log,
    )
    # Warm the yearly layer so the fault-free drive serves fresh — a cold
    # start is all fallbacks, which is the chaos scenario's job to model.
    cluster.preload_yearly({
        q: ScriptedGenerator.knowledge_for(q)
        for q in (f"query {i:03d}" for i in range(N_QUERIES))
    })
    grid = evaluator = None
    if monitored:
        grid = ScrapeGrid(SCRAPE_INTERVAL_S)
        evaluator = SloEvaluator(registry, _specs(), event_log=event_log)
    return cluster, grid, evaluator


def _drive(cluster, grid, evaluator, traffic, profiler, section):
    with profiler.section(section):
        for query in traffic:
            cluster.handle(query)
            cluster.clock.advance(INTER_ARRIVAL_S)
            if grid is not None:
                for ts in grid.due(cluster.clock.now()):
                    evaluator.evaluate(ts)
        cluster.flush()


def test_monitor_overhead(benchmark):
    traffic = _traffic(seed=7)
    profiler = WallProfiler()

    bare, _, _ = _build(monitored=False)
    monitored, grid, evaluator = _build(monitored=True)
    _drive(bare, None, None, traffic, profiler, "bare")
    _drive(monitored, grid, evaluator, traffic, profiler, "monitored")

    bare_s = profiler.total_s("bare")
    monitored_s = profiler.total_s("monitored")
    ratio = monitored_s / bare_s if bare_s > 0 else float("inf")

    # Structural bounds — the deterministic contract.
    expected_scrapes = int(N_REQUESTS * INTER_ARRIVAL_S / SCRAPE_INTERVAL_S)
    event_log = monitored.event_log
    assert len(event_log) <= 500
    assert event_log.emitted == len(event_log) + event_log.dropped
    assert evaluator.evaluations == expected_scrapes
    assert not evaluator.any_fired  # fault-free drive must stay quiet

    # Same traffic, same serving outcome — monitoring observes, never steers.
    assert monitored.metrics_totals()["requests"] == bare.metrics_totals()["requests"]
    assert monitored.availability == bare.availability

    table = Table("Monitoring overhead — same drive, bare vs monitored",
                  ["Arm", "Wall (s)", "Evaluations", "Events"])
    table.add_row("bare", f"{bare_s:.3f}", 0, 0)
    table.add_row("monitored", f"{monitored_s:.3f}", evaluator.evaluations,
                  event_log.emitted)
    publish("monitor_overhead", table.render()
            + f"\noverhead ratio (nondeterministic): {ratio:.2f}x")

    # Wall-clock smoke bound: generous, but catches an evaluation loop
    # that accidentally goes quadratic in history length.
    assert monitored_s <= bare_s * 10 + 0.5

    # Benchmark kernel: the steady-state monitored request path.
    def kernel():
        for query in traffic[:200]:
            monitored.handle(query)
            monitored.clock.advance(INTER_ARRIVAL_S)
            for ts in grid.due(monitored.clock.now()):
                evaluator.evaluate(ts)

    benchmark(kernel)
