"""Monitoring overhead: what the scrape/evaluate/emit loop costs.

Drives identical Zipf traffic through two clusters with the scenario
runner's request loop (``Drive.apply(Traffic(...))``) — one bare, one with
the full continuous-monitoring stack attached (three burn-rate SLOs
evaluated at every point of a fine scrape grid, and a structured event
log wired into every serving component) — and checks that monitoring
stays *bounded*: the evaluation count is exactly the drive horizon over
the grid interval, the event log never exceeds its cap, and the
wall-clock cost of the monitored drive stays within a generous constant
factor of the bare one.  The wall-clock ratio is a smoke bound (machines vary); the
structural bounds are the real contract.
"""

from conftest import publish

from repro.obs import (
    BurnRateRule,
    EventLog,
    MetricSum,
    MetricsRegistry,
    ScrapeGrid,
    SloEvaluator,
    SloSpec,
    wall_now,
)
from repro.reporting import Table
from repro.scenarios import Drive, Traffic, zipf_traffic
from repro.serving import ClusterConfig, CosmoCluster
from repro.serving.chaos import ScriptedGenerator
from repro.utils.rng import spawn_rng

N_REQUESTS = 3000
N_QUERIES = 200
INTER_ARRIVAL_S = 0.002
SCRAPE_INTERVAL_S = 0.25
QUERIES = [f"query {i:03d}" for i in range(N_QUERIES)]


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


def _build(monitored: bool) -> Drive:
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
    cluster.preload_yearly({q: ScriptedGenerator.knowledge_for(q) for q in QUERIES})
    drive = Drive(cluster=cluster, gap_s=INTER_ARRIVAL_S)
    if monitored:
        drive.grid = ScrapeGrid(SCRAPE_INTERVAL_S)
        drive.evaluator = SloEvaluator(registry, _specs(), event_log=event_log)
    return drive


def _timed(drive: Drive, traffic: list[str]) -> float:
    """Wall seconds to play ``traffic`` in order and flush."""
    started = wall_now()
    drive.apply(Traffic(None, traffic))
    drive.cluster.flush()
    return wall_now() - started


def test_monitor_overhead():
    traffic = zipf_traffic(spawn_rng(7, "monitor-overhead-traffic"), QUERIES, N_REQUESTS)

    bare_drive, monitored_drive = _build(monitored=False), _build(monitored=True)
    bare_s = _timed(bare_drive, traffic)
    monitored_s = _timed(monitored_drive, traffic)
    bare, monitored = bare_drive.cluster, monitored_drive.cluster
    evaluator = monitored_drive.evaluator
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
