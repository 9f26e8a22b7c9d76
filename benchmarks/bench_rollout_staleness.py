"""Rollout staleness vs availability: blue/green against a naive restart.

Both arms deploy the *same* healthy green snapshot under the same Zipf
traffic.  The blue/green arm rolls it one replica at a time through a
:class:`~repro.refresh.rollout.RolloutController` (drain → swap+warm →
restore), so every request during the deploy window is answered from a
warm cache — some answers are simply the parent snapshot's content until
that replica's turn comes.  The restart arm swaps every replica at once
with a cold cache (what restarting the fleet onto a new knowledge build
does): zero staleness, but every request until the batch path refills
the cache falls through to the fallback.

The trade this pins: blue/green pays *bounded staleness* (old knowledge,
served as fresh, for at most the rollout's duration) where the restart
pays *availability* (no knowledge at all).  The deploy-window
availability of blue/green must strictly dominate the restart's, and
neither arm may ever serve a mixed-version answer — an answer whose text
belongs to a snapshot other than the one its result is stamped with
(``ServeResult.snapshot_version``, the version the serving replica held
when it answered).
"""

from conftest import publish

from repro.obs import EventLog, ScrapeGrid, SloEvaluator
from repro.refresh import (
    RolloutController,
    SnapshotGenerator,
    SnapshotQualityGate,
    SnapshotStore,
    build_snapshot,
    mixed_version_violation,
    rollout_slo_specs,
)
from repro.reporting import Table, format_percent
from repro.scenarios import zipf_traffic
from repro.serving import ClusterConfig, CosmoCluster
from repro.serving.chaos import response_ok
from repro.utils.rng import spawn_rng

INTER_ARRIVAL_S = 0.005
SCRAPE_INTERVAL_S = 0.5
N_QUERIES = 150
N_REQUESTS = 3000
#: Request index at which the deploy begins, and the window over which
#: deploy-time availability is scored (6 s — covers the 9-step rollout
#: and the restart arm's cache-refill transient).
DEPLOY_AFTER = 600
WINDOW = 1200
QUERIES = [f"query {i:03d}" for i in range(N_QUERIES)]


def _drive(mode: str, traffic: list[str], registry) -> dict:
    blue = build_snapshot({q: f"it is used for {q} (blue)." for q in QUERIES},
                          note="blue baseline")
    green = build_snapshot({q: f"it is used for {q} (green)." for q in QUERIES},
                           parent=blue, note="green refresh")
    store = SnapshotStore()
    store.add(blue)

    config = ClusterConfig(n_replicas=3, max_batch_size=16,
                           max_batch_delay_s=0.25, seed=7, name=mode)
    event_log = EventLog()
    cluster = CosmoCluster(lambda i: SnapshotGenerator(blue), config=config,
                           registry=registry, event_log=event_log,
                           response_validator=response_ok)
    cluster.install_snapshot(blue)

    evaluator = SloEvaluator(
        registry, rollout_slo_specs(SCRAPE_INTERVAL_S), event_log=event_log)
    grid = ScrapeGrid(SCRAPE_INTERVAL_S)
    controller = RolloutController(cluster, store, green, evaluator,
                                   quality_gate=SnapshotQualityGate(store))

    deploy_ts = None
    last_blue_ts = None
    blue_after_deploy = 0
    window_served = 0
    window_total = 0
    violations = 0
    for index, query in enumerate(traffic):
        if index == DEPLOY_AFTER:
            deploy_ts = cluster.clock.now()
            if mode == "restart":
                # Stop-the-world deploy: every replica swaps at once and
                # comes back cold — same authoritative version, no warm
                # serving table until batches refill it.
                for replica_id in cluster.router.replicas:
                    cluster.swap_snapshot(replica_id, green)
                    cluster.services[replica_id].cache.install_snapshot(
                        green.version, {})
        result = cluster.handle(query)
        if mixed_version_violation(store, result):
            violations += 1
        if deploy_ts is not None and result.text.endswith("(blue)."):
            blue_after_deploy += 1
            last_blue_ts = cluster.clock.now()
        if DEPLOY_AFTER <= index < DEPLOY_AFTER + WINDOW:
            window_total += 1
            window_served += result.served
        cluster.clock.advance(INTER_ARRIVAL_S)
        for ts in grid.due(cluster.clock.now()):
            evaluator.evaluate(ts)
            if mode == "bluegreen" and index >= DEPLOY_AFTER and not controller.done:
                controller.tick(ts)
    cluster.flush()

    totals = cluster.metrics_totals()
    return {
        "mode": mode,
        "window_availability": window_served / window_total,
        "fallbacks": totals["fallbacks"],
        "blue_after_deploy": blue_after_deploy,
        "staleness_s": (0.0 if last_blue_ts is None
                        else last_blue_ts - deploy_ts),
        "p99_ms": cluster.percentile(99) * 1000.0,
        "violations": violations,
        "fired": evaluator.any_fired,
        "rollout_state": controller.state.value,
        "versions": set(cluster.snapshot_versions().values()),
        "green": green.version,
        "totals": totals,
    }


def test_rollout_staleness(obs_registry):
    traffic = zipf_traffic(spawn_rng(7, "rollout-staleness-traffic"), QUERIES, N_REQUESTS)
    arms = [_drive(mode, traffic, obs_registry)
            for mode in ("bluegreen", "restart")]

    table = Table(
        "Knowledge deploy — blue/green rollout vs naive restart",
        ["Arm", "Deploy-window served", "Fallbacks", "Stale (blue) serves",
         "Staleness (s)", "p99 (ms)", "Mixed-version"])
    for arm in arms:
        table.add_row(
            arm["mode"],
            format_percent(arm["window_availability"]),
            arm["fallbacks"],
            arm["blue_after_deploy"],
            f"{arm['staleness_s']:.2f}",
            f"{arm['p99_ms']:.2f}",
            arm["violations"],
        )
    publish("rollout_staleness", table.render())

    bluegreen, restart = arms
    # Both arms end fully on green with intact accounting and no
    # cross-version leaks.
    for arm in arms:
        totals = arm["totals"]
        assert (totals["served_fresh"] + totals["degraded_serves"]
                + totals["fallbacks"] == totals["requests"] == N_REQUESTS)
        assert arm["versions"] == {arm["green"]}
        assert arm["violations"] == 0

    # The headline trade: blue/green serves every deploy-window request
    # (no alert ever fires) at the price of bounded staleness; the
    # restart serves nothing stale but drops availability on the floor.
    assert bluegreen["rollout_state"] == "complete"
    assert bluegreen["window_availability"] == 1.0
    assert not bluegreen["fired"]
    assert bluegreen["window_availability"] > restart["window_availability"]
    assert restart["fallbacks"] > 0
    assert restart["blue_after_deploy"] == 0
    assert bluegreen["blue_after_deploy"] > 0
    assert bluegreen["staleness_s"] <= 9 * SCRAPE_INTERVAL_S
