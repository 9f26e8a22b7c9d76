"""Blue/green rollout: healthy completion, SLO-guarded rollback, guards."""

import pytest

from repro.obs import EventLog, MetricsRegistry, ScrapeGrid, SloEvaluator
from repro.refresh import (
    RolloutController,
    RolloutState,
    SnapshotGenerator,
    SnapshotQualityGate,
    SnapshotStore,
    build_snapshot,
    mixed_version_violation,
    rollout_slo_specs,
)
from repro.scenarios import Drive, Traffic
from repro.serving import ClusterConfig, CosmoCluster
from repro.serving.chaos import response_ok
from repro.utils.rng import spawn_rng

SCRAPE_S = 0.5
ARRIVAL_S = 0.005
QUERIES = [f"query {i:03d}" for i in range(40)]


def _snapshots(poisoned=False):
    blue = build_snapshot({q: f"it is used for {q} (blue)." for q in QUERIES},
                          note="blue baseline")
    green_entries = ({} if poisoned
                     else {q: f"it is used for {q} (green)." for q in QUERIES})
    green = build_snapshot(green_entries, parent=blue, note="green refresh")
    return blue, green


def _rig(n_replicas=2, poisoned=False, name="rolltest"):
    blue, green = _snapshots(poisoned=poisoned)
    store = SnapshotStore()
    store.add(blue)
    registry = MetricsRegistry()
    event_log = EventLog()
    cluster = CosmoCluster(
        lambda i: SnapshotGenerator(blue),
        config=ClusterConfig(n_replicas=n_replicas, max_batch_size=8,
                             max_batch_delay_s=0.25, seed=3, name=name),
        registry=registry, event_log=event_log,
        response_validator=response_ok,
    )
    cluster.install_snapshot(blue)
    evaluator = SloEvaluator(registry, rollout_slo_specs(SCRAPE_S),
                             event_log=event_log)
    grid = ScrapeGrid(SCRAPE_S)
    controller = RolloutController(cluster, store, green, evaluator,
                                   SnapshotQualityGate(store))
    return cluster, store, blue, green, evaluator, grid, controller


def _drive(cluster, evaluator, grid, controller, n_requests,
           rolling=True, seed=3):
    """Zipf traffic through the scenario runner's request loop; returns
    the mixed-version answers it counted against the controller's store."""
    drive = Drive(cluster=cluster, gap_s=ARRIVAL_S)
    drive.grid, drive.evaluator, drive.controller = grid, evaluator, controller
    drive.apply(Traffic(n_requests, QUERIES, rolling=rolling),
                spawn_rng(seed, "rollout-test-traffic"))
    return drive.violations


# -- healthy rollout -------------------------------------------------------
def test_healthy_rollout_completes_one_step_per_tick():
    cluster, store, blue, green, evaluator, grid, controller = _rig()
    _drive(cluster, evaluator, grid, controller, 300, rolling=False)
    violations = _drive(cluster, evaluator, grid, controller, 900)

    report = controller.report()
    assert controller.state is RolloutState.COMPLETE
    assert report.state == "complete"
    assert not report.rolled_back
    # drain → swap → restore per replica, in router order.
    expected = [f"{step}:{rid}" for rid in cluster.router.replicas
                for step in ("drain", "swap", "restore")]
    assert list(report.steps) == expected
    assert set(cluster.snapshot_versions().values()) == {green.version}
    assert violations == 0
    assert not evaluator.any_fired

    totals = cluster.metrics_totals()
    assert (totals["served_fresh"] + totals["degraded_serves"]
            + totals["fallbacks"] == totals["requests"] == 1200)

    kinds = [e.kind for e in cluster.event_log.events()]
    assert "rollout.start" in kinds
    assert "rollout.complete" in kinds
    assert "rollout.rollback_start" not in kinds
    assert kinds.count("rollout.swap") == len(cluster.router.replicas)


def test_tick_after_done_is_a_noop():
    cluster, store, _, _, evaluator, grid, controller = _rig()
    _drive(cluster, evaluator, grid, controller, 900)
    assert controller.done
    steps_before = list(controller.report().steps)
    assert controller.tick(cluster.clock.now()) is None
    assert list(controller.report().steps) == steps_before


# -- poisoned rollout ------------------------------------------------------
def test_poisoned_rollout_rolls_back_to_parent_and_redrives():
    cluster, store, blue, green, evaluator, grid, controller = _rig(
        poisoned=True)
    _drive(cluster, evaluator, grid, controller, 300, rolling=False)
    violations = _drive(cluster, evaluator, grid, controller, 900)

    report = controller.report()
    assert controller.state is RolloutState.ROLLED_BACK
    assert report.rolled_back
    assert report.steps[-1] == "rollback"
    assert report.rollback_objective in ("availability", "latency-p99")
    assert report.rollback_alert
    assert report.redriven > 0
    # Every replica is back on the parent and nothing stays drained.
    assert set(cluster.snapshot_versions().values()) == {blue.version}
    assert all(not cluster.router.is_drained(rid)
               for rid in cluster.router.replicas)
    assert violations == 0

    totals = cluster.metrics_totals()
    assert (totals["served_fresh"] + totals["degraded_serves"]
            + totals["fallbacks"] == totals["requests"] == 1200)

    kinds = [e.kind for e in cluster.event_log.events()]
    assert "rollout.rollback_start" in kinds
    assert "rollout.rollback_complete" in kinds
    assert "rollout.complete" not in kinds


def test_rollback_heals_service_after_redrive():
    cluster, store, blue, _, evaluator, grid, controller = _rig(
        poisoned=True)
    _drive(cluster, evaluator, grid, controller, 300, rolling=False)
    _drive(cluster, evaluator, grid, controller, 900)
    assert controller.state is RolloutState.ROLLED_BACK
    cluster.flush()
    assert sum(len(s.dead_letters) for s in cluster.services.values()) == 0
    result = cluster.handle(QUERIES[0])
    assert result.text == blue.entries[QUERIES[0]]


# -- constructor guards ----------------------------------------------------
def test_target_without_parent_is_rejected():
    blue, _ = _snapshots()
    store = SnapshotStore()
    cluster = CosmoCluster(lambda i: SnapshotGenerator(blue),
                           config=ClusterConfig(n_replicas=2, seed=3,
                                                name="noparent"))
    registry = MetricsRegistry()
    evaluator = SloEvaluator(registry, rollout_slo_specs(SCRAPE_S))
    with pytest.raises(ValueError, match="no parent"):
        RolloutController(cluster, store, blue, evaluator,
                          SnapshotQualityGate(store))


def test_unknown_guarded_objective_is_rejected():
    blue, green = _snapshots()
    store = SnapshotStore()
    store.add(blue)
    cluster = CosmoCluster(lambda i: SnapshotGenerator(blue),
                           config=ClusterConfig(n_replicas=2, seed=3,
                                                name="badguard"))
    registry = MetricsRegistry()
    evaluator = SloEvaluator(registry, rollout_slo_specs(SCRAPE_S)[:1])
    with pytest.raises(ValueError, match="not in evaluator"):
        RolloutController(cluster, store, green, evaluator,
                          SnapshotQualityGate(store))


# -- snapshot generator ----------------------------------------------------
def test_snapshot_generator_answers_from_snapshot_or_fails_loudly():
    blue, green = _snapshots()
    generator = SnapshotGenerator(blue)
    known, unknown = generator.generate_batch([QUERIES[0], "never seen"]).require()
    assert known.text == blue.entries[QUERIES[0]]
    assert unknown.text == ""  # validator rejects → loud failure
    assert known.latency_s > 0.0
    generator.set_snapshot(green)
    assert generator.generate_batch([QUERIES[0]]).require()[0].text \
        == green.entries[QUERIES[0]]


# -- mixed-version detector ------------------------------------------------
def test_mixed_version_violation_flags_cross_version_cache_leak():
    from repro.serving.api import ServeOutcome, ServeResult

    blue, green = _snapshots()
    store = SnapshotStore()
    store.add(blue)
    store.add(green)
    cluster = CosmoCluster(lambda i: SnapshotGenerator(blue),
                           config=ClusterConfig(n_replicas=1, seed=3,
                                                name="leak"))
    cluster.install_snapshot(green)
    replica = cluster.router.replicas[0]

    def result(text, outcome=ServeOutcome.FRESH, source="cache:yearly"):
        return ServeResult(query=QUERIES[0], text=text, outcome=outcome,
                           source=source, latency_s=0.001, replica=replica)

    # Serving blue text while authoritative on green = leak.
    assert mixed_version_violation(store, cluster, result(
        blue.entries[QUERIES[0]]))
    # Serving the authoritative version's own text is fine.
    assert not mixed_version_violation(store, cluster, result(
        green.entries[QUERIES[0]]))
    # Degraded serves are exempt (known-stale is the contract)...
    assert not mixed_version_violation(store, cluster, result(
        blue.entries[QUERIES[0]], outcome=ServeOutcome.DEGRADED))
    # ...and so are non-cache sources and texts no snapshot owns.
    assert not mixed_version_violation(store, cluster, result(
        blue.entries[QUERIES[0]], source="direct"))
    assert not mixed_version_violation(store, cluster, result(
        "free-form text from nowhere."))
