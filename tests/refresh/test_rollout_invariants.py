"""Property: rollout + chaos never breaks cluster accounting.

Whatever interleaving of traffic, scrape ticks, rollout steps, fault-plan
toggles and rollbacks hypothesis finds, every request the cluster accepts
is exactly one of fresh / degraded / fallback, nothing is double-counted,
no replica is left drained, and dead letters are conserved (every one is
either still queued or was re-driven).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import EventLog, MetricsRegistry, ScrapeGrid, SloEvaluator
from repro.refresh import (
    RolloutController,
    RolloutState,
    SnapshotGenerator,
    SnapshotQualityGate,
    SnapshotStore,
    build_snapshot,
    rollout_slo_specs,
)
from repro.scenarios import Drive
from repro.serving import (ClusterConfig, CosmoCluster, FaultInjector, FaultPlan,
                           FlakyGenerator)
from repro.serving.chaos import response_ok
from repro.utils.rng import spawn_rng

SCRAPE_S = 0.5
QUERIES = [f"query {i:03d}" for i in range(24)]


@st.composite
def rollout_schedules(draw):
    """Ops interleaving traffic with fault-plan flips; the scrape grid
    (and therefore rollout stepping) advances implicitly with time."""
    ops = []
    for _ in range(draw(st.integers(30, 120))):
        kind = draw(st.sampled_from(
            ["request"] * 6 + ["plan", "gap", "flush"]))
        if kind == "request":
            ops.append((kind, draw(st.integers(0, len(QUERIES) - 1))))
        elif kind == "plan":
            ops.append((kind, draw(st.floats(0.0, 1.0))))
        elif kind == "gap":
            ops.append((kind, draw(st.floats(0.01, 1.5))))
        else:
            ops.append((kind, None))
    return ops


@given(rollout_schedules(), st.booleans(), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_accounting_and_dead_letter_conservation_under_chaos(
        ops, poisoned, seed):
    blue = build_snapshot({q: f"it is used for {q} (blue)." for q in QUERIES})
    green_entries = ({} if poisoned
                     else {q: f"it is used for {q} (green)." for q in QUERIES})
    green = build_snapshot(green_entries, parent=blue)
    store = SnapshotStore()
    store.add(blue)

    injectors = {}

    def factory(index):
        injector = FaultInjector(FaultPlan(), seed=seed + index)
        injectors[index] = injector
        return FlakyGenerator(SnapshotGenerator(blue), injector)

    registry = MetricsRegistry()
    cluster = CosmoCluster(
        factory,
        config=ClusterConfig(n_replicas=2, max_batch_size=8,
                             max_batch_delay_s=0.25, seed=seed % 101,
                             name="chaosroll"),
        registry=registry, event_log=EventLog(),
        response_validator=response_ok,
    )
    cluster.install_snapshot(blue)
    evaluator = SloEvaluator(registry, rollout_slo_specs(SCRAPE_S))
    grid = ScrapeGrid(SCRAPE_S)
    controller = RolloutController(cluster, store, green, evaluator,
                                   SnapshotQualityGate(store))
    drive = Drive(cluster=cluster)
    drive.grid, drive.evaluator, drive.controller = grid, evaluator, controller

    rng = spawn_rng(seed, "chaos-arrivals")
    requests = 0
    redriven_total = 0
    for kind, arg in ops:
        if kind == "request":
            cluster.handle(QUERIES[arg])
            requests += 1
            cluster.clock.advance(float(rng.uniform(0.001, 0.02)))
        elif kind == "plan":
            for injector in injectors.values():
                injector.plan = FaultPlan.mixed(arg)
        elif kind == "gap":
            cluster.clock.advance(arg)
        elif kind == "flush":
            cluster.flush()
        drive.observe(rolling=True)     # the scenario runner's scrape step
    for injector in injectors.values():
        injector.plan = FaultPlan()
    cluster.flush()
    redriven_total = controller.redriven

    totals = cluster.metrics_totals()
    # Exactly-once accounting survives faults, swaps and rollbacks.
    assert (totals["served_fresh"] + totals["degraded_serves"]
            + totals["fallbacks"] == totals["requests"])
    assert totals["requests"] == totals["handled"] == requests

    # Dead letters are conserved: everything ever dead-lettered is still
    # queued, or was re-driven (by the rollback or a later redrive).
    dead_lettered = sum(s.metrics.dead_lettered
                        for s in cluster.services.values())
    queued = sum(len(s.dead_letters) for s in cluster.services.values())
    redriven_metric = sum(s.metrics.redriven
                          for s in cluster.services.values())
    assert queued <= dead_lettered
    assert redriven_metric >= redriven_total

    # The rollout ends in a legal terminal or in-flight state and never
    # leaves a replica drained once done.
    assert controller.state in (RolloutState.IDLE, RolloutState.ROLLING,
                                RolloutState.COMPLETE,
                                RolloutState.ROLLED_BACK)
    if controller.state is RolloutState.COMPLETE:
        assert set(cluster.snapshot_versions().values()) == {green.version}
    if controller.state is RolloutState.ROLLED_BACK:
        assert set(cluster.snapshot_versions().values()) == {blue.version}
        assert all(not cluster.router.is_drained(rid)
                   for rid in cluster.router.replicas)
