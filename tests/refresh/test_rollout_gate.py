"""Quality-gated rollouts: gate pass, pre-rollout block, mid-rollout flip,
and no rollout without a gate."""

from dataclasses import dataclass, field

import pytest

from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple
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
from repro.scenarios import Drive, Traffic
from repro.serving import ClusterConfig, CosmoCluster
from repro.serving.chaos import response_ok
from repro.utils.rng import spawn_rng

SCRAPE_S = 0.5
ARRIVAL_S = 0.005
QUERIES = [f"query {i:03d}" for i in range(40)]
_MIX = (Relation.USED_FOR_FUNC, Relation.CAPABLE_OF, Relation.USED_TO,
        Relation.USED_FOR_AUD)


def _triples(count, offset=0, relations=_MIX, plausibility=0.8):
    return [
        KnowledgeTriple(
            head=QUERIES[k % len(QUERIES)],
            relation=relations[k % len(relations)],
            tail=f"intent {k % 11:02d}",
            domain="Apparel",
            behavior="search-buy",
            plausibility=plausibility,
            typicality=0.6,
        )
        for k in range(offset, offset + count)
    ]


def _snapshots(poisoned=False):
    blue = build_snapshot({q: f"it is used for {q} (blue)." for q in QUERIES},
                          triples=_triples(60), note="blue baseline")
    entries = {q: f"it is used for {q} (green)." for q in QUERIES}
    if poisoned:
        # Serves every query perfectly — only the knowledge drifted.
        triples = _triples(60, relations=(Relation.IS_A,), plausibility=0.05)
    else:
        triples = _triples(60) + _triples(8, offset=60)
    green = build_snapshot(entries, triples=triples, parent=blue,
                           note="green refresh")
    return blue, green


def _rig(poisoned=False, gate=None, name="gatetest"):
    blue, green = _snapshots(poisoned=poisoned)
    store = SnapshotStore()
    store.add(blue)
    registry = MetricsRegistry()
    event_log = EventLog()
    cluster = CosmoCluster(
        lambda i: SnapshotGenerator(blue),
        config=ClusterConfig(n_replicas=2, max_batch_size=8,
                             max_batch_delay_s=0.25, seed=3, name=name),
        registry=registry, event_log=event_log,
        response_validator=response_ok,
    )
    cluster.install_snapshot(blue)
    evaluator = SloEvaluator(registry, rollout_slo_specs(SCRAPE_S),
                             event_log=event_log)
    grid = ScrapeGrid(SCRAPE_S)
    if gate is None:
        gate = SnapshotQualityGate(store)
    controller = RolloutController(cluster, store, green, evaluator,
                                   quality_gate=gate)
    return cluster, store, blue, green, evaluator, grid, controller


def _drive(cluster, evaluator, grid, controller, n_requests,
           rolling=True, seed=3):
    """Zipf traffic through the scenario runner's request loop."""
    drive = Drive(cluster=cluster, gap_s=ARRIVAL_S)
    drive.grid, drive.evaluator, drive.controller = grid, evaluator, controller
    drive.apply(Traffic(n_requests, QUERIES, rolling=rolling),
                spawn_rng(seed, "rollout-gate-traffic"))


def test_passing_gate_completes_and_emits_gate_pass():
    cluster, store, blue, green, evaluator, grid, controller = _rig()
    _drive(cluster, evaluator, grid, controller, 300, rolling=False)
    _drive(cluster, evaluator, grid, controller, 900)

    assert controller.state is RolloutState.COMPLETE
    assert controller.gate_decision.promote
    assert controller.gate_decision.breaches == ()
    assert set(cluster.snapshot_versions().values()) == {green.version}

    kinds = [e.kind for e in cluster.event_log.events()]
    assert kinds.count("rollout.gate_pass") == 1  # edge-triggered, not per tick
    assert "rollout.gate_block" not in kinds
    assert "rollout.start" in kinds and "rollout.complete" in kinds


def test_blocking_gate_refuses_before_first_step():
    cluster, store, blue, green, evaluator, grid, controller = _rig(
        poisoned=True)
    _drive(cluster, evaluator, grid, controller, 300, rolling=False)
    _drive(cluster, evaluator, grid, controller, 900)

    assert controller.state is RolloutState.BLOCKED
    assert not controller.gate_decision.promote
    assert controller.gate_decision.breaches  # named, human-readable
    assert controller.steps_executed == ["gate-block"]  # no replica ever touched
    assert set(cluster.snapshot_versions().values()) == {blue.version}

    kinds = [e.kind for e in cluster.event_log.events()]
    assert "rollout.gate_block" in kinds
    assert "rollout.blocked" in kinds
    assert "rollout.start" not in kinds
    assert "rollout.swap" not in kinds
    # Blocked is terminal: further ticks are no-ops.
    assert controller.done
    assert controller.tick(cluster.clock.now()) is None


@dataclass
class _FlippingGate:
    """Stateful fake: promotes for the first N assessments, then blocks."""

    promote_ticks: int
    calls: int = 0
    decisions: list = field(default_factory=list)

    @dataclass(frozen=True)
    class _Decision:
        promote: bool
        breaches: tuple

    def assess(self, candidate):
        self.calls += 1
        if self.calls <= self.promote_ticks:
            decision = self._Decision(promote=True, breaches=())
        else:
            decision = self._Decision(
                promote=False,
                breaches=("relation-mix-shift: relation_js=1.0000 > 0.3500",))
        self.decisions.append(decision)
        return decision


def test_gate_flip_mid_rollout_triggers_same_tick_rollback():
    gate = _FlippingGate(promote_ticks=2)
    cluster, store, blue, green, evaluator, grid, controller = _rig(
        gate=gate)
    _drive(cluster, evaluator, grid, controller, 300, rolling=False)
    _drive(cluster, evaluator, grid, controller, 900)

    assert controller.state is RolloutState.ROLLED_BACK
    assert controller.rollback_objective == "knowledge-quality"
    assert controller.rollback_alert.startswith("relation-mix-shift")
    # Two promoted ticks executed drain + swap, then the flip rolled back.
    assert controller.steps_executed[-1] == "rollback"
    assert set(cluster.snapshot_versions().values()) == {blue.version}

    kinds = [e.kind for e in cluster.event_log.events()]
    assert "rollout.gate_pass" in kinds
    assert "rollout.gate_block" in kinds
    assert "rollout.rollback_start" in kinds
    assert "rollout.rollback_complete" in kinds


def test_gateless_controller_is_rejected():
    blue, green = _snapshots()
    store = SnapshotStore()
    store.add(blue)
    registry = MetricsRegistry()
    cluster = CosmoCluster(
        lambda i: SnapshotGenerator(blue),
        config=ClusterConfig(n_replicas=2, seed=3, name="nogate"),
        registry=registry,
    )
    evaluator = SloEvaluator(registry, rollout_slo_specs(SCRAPE_S))
    with pytest.raises(ValueError, match="needs a quality_gate"):
        RolloutController(cluster, store, green, evaluator, quality_gate=None)
    assert green.version not in store  # rejected before it is registered
