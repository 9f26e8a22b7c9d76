"""SLO-guarded blue/green snapshot rollout across a serving cluster.

:class:`RolloutController` deploys a child snapshot one replica at a
time: drain the replica via the consistent-hash router (its keys move to
ring neighbors, everything else stays put), swap its snapshot (one
atomic step that also warms the cache from the snapshot's serving
table), restore it, then move to the next replica.  The controller is
tick-driven — call :meth:`RolloutController.tick` once per telemetry
scrape, after the :class:`~repro.obs.slo.SloEvaluator` evaluated — and
executes exactly one step per tick, so SLO damage from any step is
observed before the next one runs.

Before every step the controller checks two guards.  The **quality
gate** (a :class:`~repro.refresh.quality.SnapshotQualityGate`, when
provided) judges the *knowledge itself*: a candidate whose relation mix,
critic scores or edge volume drifted from its parent is **blocked before
the first replica is touched** (state ``BLOCKED``), and a gate that
turns negative mid-rollout triggers the same-tick rollback below.  The
**SLO guard** judges the serving impact: if any guarded objective
(availability, latency by default) has an alert pending or firing, the
rollout **rolls back in the same tick** — drained replicas are restored,
every replica already on the target version is re-drained, re-swapped to
the parent snapshot and restored, and the dead-letter queues are
re-driven so queries that died against the bad snapshot heal
immediately.  Every state edge lands in the structured event log
(``rollout.*`` kinds, including ``rollout.gate_pass`` /
``rollout.gate_block``; a drain or restore is the router's
``router.drain`` / ``router.restore``), so alert reports
cross-reference the rollout that caused them.

:class:`SnapshotGenerator` is the version-aware generator used by the
rollout drives: it answers exactly what the replica's current snapshot
says, so "which version is this replica serving" has ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.llm.interface import Generation, GenerationBatch, LatencyModel
from repro.obs.slo import Alert, BurnRateRule, MetricSum, SloEvaluator, SloSpec
from repro.serving.api import ServeOutcome, ServeResult
from repro.serving.cluster import CosmoCluster
from repro.refresh.snapshot import KgSnapshot, SnapshotStore

__all__ = [
    "SnapshotGenerator",
    "RolloutState",
    "RolloutReport",
    "RolloutController",
    "rollout_slo_specs",
    "mixed_version_violation",
]


class SnapshotGenerator:
    """Deterministic generator that serves a snapshot's knowledge table.

    Prompts found in the current snapshot's entries answer with that
    exact text; unknown prompts produce an empty generation, which the
    serving stack's output validator rejects — a snapshot with missing
    entries therefore *fails loudly* (retries, dead letters, burned
    availability) instead of inventing text, which is what lets the
    rollout guard catch a poisoned snapshot.
    """

    parameter_count = 7_000_000

    def __init__(self, snapshot: KgSnapshot):
        self.latency = LatencyModel()
        self.snapshot = snapshot

    def set_snapshot(self, snapshot: KgSnapshot) -> None:
        """The atomic-swap hook :meth:`CosmoService.swap_snapshot` calls."""
        self.snapshot = snapshot

    def generate_batch(self, prompts: list[str]) -> GenerationBatch:
        outputs: list[Generation | None] = []
        for prompt in prompts:
            latency = self.latency.charge(self.parameter_count, 10)
            text = self.snapshot.entries.get(prompt, "")
            outputs.append(Generation(text=text, tokens=10, latency_s=latency))
        return GenerationBatch(generations=outputs)


#: The objectives a rollout is guarded by, and their targets.
GUARDED = ("availability", "latency-p99")
_AVAILABILITY_TARGET = 0.99
_LATENCY_SLO_S = 0.25
_LATENCY_TARGET = 0.95


def rollout_slo_specs(scrape_interval_s: float) -> list[SloSpec]:
    """The two objectives a rollout is guarded by.

    Windows are expressed in scrape intervals (the guard can only act
    once per scrape anyway): burn must exceed 10x sustainable over both
    a one-scrape short window and a four-scrape long window, hold one
    scrape before firing, and clear two scrapes before resolving.
    """
    windows = (BurnRateRule(long_s=4 * scrape_interval_s,
                            short_s=scrape_interval_s,
                            max_burn_rate=10.0),)
    hold = scrape_interval_s
    release = 2 * scrape_interval_s
    lookback = 5 * scrape_interval_s
    served = ("serving_served_fresh_total", "serving_degraded_serves_total")
    return [
        SloSpec(
            name=GUARDED[0],
            description="requests answered with knowledge (fresh or degraded)",
            target=_AVAILABILITY_TARGET,
            good=MetricSum(served),
            total=MetricSum(served + ("serving_fallbacks_total",)),
            windows=windows,
            for_s=hold, resolve_after_s=release, event_lookback_s=lookback,
        ),
        SloSpec(
            name=GUARDED[1],
            description=f"end-to-end latency under {_LATENCY_SLO_S:g}s",
            target=_LATENCY_TARGET,
            good=MetricSum(("cluster_request_latency_seconds",),
                           le=_LATENCY_SLO_S),
            total=MetricSum(("cluster_request_latency_seconds",)),
            windows=windows,
            for_s=hold, resolve_after_s=release, event_lookback_s=lookback,
        ),
    ]


class RolloutState(str, Enum):
    """Lifecycle of one rollout attempt."""

    IDLE = "idle"                  #: created, no tick yet
    ROLLING = "rolling"            #: stepping through the replica plan
    COMPLETE = "complete"          #: every replica on the target version
    ROLLED_BACK = "rolled_back"    #: guard tripped; cluster back on parent
    BLOCKED = "blocked"            #: quality gate refused before first step


@dataclass(frozen=True)
class RolloutReport:
    """Outcome of one rollout attempt."""

    target_version: str
    parent_version: str
    state: str
    steps: tuple[str, ...]
    rolled_back: bool
    rollback_objective: str
    rollback_alert: str
    redriven: int
    blocked: bool = False
    gate_promote: bool = True
    gate_breaches: tuple[str, ...] = ()


class RolloutController:
    """Tick-driven blue/green rollout with automatic SLO rollback.

    ``target`` must carry a parent version registered in ``store`` —
    the rollback destination.  ``GUARDED`` names the evaluator
    objectives whose pending/firing alerts abort the rollout; they must
    exist in the evaluator so a renamed spec cannot silently disable the
    guard.
    ``quality_gate`` is anything with
    ``assess(snapshot) -> GateDecision`` — normally a
    :class:`~repro.refresh.quality.SnapshotQualityGate` — consulted
    before every step.
    """

    def __init__(
        self,
        cluster: CosmoCluster,
        store: SnapshotStore,
        target: KgSnapshot,
        evaluator: SloEvaluator,
        quality_gate,
    ):
        if target.parent is None:
            raise ValueError(
                f"target {target.version} has no parent version; a rollout "
                "needs a rollback destination"
            )
        if quality_gate is None:
            raise ValueError(
                "a rollout needs a quality_gate: the SLO guard only sees "
                "serving damage, so an ungated rollout promotes drifted knowledge"
            )
        store.add(target)
        self.cluster = cluster
        self.store = store
        self.target = target
        self.parent = store.get(target.parent)
        self.evaluator = evaluator
        known = {spec.name for spec in evaluator.specs}
        missing = [name for name in GUARDED if name not in known]
        if missing:
            raise ValueError(f"guarded objectives not in evaluator: {missing}")
        self.quality_gate = quality_gate
        self.gate_decision = None
        self.state = RolloutState.IDLE
        self.rollback_objective = ""
        self.rollback_alert = ""
        self.redriven = 0
        self.steps_executed: list[str] = []
        self._plan: list[tuple[str, str]] = [
            (step, replica_id)
            for replica_id in cluster.router.replicas
            for step in ("drain", "swap", "restore")
        ]
        self._step_index = 0

    @property
    def done(self) -> bool:
        return self.state in (RolloutState.COMPLETE, RolloutState.ROLLED_BACK,
                              RolloutState.BLOCKED)

    # ------------------------------------------------------------------
    def tick(self, now: float) -> str | None:
        """Advance the rollout by one step.

        Call once per scrape, *after* ``evaluator.evaluate(now)`` — the
        guard reads the freshly-stepped alert state.  Returns the step
        executed (``"drain"``/``"swap"``/``"restore"``/``"rollback"``/
        ``"gate-block"``) or None when the rollout is already finished.
        """
        if self.done:
            return None
        decision = self._consult_gate()
        if not decision.promote:
            first = decision.breaches[0] if decision.breaches else "unhealthy"
            if self.state is RolloutState.IDLE:
                self.state = RolloutState.BLOCKED
                self.steps_executed.append("gate-block")
                self._emit("rollout.blocked", version=self.target.version,
                           breaches=len(decision.breaches), first_breach=first)
                return "gate-block"
            self._rollback("knowledge-quality", first,
                           breaches=len(decision.breaches))
            return "rollback"
        if self.state is RolloutState.IDLE:
            self.state = RolloutState.ROLLING
            self._emit("rollout.start", version=self.target.version,
                       parent=self.parent.version,
                       replicas=len(self.cluster.router.replicas))
        breach = self._guard_breached()
        if breach is not None:
            self._rollback(breach.objective, breach.alert_id,
                           peak_burn_rate=breach.peak_burn_rate)
            return "rollback"
        step, replica_id = self._plan[self._step_index]
        if step == "drain":
            self.cluster.drain(replica_id)
        elif step == "swap":
            invalidated = self.cluster.swap_snapshot(replica_id, self.target)
            self._emit("rollout.swap", replica=replica_id,
                       version=self.target.version, invalidated=invalidated)
        else:
            self.cluster.restore(replica_id)
        self.steps_executed.append(f"{step}:{replica_id}")
        self._step_index += 1
        if self._step_index == len(self._plan):
            self.state = RolloutState.COMPLETE
            self._emit("rollout.complete", version=self.target.version,
                       steps=len(self.steps_executed))
        return step

    # ------------------------------------------------------------------
    def _consult_gate(self):
        """Ask the quality gate about the target; emit on decision edges.

        The gate caches by version, so this is free after the first
        tick; ``rollout.gate_pass``/``rollout.gate_block`` is emitted
        only when the decision object changes (a stateful gate may flip
        mid-rollout, e.g. after re-registering lineage).
        """
        decision = self.quality_gate.assess(self.target)
        if decision is not self.gate_decision:
            self.gate_decision = decision
            if decision.promote:
                self._emit("rollout.gate_pass", version=self.target.version)
            else:
                self._emit("rollout.gate_block", version=self.target.version,
                           breaches=len(decision.breaches),
                           first_breach=decision.breaches[0]
                           if decision.breaches else "unhealthy")
        return decision

    def _guard_breached(self) -> Alert | None:
        """The first pending/firing alert on a guarded objective, if any."""
        for alert in self.evaluator.alerts():
            if alert.objective in GUARDED and alert.state in ("pending",
                                                                   "firing"):
                return alert
        return None

    def _rollback(self, objective: str, alert_id: str, **start_attrs) -> None:
        """Return the whole cluster to the parent snapshot in one tick.

        ``objective`` names what tripped — a guarded SLO objective, or
        ``"knowledge-quality"`` when the gate flipped mid-rollout — and
        ``alert_id`` the specific alert or breach.  Order matters:
        mid-step drained replicas are restored first (rolling back must
        never leave capacity down), then every replica already on the
        target version is drained, re-swapped to the parent and
        restored, and finally the dead-letter queues are re-driven
        against the restored knowledge.
        """
        self.rollback_objective = objective
        self.rollback_alert = alert_id
        self._emit("rollout.rollback_start", version=self.target.version,
                   objective=objective, alert_id=alert_id, **start_attrs)
        router = self.cluster.router
        for replica_id in router.replicas:
            if router.is_drained(replica_id):
                self.cluster.restore(replica_id)
        for replica_id in router.replicas:
            service = self.cluster.services[replica_id]
            if service.snapshot_version != self.target.version:
                continue
            try:
                self.cluster.drain(replica_id)
                drained = True
            except ValueError:
                drained = False  # single-replica cluster: swap in place
            invalidated = self.cluster.swap_snapshot(replica_id, self.parent)
            self._emit("rollout.swap", replica=replica_id,
                       version=self.parent.version, invalidated=invalidated)
            if drained:
                self.cluster.restore(replica_id)
        self.redriven = self.cluster.redrive_dead_letters()
        self.steps_executed.append("rollback")
        self.state = RolloutState.ROLLED_BACK
        self._emit("rollout.rollback_complete", version=self.parent.version,
                   redriven=self.redriven)

    def _emit(self, kind: str, **attrs) -> None:
        if self.cluster.event_log is not None:
            self.cluster.event_log.emit(
                kind, ts=self.cluster.clock.now(),
                component=self.cluster.config.name, **attrs,
            )

    # ------------------------------------------------------------------
    def report(self) -> RolloutReport:
        decision = self.gate_decision
        return RolloutReport(
            target_version=self.target.version,
            parent_version=self.parent.version,
            state=self.state.value,
            steps=tuple(self.steps_executed),
            rolled_back=self.state is RolloutState.ROLLED_BACK,
            rollback_objective=self.rollback_objective,
            rollback_alert=self.rollback_alert,
            redriven=self.redriven,
            blocked=self.state is RolloutState.BLOCKED,
            gate_promote=decision.promote if decision is not None else True,
            gate_breaches=tuple(decision.breaches) if decision is not None else (),
        )


def mixed_version_violation(store: SnapshotStore, cluster: CosmoCluster,
                            result: ServeResult) -> bool:
    """Did this answer leak from a different snapshot version?

    True when a FRESH cache answer's text belongs to a version other
    than the serving replica's authoritative ``snapshot_version`` — the
    stale-cache leak version-scoped invalidation exists to prevent.
    Degraded serves are exempt by design (serving *known-stale*
    knowledge, marked as such, is the degradation contract).
    """
    if result.outcome is not ServeOutcome.FRESH:
        return False
    if not result.source.startswith("cache:"):
        return False
    version = cluster.services[result.replica].snapshot_version
    if version is None:
        return False
    expected = store.get(version).entries.get(result.query)
    if expected is not None and result.text == expected:
        return False
    return any(
        snap.version != version
        and snap.entries.get(result.query) == result.text
        for snap in store.snapshots()
    )
