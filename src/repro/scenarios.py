"""Scenario runner: one drive loop, one artifact writer, one exit-code rule.

Every serving drive of the CLI — ``chaos``, ``obs``, ``cluster``,
``trace``, ``monitor``, ``rollout`` and ``kghealth`` — is a
:class:`Scenario` definition: a setup (rig + phases of steps), the
artifacts to write and named expectation functions, played by
:func:`run_scenario` over one :class:`Drive`, whose :meth:`Drive.apply`
alone acts on the cluster.  ``chaos`` and ``obs`` play a one-replica
cluster; ``obs``'s setup first runs the pipeline whose COSMO-LM it serves.

Exit codes: **2** when any invariant or scenario expectation failed
(request accounting, a mixed-version answer, a tracing invariant, an
outcome the scenario exists to demonstrate), **1** when the scenario's
signal fired (SLO alerts, a tripped quality gate), **0** otherwise.  A
breach always wins over a signal.  Time is simulated and traffic seeded,
so every artifact replays byte-identically for fixed arguments
(``ci/artifact_digests.sha256`` pins the ones CI produces).
"""

from __future__ import annotations

import argparse
import json
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro import obs, refresh, serving
from repro.core import CosmoPipeline, PipelineConfig
from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple
from repro.reporting import Table, format_percent
from repro.serving.chaos import ScriptedGenerator, response_ok
from repro.utils.rng import spawn_rng

__all__ = ["ARTIFACTS", "INVARIANTS", "Drain", "Drive", "NewDay", "Phase", "Plan", "Refresh",
           "Restore", "SCENARIOS", "Scenario", "Step", "Traffic", "exit_code", "expect_accounting",
           "play_scenario", "run_scenario", "write_artifacts", "zipf_traffic"]

#: Scrape grid of every monitored drive; a rollout advances one step per scrape.
SCRAPE_INTERVAL_S = 0.5

Expectation = Callable[["Drive"], list[str]]


@dataclass(frozen=True)
class Plan:
    plan: serving.FaultPlan     #: re-planned into every fault injector


@dataclass(frozen=True)
class NewDay:
    """Roll the arrival clock one day."""


@dataclass(frozen=True)
class Drain:
    replica: str                #: taken out of rotation


@dataclass(frozen=True)
class Restore:
    replica: str                #: returned to rotation


@dataclass(frozen=True)
class Traffic:
    requests: int | None        #: Zipf draws; ``None`` plays ``universe`` once in order
    universe: Sequence[str]     #: queries the Zipf draw ranks
    rolling: bool = False       #: the rollout ticks once per scrape
    window: int = 1             #: requests per ``handle_batch`` arrival window


@dataclass(frozen=True)
class Refresh:
    stale: bool                 #: flush, then the daily refresh's ``refresh_stale``


Step = Plan | NewDay | Drain | Restore | Traffic | Refresh


@dataclass(frozen=True)
class Phase:
    """A named list of steps: one ledger row and one latency window."""

    name: str
    steps: Sequence[Step]


def zipf_traffic(rng: np.random.Generator, universe: Sequence[str],
                 n_requests: int) -> list[str]:
    """``n_requests`` queries drawn Zipf(1.3)-weighted by rank in ``universe``."""
    weights = 1.0 / np.arange(1, len(universe) + 1) ** 1.3
    weights /= weights.sum()
    picks = rng.choice(len(universe), size=n_requests, p=weights)
    return [universe[int(i)] for i in picks]


@dataclass
class Drive:
    """Everything one scenario run threads through its stages: the setup
    fills the components, :meth:`play` applies the steps and keeps the
    tallies, :func:`write_artifacts` stores each rendered payload, and the
    report and the expectation functions read all of it back."""

    cluster: serving.CosmoCluster | None = None
    registry: obs.MetricsRegistry | None = None
    tracers: list = field(default_factory=list)     #: ``(process, Tracer)`` pairs
    injectors: list = field(default_factory=list)   #: one per flaky replica
    gap_s: float = 0.005                            #: simulated inter-arrival gap
    # What a setup attaches after construction, and the tallies of a run.
    grid: obs.ScrapeGrid | None = field(default=None, init=False)
    evaluator: obs.SloEvaluator | None = field(default=None, init=False)
    controller: refresh.RolloutController | None = field(default=None, init=False)
    #: ground-truth answer per query
    truth: Callable[[str], str] | None = field(default=None, init=False)
    valid: int = field(default=0, init=False)       #: answers equal to ``truth(query)``
    violations: int = field(default=0, init=False)  #: mixed-version answers served
    #: (name, the phase's :meth:`tallies`)
    phase_rows: list = field(default_factory=list, init=False)
    #: phase name -> the phase's window of the cluster latency histogram
    phase_latency: dict = field(default_factory=dict, init=False)
    artifacts: dict = field(default_factory=dict, init=False)   #: key -> rendered payload

    def apply(self, step: Step, rng: np.random.Generator | None = None) -> None:
        """Act out one step on the cluster; ``rng`` draws a Zipf ``Traffic``."""
        match step:
            case Plan(plan):
                for injector in self.injectors:
                    injector.plan = plan
            case NewDay():
                self.cluster.clock.advance_days(1)
            case Drain(replica):
                self.cluster.drain(replica)
            case Restore(replica):
                self.cluster.restore(replica)
            case Refresh(stale):
                self.cluster.flush()
                self.cluster.daily_refresh(refresh_stale=stale)
            case Traffic(requests, universe, rolling, window):
                queries = (list(universe) if requests is None
                           else zipf_traffic(rng, universe, requests))
                for start in range(0, len(queries), window):
                    batch = queries[start:start + window]
                    for query, result in zip(batch, self.cluster.handle_batch(batch)):
                        if self.truth is not None:
                            self.valid += result.text == self.truth(query)
                        if self.controller is not None and refresh.mixed_version_violation(
                                self.controller.store, result):
                            self.violations += 1
                    self.cluster.clock.advance(self.gap_s)
                    self.observe(rolling)

    def observe(self, rolling: bool = False) -> None:
        """Step the SLO alerts and (while ``rolling``) tick the rollout,
        once per grid point the arrival clock has crossed."""
        if self.grid is None:
            return
        for ts in self.grid.due(self.cluster.clock.now()):
            self.evaluator.evaluate(ts)
            if rolling and not self.controller.done:
                self.controller.tick(ts)

    def play(self, phases: Sequence[Phase], rng: np.random.Generator) -> None:
        """Apply each phase's steps, diffing tallies and latency around it; then flush."""
        latency = self.registry.get("cluster_request_latency_seconds").labels(
            cluster=self.cluster.config.name)
        for phase in phases:
            before = self.tallies()
            earlier = obs.Histogram(latency.bounds).merge(latency)
            for step in phase.steps:
                self.apply(step, rng)
            self.phase_rows.append((phase.name, self.tallies() - before))
            self.phase_latency[phase.name] = latency.delta(earlier)
        self.cluster.flush()
        if self.cluster.sampler is not None:
            self.cluster.sampler.flush()

    def tallies(self) -> Counter:
        """Run-cumulative counts that a phase row diffs: the cluster's
        request accounting, ``valid`` and, summed over replicas, what the
        generator calls cost, dead letters, pending evictions and breaker
        transitions."""
        counts = Counter(self.cluster.metrics_totals(), valid=self.valid)
        for service in self.cluster.services.values():
            metrics, breaker = service.metrics, service.breaker
            counts.update(
                retries=metrics.retries, generator_failures=metrics.generator_failures,
                rejected_generations=metrics.rejected_generations,
                dead_lettered=metrics.dead_lettered, redriven=metrics.redriven,
                pending_evictions=service.cache.stats.pending_evictions,
                breaker_opens=breaker.opens, breaker_closes=breaker.closes)
        return counts

    def gate_decision(self):
        """The quality gate's verdict on the rollout target (cached by the ticks)."""
        return self.controller.quality_gate.assess(self.controller.target)

    def gate_tripped(self) -> bool:
        controller = self.controller
        return (controller.state is refresh.RolloutState.BLOCKED
                or controller.rollback_objective == "knowledge-quality")

    def signalled(self) -> bool:
        """An SLO alert fired, or the gate refused or reverted the rollout."""
        return ((self.evaluator is not None and self.evaluator.any_fired)
                or (self.controller is not None and self.gate_tripped()))


# -- artifacts -------------------------------------------------------------
@dataclass(frozen=True)
class Artifact:
    """How one ``--out-<key>`` file is rendered, validated and written."""

    label: str
    render: Callable[[Drive], object]
    schema: str             #: id in the ``obs.SCHEMAS`` registry
    style: str = "indent"   #: ``indent`` JSON, or ``text`` as rendered


def _health_doc(drive: Drive) -> dict:
    decision = drive.gate_decision()
    return obs.kg_health_report(
        [decision.parent_health, decision.health]
        if decision.parent_health is not None else [decision.health],
        drift=[decision.drift] if decision.drift is not None else [],
        gates=[decision],
    )


#: Artifact key -> recipe; ``--out-<key>`` is the flag, table order the write order.
ARTIFACTS = {
    "trace": Artifact("Chrome trace", lambda d: obs.chrome_trace(d.tracers),
                      obs.CHROME_TRACE_SCHEMA),
    "metrics": Artifact("metrics snapshot", lambda d: obs.snapshot(d.registry),
                        obs.SNAPSHOT_SCHEMA),
    "summary": Artifact("trace summary",
                        lambda d: obs.trace_summary(obs.TraceAnalyzer(d.tracers)),
                        obs.TRACES_SCHEMA),
    "alerts": Artifact("alert report", lambda d: obs.alert_report(d.evaluator),
                       obs.ALERTS_SCHEMA),
    "health": Artifact("kg-health report", _health_doc, obs.KG_HEALTH_SCHEMA),
    "events": Artifact("event log", lambda d: obs.render_events(d.cluster.event_log),
                       obs.EVENTS_SCHEMA, style="text"),
}


def write_artifacts(drive: Drive, keys: Sequence[str],
                    args: argparse.Namespace) -> None:
    """Render and validate each artifact; write the ones given a path."""
    for key in keys:
        artifact = ARTIFACTS[key]
        payload = drive.artifacts[key] = artifact.render(drive)
        obs.validate(artifact.schema, payload)
        path = getattr(args, f"out_{key}")
        if path:
            text = (payload if artifact.style == "text" else
                    json.dumps(payload, sort_keys=True, indent=2) + "\n")
            with open(path, "w") as handle:
                handle.write(text)
            print(f"Wrote {artifact.label} to {path}")


# -- invariants and the exit code ------------------------------------------
def expect_accounting(drive: Drive) -> list[str]:
    """Every request is exactly one of fresh / degraded / fallback."""
    totals = drive.cluster.metrics_totals()
    accounted = (totals["served_fresh"] + totals["degraded_serves"]
                 + totals["fallbacks"])
    ok = accounted == totals["requests"] == totals["handled"]
    print(f"request accounting: fresh + degraded + fallbacks = {accounted} "
          f"== requests = {totals['requests']}: {'OK' if ok else 'VIOLATED'}")
    return [] if ok else [f"request accounting violated: {totals}"]


def expect_no_mixed_version_answers(drive: Drive) -> list[str]:
    """No FRESH cache answer came from a snapshot other than its stamped one."""
    if drive.controller is None:
        return []
    ok = drive.violations == 0
    print(f"mixed-version answers: {drive.violations} ({'OK' if ok else 'VIOLATED'})")
    return [] if ok else [f"{drive.violations} mixed-version answer(s) served"]


#: The checks that read only the live drive, so they hold after any step.
INVARIANTS: tuple[Expectation, ...] = (expect_accounting, expect_no_mixed_version_answers)


def exit_code(label: str, failures: list[str], signal: bool) -> int:
    """2 on any failed invariant or expectation, else 1 on the signal, else 0."""
    if failures:
        print(f"\n{label} invariants VIOLATED:", *failures, sep="\n  - ")
        return 2
    print(f"\n{label} invariants: OK")
    return 1 if signal else 0


# -- expectations ----------------------------------------------------------
def _failed(*checks: tuple[object, str]) -> list[str]:
    """Messages of the ``(holds, message)`` checks that do not hold."""
    return [message for holds, message in checks if not holds]


def _event_checks(drive: Drive, present: Sequence[str],
                  absent: Sequence[str] = ()) -> list[tuple[bool, str]]:
    kinds = {event.kind for event in drive.cluster.event_log.events()}
    return ([(kind in kinds, f"missing event kind: {kind}") for kind in present]
            + [(kind not in kinds, f"unexpected event kind: {kind}")
               for kind in absent])


def expect_nested_pipeline_spans(drive: Drive) -> list[str]:
    spans = [e for e in drive.artifacts["trace"]["traceEvents"] if e["ph"] == "X"]
    return _failed(
        (any(e["name"] == "pipeline.run" for e in spans), "missing pipeline root span"),
        (any(e["args"]["parent_id"] != -1 for e in spans), "no nested spans"))


def expect_replica_processes_and_cluster_metrics(drive: Drive) -> list[str]:
    processes = {e["args"]["name"] for e in drive.artifacts["trace"]["traceEvents"]
                 if e["ph"] == "M"}
    families = {metric["name"] for metric in drive.artifacts["metrics"]["metrics"]}
    return _failed(
        *((name in processes, f"missing trace process: {name}")
          for name, _ in drive.tracers),
        *((name in families, f"missing metric family: {name}")
          for name in ("cluster_requests_total", "cluster_failovers_total",
                       "cluster_batch_flushes_total")))


def expect_connected_traces(drive: Drive) -> list[str]:
    """Every retained trace is one tree across tracers whose stage
    breakdown sums to the charged latency; with faults injected, a
    degraded/fallback trace survives sampling."""
    traces = drive.artifacts["summary"]["traces"]
    events = drive.artifacts["trace"]["traceEvents"]
    flagged = any(t["outcome"] in ("degraded", "fallback") for t in traces)
    return _failed(
        (traces, "no traces retained"),
        (any(e["ph"] in ("s", "f") for e in events),
         "no cross-tracer flow links in the Chrome trace"),
        (flagged or not drive.injectors, "fault injection produced no flagged trace"),
        *((t["connected"], f"trace {t['trace_id']} is disconnected") for t in traces),
        *((abs(sum(t["stages"].values()) - t["duration_s"]) <= 1e-9,
           f"trace {t['trace_id']}: stages do not sum to the charged "
           f"{t['duration_s']:.9f}s") for t in traces))


def _trace_tagged(drive: Drive) -> list:
    return [e for e in drive.cluster.event_log.events() if "trace_id" in e.attrs]


def expect_trace_ids_resolve(drive: Drive) -> list[str]:
    """Latency exemplars lead to retained traces; events carry trace ids."""
    exemplars = drive.cluster.latency_exemplars()
    retained = {trace["trace_id"] for trace in drive.artifacts["summary"]["traces"]}
    return _failed(
        (exemplars, "latency histogram carries no exemplars"),
        (any(trace_id in retained for _, trace_id, _ in exemplars),
         "no latency exemplar resolves to a retained trace"),
        (_trace_tagged(drive), "no event carries a trace id"))


def expect_storm_alerts_resolve_and_correlate(drive: Drive) -> list[str]:
    report = drive.artifacts["alerts"]
    resolved = [alert for objective in report["objectives"]
                for alert in objective["alerts"] if alert["state"] == "resolved"]
    drained = ["router.drain"] if len(drive.cluster.services) > 1 else []
    return _failed(
        (report["fired"], "chaos scenario should fire at least one alert"),
        (resolved, "fired alerts should resolve by end of recovery"),
        (any(alert["event_ids"] for alert in resolved),
         "resolved alerts should cross-reference events"),
        *_event_checks(drive, ["breaker.open", "service.degraded_entry"] + drained))


def expect_rollout_completes_quietly(drive: Drive) -> list[str]:
    return _failed(
        (not drive.artifacts["alerts"]["fired"], "healthy rollout must not fire alerts"),
        *_event_checks(
            drive, ("rollout.start", "service.snapshot_swap", "rollout.complete"),
            absent=("rollout.rollback_start",)))


def expect_rollback_and_redrive(drive: Drive) -> list[str]:
    return _failed(*_event_checks(
        drive, ("rollout.start", "service.snapshot_swap", "rollout.rollback_start",
                "rollout.rollback_complete", "service.redrive"),
        absent=("rollout.complete",)))


def expect_gate_promotes(drive: Drive) -> list[str]:
    (gate,) = drive.artifacts["health"]["gates"]
    return _failed((gate["promote"], "healthy gate must promote"),
                   *_event_checks(drive, ("rollout.gate_pass", "rollout.complete")))


def expect_gate_blocks(drive: Drive) -> list[str]:
    (gate,) = drive.artifacts["health"]["gates"]
    return _failed(
        (not gate["promote"], "poisoned gate must block"),
        (gate["breaches"], "poisoned gate must name breaches"),
        *_event_checks(drive, ("rollout.gate_block", "rollout.blocked"),
                       absent=("rollout.start",)))


def _knowledge_held(drive: Drive, names: Sequence[str]) -> list[tuple[bool, str]]:
    """At least 99% correct knowledge in each phase named in ``names``."""
    return [(_share(counts, "valid") >= 0.99,
             f"{name}: {_share(counts, 'valid'):.1%} correct knowledge, under 99%")
            for name, counts in drive.phase_rows if name in names]


def _phases_summed(drive: Drive) -> Counter:
    return sum((counts for _, counts in drive.phase_rows), Counter())


def expect_resilience_keeps_knowledge(drive: Drive) -> list[str]:
    """Past the cold sweep (the first phase), retries and degraded
    serving keep answers correct."""
    return _failed(*_knowledge_held(
        drive, [name for name, _ in drive.phase_rows[1:]]))


def expect_baseline_falls_back(drive: Drive) -> list[str]:
    """The unprotected arm never retries or serves stale, so a miss falls
    back; its default breaker never opens, and a failed prompt stays
    queued rather than dead-lettering."""
    totals = _phases_summed(drive)
    return _failed(
        (totals["fallbacks"], "baseline served no fallback"),
        (not totals["degraded_serves"], "baseline served degraded answers"),
        (not totals["retries"], "baseline retried generator calls"),
        (not totals["breaker_opens"], "baseline opened a breaker"),
        (not totals["dead_lettered"], "baseline dead-lettered queries"))


def expect_breaker_recovers(drive: Drive) -> list[str]:
    """The breaker opens under the outage, fails fast and closes again;
    degraded serving holds knowledge throughout, and the end-of-run
    refresh re-drives every dead letter."""
    totals = _phases_summed(drive)
    breakers = [service.breaker for service in drive.cluster.services.values()]
    return _failed(
        *((breaker.opens and breaker.closes and breaker.refusals,
           "breaker never opened, failed fast and closed")
          for breaker in breakers),
        *((breaker.state is serving.BreakerState.CLOSED,
           f"breaker ends {breaker.state.value}") for breaker in breakers),
        *_knowledge_held(drive, ("outage", "recovery")),
        (totals["dead_lettered"], "the outage dead-lettered nothing"),
        (totals["redriven"] == totals["dead_lettered"],
         f"redriven {totals['redriven']} of {totals['dead_lettered']} dead letters"))


# -- setups: the rig and the phases of each scenario -------------------------
def _queries(count: int, prefix: str = "query") -> list[str]:
    return [f"{prefix} {i:03d}" for i in range(count)]


def _rig(args: argparse.Namespace, make_generator: Callable[[], object],
         plan: serving.FaultPlan | None, *, gap_s: float = 0.005, batch: int = 16,
         depth: int = 300, events: bool = True,
         sampler: obs.TailSampler | None = None,
         slo_specs: list[obs.SloSpec] | None = None, **service_kwargs) -> Drive:
    """Registry → event log → cluster (→ SLO evaluator + scrape grid
    when ``slo_specs`` are given), one generator per replica: ``--replicas``
    of them, or one for a drive without that flag.

    With a ``plan`` each generator sits behind a ``FlakyGenerator`` whose
    injector is seeded ``seed + index``; the injectors land on the drive
    so a phase can re-plan them.  ``service_kwargs`` configure every
    replica's ``CosmoService``; its answers are checked by ``response_ok``
    unless they name another ``response_validator``.
    """
    injectors: list[serving.FaultInjector] = []

    def factory(index: int):
        generator = make_generator()
        if plan is None:
            return generator
        injectors.append(serving.FaultInjector(plan, seed=args.seed + index))
        return serving.FlakyGenerator(generator, injectors[-1])

    config = serving.ClusterConfig(
        n_replicas=getattr(args, "replicas", 1), max_batch_size=batch,
        max_batch_delay_s=0.25, max_queue_depth=depth, seed=args.seed)
    registry = obs.MetricsRegistry()
    service_kwargs.setdefault("response_validator", response_ok)
    cluster = serving.CosmoCluster(
        factory, config=config, registry=registry,
        event_log=obs.EventLog() if events else None, sampler=sampler,
        **service_kwargs)
    tracers = [(config.name, cluster.tracer)] + [
        (replica_id, service.tracer)
        for replica_id, service in cluster.services.items()]
    drive = Drive(cluster=cluster, registry=registry, tracers=tracers,
                  injectors=injectors, gap_s=gap_s)
    if slo_specs is not None:
        drive.evaluator = obs.SloEvaluator(registry, slo_specs,
                                           event_log=cluster.event_log)
        drive.grid = obs.ScrapeGrid(SCRAPE_INTERVAL_S)
    return drive


def _mixed_plan(args: argparse.Namespace) -> serving.FaultPlan | None:
    return serving.FaultPlan.mixed(args.fault_rate) if args.fault_rate > 0.0 else None


def _preload(drive: Drive, n_queries: int) -> None:
    drive.cluster.preload_yearly({query: ScriptedGenerator.knowledge_for(query)
                                  for query in _queries(n_queries)})


def _chaos_service(variant: str) -> dict:
    """The ``CosmoService`` settings of a chaos arm: ``baseline`` is the
    same service (the same fixed backoff schedule and breaker) configured
    down to one attempt per call, no output validation and no degraded
    serving."""
    if variant != "baseline":
        return {}
    return {"max_attempts": 1,
            "response_validator": lambda text: True, "degraded_serving": False}


def _chaos_setup(args: argparse.Namespace) -> tuple[Drive, list[Phase]]:
    """One replica behind fault injection, answers checked against the
    scripted ground truth.

    ``resilient`` and ``baseline`` sweep the universe once, then play
    three Zipf days under the ``--fault-rate`` mix, each ending in the
    daily refresh with stale features regenerated; the first day warms
    the daily layers.
    ``outage`` plays calm → total outage → recovery, each on a new day so
    the daily layer has expired: the breaker opens, fails fast and closes
    through half-open probes, and the one refresh at the end re-drives
    what the outage dead-lettered.
    """
    outage = args.scenario == "outage"
    calm = serving.FaultPlan()
    drive = _rig(args, ScriptedGenerator,
                 calm if outage else serving.FaultPlan.mixed(args.fault_rate),
                 events=False, **_chaos_service(args.scenario))
    drive.truth = ScriptedGenerator.knowledge_for
    queries = _queries(40 if outage else 200)
    sweep = Phase("sweep", [Traffic(None, queries)])
    if outage:
        return drive, [
            sweep,
            Phase("calm", [Plan(calm), NewDay(), Traffic(360, queries)]),
            Phase("outage", [Plan(serving.FaultPlan(error_rate=1.0)), NewDay(),
                             Traffic(600, queries)]),
            Phase("recovery", [Plan(calm), NewDay(), Traffic(600, queries), Refresh(False)]),
        ]
    return drive, [sweep] + [Phase(f"day {day}", [Traffic(1500, queries), Refresh(True)])
                             for day in range(3)]


def _obs_setup(args: argparse.Namespace) -> tuple[Drive, list[Phase]]:
    """A pipeline run under tracing, then one serving day of its COSMO-LM
    on one replica: Zipf traffic over the world's broad queries, ranked
    by popularity.  COSMO-LM's free text gets the service's default
    validator, which rejects only empty answers."""
    print(f"Pipeline run under tracing (seed={args.seed}, scale={args.scale})...")
    pipeline = CosmoPipeline(
        PipelineConfig.at_scale(args.seed, args.scale, args.lm_epochs))
    result = pipeline.run()
    drive = _rig(args, lambda: result.cosmo_lm, None, events=False,
                 response_validator=None)
    drive.tracers.insert(0, ("pipeline", pipeline.tracer))
    texts = [q.text for q in sorted(result.world.queries.broad(), key=lambda q: -q.popularity)]
    return drive, [Phase("day", [Traffic(args.requests, texts), Refresh(False)])]


def _cluster_setup(args: argparse.Namespace) -> tuple[Drive, list[Phase]]:
    drive = _rig(args, ScriptedGenerator, _mixed_plan(args), gap_s=0.001,
                 depth=500, events=False)
    drive.truth = ScriptedGenerator.knowledge_for
    return drive, [Phase("drive", [Traffic(args.requests, _queries(args.n_queries)),
                                   Refresh(False)])]


def _trace_setup(args: argparse.Namespace) -> tuple[Drive, list[Phase]]:
    drive = _rig(args, ScriptedGenerator, _mixed_plan(args), batch=8,
                 sampler=obs.TailSampler(slowest_k=3, window_s=60.0, head_every=25))
    # Warm the yearly layer for the head of the Zipf distribution so the
    # trace mix includes cache-hit traces, not only miss/degraded ones.
    _preload(drive, min(30, args.n_queries))
    return drive, [Phase("drive", [Traffic(args.requests, _queries(args.n_queries))])]


def _monitor_setup(args: argparse.Namespace) -> tuple[Drive, list[Phase]]:
    """calm → storm → recovery.  The chaos storm floods the cluster with
    cold (never-cached) queries while every generator hard-fails and one
    replica is drained; every other phase replays warm traffic against
    healthy generators."""
    # The rollout guard's two objectives, plus a cache objective on the
    # same windows and hold times with a tighter burn threshold.
    guard = refresh.rollout_slo_specs(SCRAPE_INTERVAL_S)
    cache_hits = replace(
        guard[0], name="cache-hit-rate",
        description="lookups answered from a cache layer", target=0.50,
        good=obs.MetricSum(("cache_requests_total",),
                           where=(("outcome", ("layer1_hit", "layer2_hit")),)),
        total=obs.MetricSum(("cache_requests_total",)),
        windows=(replace(guard[0].windows[0], max_burn_rate=1.6),))
    calm = serving.FaultPlan()
    drive = _rig(args, ScriptedGenerator, calm, slo_specs=guard + [cache_hits])
    _preload(drive, args.n_queries)

    chaos = args.scenario == "chaos"
    requests = args.requests_per_phase
    warm = _queries(args.n_queries)
    storm = _queries(args.n_queries, "storm query") if chaos else warm
    drained = [f"{drive.cluster.config.name}-r1"] if chaos and args.replicas > 1 else []
    return drive, [
        Phase("calm", [Plan(calm), Traffic(requests, warm)]),
        Phase("storm", [Plan(serving.FaultPlan(error_rate=1.0) if chaos else calm),
                        *map(Drain, drained), Traffic(requests, storm), *map(Restore, drained)]),
        Phase("recovery", [Plan(calm), Traffic(requests, warm)]),
    ]


def _answers(queries: Sequence[str], colour: str) -> dict[str, str]:
    return {query: f"it is used for {query} ({colour})." for query in queries}


def _blue_green_setup(args: argparse.Namespace, blue,
                      green) -> tuple[Drive, list[Phase]]:
    """A cluster on ``blue`` and a gated, SLO-guarded rollout to ``green``
    in the middle of warm → rollout → settle traffic."""
    store = refresh.SnapshotStore()
    store.add(blue)
    drive = _rig(args, lambda: refresh.SnapshotGenerator(blue), None,
                 slo_specs=refresh.rollout_slo_specs(SCRAPE_INTERVAL_S))
    drive.cluster.install_snapshot(blue)
    gate = refresh.SnapshotQualityGate(store)
    drive.controller = refresh.RolloutController(
        drive.cluster, store, green, drive.evaluator, quality_gate=gate)
    queries = _queries(args.n_queries)
    requests = args.requests_per_phase
    return drive, [Phase("warm", [Traffic(requests, queries)]),
                   Phase("rollout", [Traffic(2 * requests, queries, rolling=True)]),
                   Phase("settle", [Traffic(requests, queries)])]


def _rollout_setup(args: argparse.Namespace) -> tuple[Drive, list[Phase]]:
    queries = _queries(args.n_queries)
    blue = refresh.build_snapshot(_answers(queries, "blue"), note="blue baseline")
    if args.scenario == "healthy":
        green = refresh.build_snapshot(_answers(queries, "green"), parent=blue,
                                       note="green refresh")
    else:
        # A refresh that lost its serving table: version checks out,
        # content is useless.  Neither snapshot carries triples, so the
        # knowledge gate passes; this is the failure the SLO guard catches.
        green = refresh.build_snapshot({}, parent=blue, note="poisoned refresh")
    return _blue_green_setup(args, blue, green)


_RELATION_MIX = (Relation.USED_FOR_FUNC, Relation.CAPABLE_OF, Relation.USED_TO,
                 Relation.USED_FOR_AUD, Relation.USED_WITH)
_DOMAINS = ("Apparel", "Electronics", "Grocery", "Home")


def _edges(queries: Sequence[str], count: int, offset: int = 0,
           relation_cycle: tuple = _RELATION_MIX, plaus_base: float = 0.55,
           plaus_span: float = 0.4) -> list[KnowledgeTriple]:
    # Deterministic arithmetic, no RNG: the same arguments always
    # produce the same triples, so snapshot versions are stable.
    return [
        KnowledgeTriple(
            head=queries[(k // 2) % len(queries)],
            relation=relation_cycle[k % len(relation_cycle)],
            tail=f"intent {k % 23:02d}",
            domain=_DOMAINS[k % len(_DOMAINS)],
            behavior="search-buy" if k % 3 else "co-buy",
            plausibility=plaus_base + plaus_span * ((k * 37) % 100) / 100.0,
            typicality=0.45 + 0.5 * ((k * 53) % 100) / 100.0,
            support=1 + k % 3,
        )
        for k in range(offset, offset + count)
    ]


def _kghealth_setup(args: argparse.Namespace) -> tuple[Drive, list[Phase]]:
    queries = _queries(args.n_queries)
    n_edges = 2 * args.n_queries
    blue_triples = _edges(queries, n_edges)
    blue = refresh.build_snapshot(_answers(queries, "blue"), blue_triples,
                                  note="blue baseline")
    if args.scenario == "healthy":
        note = "green refresh"
        triples = blue_triples + _edges(queries, max(4, args.n_queries // 6),
                                        offset=n_edges)
    else:
        # The serving table is complete — requests will be answered and
        # no SLO will burn — but the knowledge behind it collapsed onto
        # IS_A with near-zero plausibility.  Only the gate can see this.
        note = "poisoned refresh"
        triples = _edges(queries, n_edges, relation_cycle=(Relation.IS_A,),
                         plaus_base=0.03, plaus_span=0.0)
    green = refresh.build_snapshot(_answers(queries, "green"), triples,
                                   parent=blue, note=note)
    return _blue_green_setup(args, blue, green)


# -- the report --------------------------------------------------------------
def _report(drive: Drive, title: str) -> None:
    """One summary table, then the detail each component the drive
    carries has to show: phases, traces, the rollout, alerts."""
    cluster, controller = drive.cluster, drive.controller
    sampler, summary = cluster.sampler, drive.artifacts.get("summary")
    totals = cluster.metrics_totals()
    services = cluster.services.values()
    table = Table(f"{title} drive", ["Metric", "Value"])
    table.add_row("Requests", totals["requests"])
    table.add_row("Availability (served)", format_percent(cluster.availability))
    if drive.truth is not None:
        table.add_row("Correct knowledge",
                      format_percent(drive.valid / max(totals["requests"], 1)))
    table.add_row("Fallbacks", totals["fallbacks"])
    table.add_row("Failovers", totals["failovers"])
    table.add_row("Shed (admission control)", totals["shed"])
    table.add_row("Dead-lettered / redriven",
                  f"{sum(s.metrics.dead_lettered for s in services)}"
                  f" / {sum(s.metrics.redriven for s in services)}")
    table.add_row("p50 / p99 latency", f"{cluster.percentile(50) * 1000:.2f} / "
                                       f"{cluster.percentile(99) * 1000:.2f} ms")
    if sampler is not None:
        table.add_row("Traces retained", len(summary["traces"]))
        table.add_row("Sampler decisions",
                      ", ".join(f"{reason} {count}"
                                for reason, count in sampler.decisions.items()))
        table.add_row("Spans buffered (residual)", sampler.buffered_spans)
        table.add_row("Exemplar buckets", len(cluster.latency_exemplars()))
        table.add_row("Trace-tagged events", len(_trace_tagged(drive)))
    if controller is not None:
        decision = drive.gate_decision()
        table.add_row("Rollout state", controller.state.value)
        table.add_row("Steps executed", len(controller.steps_executed))
        table.add_row("Mixed-version answers", drive.violations)
    print(table.render())
    _ledger(drive)

    if sampler is not None:
        stage_table = Table("Where the latency goes (self time across traces)",
                            ["Stage", "Total (ms)", "Traces"])
        for stage, entry in summary["aggregate"]["stages"].items():
            stage_table.add_row(stage, f"{entry['total_s'] * 1000:.3f}", entry["traces"])
        print(stage_table.render())
        slowest = max(summary["traces"], key=lambda t: (t["duration_s"], t["trace_id"]))
        print(f"\nslowest retained trace {slowest['trace_id']} "
              f"({slowest['duration_s'] * 1000:.3f} ms, outcome={slowest['outcome']}):")
        for step in slowest["critical_path"]:
            print(f"  {step['process']:>12}  {step['name']:<24} "
                  f"self {step['self_s'] * 1000:8.3f} ms  [{step['stage']}]")
    if controller is not None:
        for breach in decision.breaches:
            print(f"drift breach: {breach}")
        print("replica versions: " + ", ".join(
            f"{replica}={version}"
            for replica, version in sorted(cluster.snapshot_versions().items())))
        if controller.state is refresh.RolloutState.ROLLED_BACK:
            print(f"rollback: objective {controller.rollback_objective} "
                  f"(alert {controller.rollback_alert}), {controller.redriven} dead "
                  f"letter(s) redriven")
        print(f"gate verdict: {'BLOCK' if drive.gate_tripped() else 'PROMOTE'}")
    if drive.evaluator is not None:
        for alert in drive.evaluator.alerts():
            window = (f"pending {alert.pending_ts:g}s"
                      + (f", firing {alert.firing_ts:g}s" if alert.firing_ts is not None else "")
                      + (f", resolved {alert.resolved_ts:g}s"
                         if alert.resolved_ts is not None and alert.state == "resolved" else ""))
            print(f"alert {alert.alert_id}: {alert.state} ({window}; "
                  f"peak burn {alert.peak_burn_rate:.1f}x, "
                  f"{len(alert.event_ids)} correlated event(s))")
        fired = drive.evaluator.any_fired
        print(f"SLO verdict: {'ALERTS FIRED' if fired else 'no alerts fired'}")


def _share(counts: Counter, *keys: str) -> float:
    """The ``keys``' summed count per request of a phase row's ``counts``."""
    return sum(counts[key] for key in keys) / max(counts["requests"], 1)


#: The ledger's rows: label and the tally keys it shows (a share of the
#: phase's requests when marked, else ``a / b`` counts).
_LEDGER_ROWS = (
    ("Served (fresh + degraded)", ("served_fresh", "degraded_serves"), True),
    ("Correct knowledge", ("valid",), True),
    ("Degraded serves", ("degraded_serves",), False),
    ("Fallbacks", ("fallbacks",), False),
    ("Retries", ("retries",), False),
    ("Generator failures", ("generator_failures",), False),
    ("Rejected generations", ("rejected_generations",), False),
    ("Dead-lettered / redriven", ("dead_lettered", "redriven"), False),
    ("Pending evictions", ("pending_evictions",), False),
    ("Breaker opens / closes", ("breaker_opens", "breaker_closes"), False),
)


def _ledger(drive: Drive) -> None:
    """Every phase's tallies side by side, then each replica's breaker."""
    table = Table("Per-phase tallies",
                  ["Metric"] + [name for name, _ in drive.phase_rows])
    table.add_row("Requests", *(counts["requests"] for _, counts in drive.phase_rows))
    for label, keys, share in _LEDGER_ROWS:
        if keys == ("valid",) and drive.truth is None:
            continue
        table.add_row(label, *(
            format_percent(_share(counts, *keys)) if share
            else " / ".join(str(counts[key]) for key in keys)
            for _, counts in drive.phase_rows))
    table.add_row("p50 / p99 latency", *(
        f"{drive.phase_latency[name].percentile(50) * 1000:.1f} / "
        f"{drive.phase_latency[name].percentile(99) * 1000:.1f} ms"
        for name, _ in drive.phase_rows))
    print(table.render())
    for replica_id, service in drive.cluster.services.items():
        breaker = service.breaker
        print(f"breaker {replica_id}: {breaker.opens} open(s), "
              f"{breaker.closes} close(s), {breaker.refusals} fast "
              f"refusal(s), final state {breaker.state.value}")


# -- scenarios -------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One CLI drive: its size flags with their defaults, how to set it
    up, which artifacts it writes and what must hold afterwards.
    ``expectations`` is keyed by ``--scenario`` variant (``""`` for a
    drive without variants; the first key is the default)."""

    command: str
    title: str
    help: str
    flags: dict[str, int | float]
    setup: Callable[[argparse.Namespace], tuple[Drive, list[Phase]]]
    artifacts: tuple[str, ...]
    expectations: dict[str, tuple[Expectation, ...]]


SCENARIOS = {scenario.command: scenario for scenario in (
    Scenario("chaos", "Chaos",
             "fault-injected serving against ground truth (resilience ablation)",
             {"fault_rate": 0.1}, _chaos_setup, (),
             {"resilient": (expect_resilience_keeps_knowledge,),
              "baseline": (expect_baseline_falls_back,),
              "outage": (expect_breaker_recovers,)}),
    Scenario("obs", "Observability",
             "run a small pipeline + serving day under tracing; dump artifacts",
             {"scale": 0.3, "lm_epochs": 4, "requests": 600},
             _obs_setup, ("trace", "metrics"), {"": (expect_nested_pipeline_spans,)}),
    Scenario("cluster", "Cluster",
             "drive a sharded multi-replica serving cluster; dump artifacts",
             {"replicas": 3, "requests": 2000, "n_queries": 150, "fault_rate": 0.0},
             _cluster_setup, ("trace", "metrics"),
             {"": (expect_replica_processes_and_cluster_metrics,)}),
    Scenario("trace", "Tracing",
             "request tracing: trace trees, tail sampling, exemplars, critical paths",
             {"replicas": 3, "requests": 400, "n_queries": 120, "fault_rate": 0.15},
             _trace_setup, ("trace", "summary", "events"),
             {"": (expect_connected_traces, expect_trace_ids_resolve)}),
    Scenario("monitor", "Monitoring",
             "SLO alerts and event log over calm/storm/recovery phases",
             {"replicas": 3, "requests_per_phase": 600, "n_queries": 120},
             _monitor_setup, ("alerts", "events"),
             {"chaos": (expect_storm_alerts_resolve_and_correlate,), "clean": ()}),
    Scenario("rollout", "Rollout",
             "blue/green snapshot rollout with SLO-guarded auto-rollback",
             {"replicas": 3, "requests_per_phase": 700, "n_queries": 120},
             _rollout_setup, ("alerts", "events"),
             {"healthy": (expect_rollout_completes_quietly,),
              "poisoned": (expect_rollback_and_redrive,)}),
    Scenario("kghealth", "KG health",
             "snapshot drift detection and quality-gated rollout",
             {"replicas": 3, "requests_per_phase": 500, "n_queries": 120},
             _kghealth_setup, ("health", "events"),
             {"healthy": (expect_gate_promotes,), "poisoned": (expect_gate_blocks,)}),
)}


def play_scenario(scenario: Scenario, args: argparse.Namespace) -> Drive:
    """Set up, play and write: the drive state the report and checks read."""
    drive, phases = scenario.setup(args)
    drive.play(phases, spawn_rng(args.seed, f"{scenario.command}-traffic"))
    write_artifacts(drive, scenario.artifacts, args)
    return drive


def run_scenario(scenario: Scenario, args: argparse.Namespace) -> int:
    """Play, report, check — the one path every drive takes."""
    variant = getattr(args, "scenario", "")
    drive = play_scenario(scenario, args)
    _report(drive, scenario.title)

    failures = [failure for check in INVARIANTS + scenario.expectations[variant]
                for failure in check(drive)]
    return exit_code(scenario.title.lower(), failures, drive.signalled())
