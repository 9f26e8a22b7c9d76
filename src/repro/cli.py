"""Command-line interface: run the pipeline and export the KG.

Usage::

    python -m repro.cli build-kg --seed 7 --scale 0.5 --out kg.jsonl
    python -m repro.cli inspect-kg kg.jsonl
    python -m repro.cli generate --seed 7 --query "winter camping essentials" \
        --product-type "camping tent" --domain "Sports & Outdoors"
    python -m repro.cli chaos --seed 7 --fault-rate 0.1
    python -m repro.cli obs --seed 7 --out-trace trace.json --out-metrics metrics.json
    python -m repro.cli cluster --seed 7 --replicas 3 --requests 2000
    python -m repro.cli monitor --seed 0 --scenario chaos \
        --out-timeline timeline.json --out-alerts alerts.json --out-events events.jsonl
    python -m repro.cli rollout --seed 0 --scenario poisoned \
        --out-timeline timeline.json --out-alerts alerts.json --out-events events.jsonl
    python -m repro.cli kghealth --seed 0 --scenario poisoned \
        --out-health kg_health.json --out-events events.jsonl
"""

from __future__ import annotations

import argparse
import sys

from repro.behavior import WorldConfig
from repro.core import CosmoLMConfig, CosmoPipeline, PipelineConfig
from repro.core.kg_io import load_kg, save_kg
from repro.reporting import Table, format_percent

__all__ = ["build_parser", "main"]


def _pipeline_config(seed: int, scale: float, lm_epochs: int) -> PipelineConfig:
    world = WorldConfig(seed=seed).scaled(scale)
    return PipelineConfig(
        seed=seed,
        world=world,
        cobuy_pairs_per_domain=max(10, int(120 * scale)),
        searchbuy_records_per_domain=max(10, int(150 * scale)),
        annotation_budget=max(100, int(1500 * scale)),
        lm=CosmoLMConfig(epochs=lm_epochs),
    )


def cmd_build_kg(args: argparse.Namespace) -> int:
    config = _pipeline_config(args.seed, args.scale, args.lm_epochs)
    print(f"Building the COSMO KG (seed={args.seed}, scale={args.scale})...")
    result = CosmoPipeline(config).run()
    stats = result.kg.stats()
    print(f"KG: {stats.nodes} nodes, {stats.edges} edges, "
          f"{stats.relations} relations, {stats.domains} domains")
    table = Table("Annotated quality", ["Behavior", "Plausibility", "Typicality"])
    for behavior, ratios in sorted(result.quality_ratios.items()):
        table.add_row(behavior, format_percent(ratios["plausibility"]),
                      format_percent(ratios["typicality"]))
    print(table.render())
    if args.out:
        written = save_kg(result.kg, args.out)
        print(f"Wrote {written} edges to {args.out}")
    return 0


def cmd_inspect_kg(args: argparse.Namespace) -> int:
    kg = load_kg(args.path)
    stats = kg.stats()
    print(f"{args.path}: {stats.nodes} nodes, {stats.edges} edges, "
          f"{stats.relations} relations, {stats.domains} domains")
    table = Table("Edges per domain", ["Domain", "co-buy", "search-buy"])
    domains = sorted({t.domain for t in kg.triples()})
    for domain in domains:
        table.add_row(domain, kg.edges_for(domain, "co-buy"),
                      kg.edges_for(domain, "search-buy"))
    print(table.render())
    for triple in kg.triples()[: args.sample]:
        print(f"  {triple.head.split(' ||| ')[0]!r} --{triple.relation.value}--> {triple.tail!r}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    config = _pipeline_config(args.seed, args.scale, args.lm_epochs)
    print("Training COSMO-LM (one pipeline run)...")
    result = CosmoPipeline(config).run()
    lm = result.cosmo_lm
    prompt = lm.searchbuy_prompt(args.query, args.product_title or args.product_type,
                                 args.domain, product_type=args.product_type)
    generation = lm.generate_batch([prompt]).require()[0]
    print(f"query:     {args.query!r}")
    print(f"product:   {args.product_type!r} ({args.domain})")
    print(f"knowledge: {generation.text!r}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.serving.chaos import ChaosConfig, run_chaos, run_outage_demo

    if args.outage_demo:
        service, phases = run_outage_demo(seed=args.seed)
        print("Sustained-outage demo (availability per phase):")
        for name, availability in phases.items():
            print(f"  {name:9s} {availability:.1%}")
        breaker = service.breaker
        print(f"  breaker: {breaker.opens} open(s), {breaker.closes} close(s), "
              f"{breaker.refusals} fast refusal(s), final state {breaker.state.value}")
        print(f"  dead-lettered {service.metrics.dead_lettered}, "
              f"redriven {service.metrics.redriven}")
        return 0

    if not 0.0 <= args.fault_rate <= 1.0:
        print(f"error: --fault-rate must be in [0, 1], got {args.fault_rate}")
        return 2
    config = ChaosConfig(
        fault_rate=args.fault_rate,
        resilience=not args.no_resilience,
        seed=args.seed,
        requests_per_day=args.requests_per_day,
        days=args.days,
    )
    arm = "on" if config.resilience else "off"
    print(f"Chaos simulation: fault rate {config.fault_rate:.0%}, resilience {arm}, "
          f"{config.days} measured day(s) of {config.requests_per_day} requests...")
    report = run_chaos(config)
    table = Table("Chaos simulation — measured window", ["Metric", "Value"])
    table.add_row("Requests", report.requests)
    table.add_row("Availability (valid knowledge)", format_percent(report.availability))
    table.add_row("Served (fresh + degraded)", format_percent(report.served_availability))
    table.add_row("Degraded serves", report.degraded)
    table.add_row("Fallbacks", report.fallbacks)
    table.add_row("Retries", report.retries)
    table.add_row("Generator failures", report.generator_failures)
    table.add_row("Rejected generations", report.rejected_generations)
    table.add_row("Dead-lettered / redriven", f"{report.dead_lettered} / {report.redriven}")
    table.add_row("Breaker opens / closes", f"{report.breaker_opens} / {report.breaker_closes}")
    table.add_row("p50 / p99 latency", f"{report.percentile_ms(50):.1f} / "
                  f"{report.percentile_ms(99):.1f} ms")
    print(table.render())
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Run a small pipeline + one serving day under full observability.

    The trace and metrics artifacts are timed entirely on simulated
    clocks, so two runs with the same seed produce byte-identical files;
    only the wall-clock profile printed at the end differs.
    """
    import json

    import numpy as np

    from repro.obs import (
        MetricsRegistry,
        Tracer,
        WallProfiler,
        chrome_trace,
        render_text,
        snapshot,
        validate_chrome_trace,
        validate_snapshot,
    )
    from repro.serving import CosmoService, ServeRequest
    from repro.utils.rng import spawn_rng

    registry = MetricsRegistry()
    profiler = WallProfiler()

    print(f"Pipeline run under tracing (seed={args.seed}, scale={args.scale})...")
    config = _pipeline_config(args.seed, args.scale, args.lm_epochs)
    pipeline = CosmoPipeline(config, registry=registry, tracer=Tracer())
    with profiler.section("pipeline.run"):
        result = pipeline.run()
    if result.cosmo_lm is None:
        print("error: pipeline produced no COSMO-LM; nothing to serve")
        return 2

    print(f"Serving one simulated day ({args.requests} requests)...")
    service = CosmoService(result.cosmo_lm, registry=registry, name="cosmo")
    world = result.world
    queries = world.queries.broad()
    weights = np.array([q.popularity for q in queries], dtype=float)
    weights /= weights.sum()
    rng = spawn_rng(args.seed, "obs-traffic")
    picks = rng.choice(len(queries), size=args.requests, p=weights)
    traffic = [queries[int(i)].text for i in picks]
    with profiler.section("serving.day"):
        for start in range(0, len(traffic), args.chunk):
            for query in traffic[start : start + args.chunk]:
                service.serve(ServeRequest(query=query))
            service.run_batch()
        service.daily_refresh(refresh_stale=False)

    trace = chrome_trace([("pipeline", pipeline.tracer),
                          ("serving", service.tracer)])
    validate_chrome_trace(trace)
    snap = snapshot(registry)
    validate_snapshot(snap)
    if args.out_trace:
        with open(args.out_trace, "w") as handle:
            handle.write(json.dumps(trace, sort_keys=True, indent=2) + "\n")
        print(f"Wrote Chrome trace to {args.out_trace}")
    if args.out_metrics:
        with open(args.out_metrics, "w") as handle:
            handle.write(json.dumps(snap, sort_keys=True, indent=2) + "\n")
        print(f"Wrote metrics snapshot to {args.out_metrics}")

    print("\npipeline spans (simulated LLM seconds):")
    print(pipeline.tracer.render_tree())
    print("\nserving spans (SimClock seconds):")
    print(service.tracer.render_tree())
    print("\nmetrics:")
    print(render_text(registry))

    metrics = service.metrics
    accounted = metrics.served_fresh + metrics.degraded_serves + metrics.fallbacks
    ok = accounted == metrics.requests
    print(f"\nrequest accounting: served_fresh + degraded + fallbacks = "
          f"{accounted} == requests = {metrics.requests}: {'OK' if ok else 'VIOLATED'}")
    print()
    print(profiler.report())
    return 0 if ok else 1


def _scripted_ok(text: str) -> bool:
    """Output validation for the scripted generators the demo clusters
    run: a non-empty sentence ending in a period."""
    return bool(text.strip()) and text.rstrip().endswith(".")


def _flaky_factory(plan, seed: int):
    """``(generator_factory, injectors)`` for a demo cluster.

    Each replica gets a ``ScriptedGenerator`` behind a ``FlakyGenerator``
    whose injector starts on ``plan`` and is seeded ``seed + index``
    (the injectors are returned so a scenario can re-plan them
    mid-drive); ``plan=None`` builds bare scripted generators.
    """
    from repro.serving import FaultInjector, FlakyGenerator
    from repro.serving.chaos import ScriptedGenerator

    injectors: list = []

    def factory(index: int):
        generator = ScriptedGenerator()
        if plan is None:
            return generator
        injectors.append(FaultInjector(plan, seed=seed + index))
        return FlakyGenerator(generator, injectors[-1])

    return factory, injectors


def cmd_cluster(args: argparse.Namespace) -> int:
    """Drive Zipf traffic through a sharded serving cluster; dump artifacts.

    Runs entirely on simulated clocks with a scripted generator, so two
    invocations with the same arguments produce byte-identical trace and
    metrics files.  The exit code reflects the cluster-wide request
    accounting invariant.
    """
    import json

    import numpy as np

    from repro.obs import (
        MetricsRegistry,
        chrome_trace,
        render_text,
        snapshot,
        validate_chrome_trace,
        validate_snapshot,
    )
    from repro.serving import ClusterConfig, CosmoCluster, FaultPlan
    from repro.serving.chaos import ScriptedGenerator
    from repro.utils.rng import spawn_rng

    if not 0.0 <= args.fault_rate <= 1.0:
        print(f"error: --fault-rate must be in [0, 1], got {args.fault_rate}")
        return 2

    factory, _ = _flaky_factory(
        FaultPlan.mixed(args.fault_rate) if args.fault_rate > 0.0 else None,
        args.seed)

    config = ClusterConfig(
        n_replicas=args.replicas,
        max_batch_size=args.max_batch_size,
        max_batch_delay_s=args.max_batch_delay_s,
        max_queue_depth=args.max_queue_depth,
        seed=args.seed,
    )
    registry = MetricsRegistry()
    cluster = CosmoCluster(factory, config=config, registry=registry,
                           response_validator=_scripted_ok)

    rng = spawn_rng(args.seed, "cluster-traffic")
    weights = 1.0 / np.arange(1, args.n_queries + 1) ** 1.3
    weights /= weights.sum()
    picks = rng.choice(args.n_queries, size=args.requests, p=weights)
    traffic = [f"query {int(i):03d}" for i in picks]
    gap_s = args.inter_arrival_ms / 1000.0

    print(f"Cluster: {config.n_replicas} replica(s), {args.requests} requests, "
          f"inter-arrival {args.inter_arrival_ms:.2f} ms, "
          f"fault rate {args.fault_rate:.0%}...")
    valid = 0
    for query in traffic:
        result = cluster.handle(query)
        valid += result.text == ScriptedGenerator.knowledge_for(query)
        cluster.clock.advance(gap_s)
    cluster.flush()
    # Horizon before the end-of-day refresh sleeps every clock to the
    # next day boundary — throughput is requests over the drive itself.
    horizon = cluster.busy_horizon_s
    cluster.daily_refresh(refresh_stale=False)

    trace = chrome_trace(
        [("cluster", cluster.tracer)]
        + [(replica_id, service.tracer)
           for replica_id, service in cluster.services.items()]
    )
    validate_chrome_trace(trace)
    snap = snapshot(registry)
    validate_snapshot(snap)
    if args.out_trace:
        with open(args.out_trace, "w") as handle:
            handle.write(json.dumps(trace, sort_keys=True, indent=2) + "\n")
        print(f"Wrote Chrome trace to {args.out_trace}")
    if args.out_metrics:
        with open(args.out_metrics, "w") as handle:
            handle.write(json.dumps(snap, sort_keys=True, indent=2) + "\n")
        print(f"Wrote metrics snapshot to {args.out_metrics}")

    totals = cluster.metrics_totals()
    table = Table("Cluster serving — one simulated drive", ["Metric", "Value"])
    table.add_row("Replicas", config.n_replicas)
    table.add_row("Requests", totals["requests"])
    table.add_row("Availability (served)", format_percent(cluster.availability))
    table.add_row("Correct knowledge", format_percent(valid / max(totals["requests"], 1)))
    table.add_row("Failovers", totals["failovers"])
    table.add_row("Shed (admission control)", totals["shed"])
    table.add_row("p50 / p99 latency",
                  f"{cluster.percentile(50) * 1000:.2f} / "
                  f"{cluster.percentile(99) * 1000:.2f} ms")
    table.add_row("Busy horizon", f"{horizon:.2f} s")
    table.add_row("Throughput", f"{totals['requests'] / horizon:,.0f} req/s"
                  if horizon > 0 else "n/a")
    print(table.render())
    if args.verbose_metrics:
        print(render_text(registry))

    ok = (totals["served_fresh"] + totals["degraded_serves"] + totals["fallbacks"]
          == totals["requests"] == totals["handled"])
    print(f"request accounting: fresh + degraded + fallbacks = "
          f"{totals['served_fresh'] + totals['degraded_serves'] + totals['fallbacks']} "
          f"== requests = {totals['requests']}: {'OK' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """End-to-end request tracing drive: one trace tree per request.

    Drives Zipf traffic (with fault injection, so retries and degraded
    serves appear) through a sharded cluster with per-request tracing
    on, tail-based sampling deciding which traces survive, exemplars on
    the latency histograms, and every mid-request event stamped with its
    trace id.  Emits two byte-deterministic artifacts — the flow-linked
    Chrome trace and the ``repro.obs.traces/v1`` summary (critical paths
    and per-stage latency breakdowns) — and exits non-zero if any
    tracing invariant fails: a disconnected trace tree, a stage
    breakdown that does not sum to the charged latency, an exemplar that
    resolves to nothing, or broken request accounting.
    """
    import json

    import numpy as np

    from repro.obs import (
        EventLog,
        MetricsRegistry,
        TailSampler,
        TraceAnalyzer,
        chrome_trace,
        render_events,
        trace_summary,
        validate_chrome_trace,
        validate_events,
        validate_trace_summary,
    )
    from repro.serving import ClusterConfig, CosmoCluster, FaultPlan
    from repro.serving.chaos import ScriptedGenerator
    from repro.utils.rng import spawn_rng

    if not 0.0 <= args.fault_rate <= 1.0:
        print(f"error: --fault-rate must be in [0, 1], got {args.fault_rate}")
        return 2

    factory, _ = _flaky_factory(
        FaultPlan.mixed(args.fault_rate) if args.fault_rate > 0.0 else None,
        args.seed)

    config = ClusterConfig(
        n_replicas=args.replicas,
        max_batch_size=args.max_batch_size,
        max_batch_delay_s=args.max_batch_delay_s,
        max_queue_depth=args.max_queue_depth,
        seed=args.seed,
    )
    registry = MetricsRegistry()
    event_log = EventLog(registry=registry)
    sampler = TailSampler(slowest_k=args.slowest_k, window_s=args.window_s,
                          head_every=args.head_every)
    cluster = CosmoCluster(factory, config=config, registry=registry,
                           event_log=event_log, sampler=sampler,
                           response_validator=_scripted_ok)
    # Warm the yearly layer for the head of the Zipf distribution so the
    # trace mix includes cache-hit traces, not only miss/degraded ones.
    warm = min(args.warm_queries, args.n_queries)
    cluster.preload_yearly({
        f"query {i:03d}": ScriptedGenerator.knowledge_for(f"query {i:03d}")
        for i in range(warm)
    })

    rng = spawn_rng(args.seed, "trace-traffic")
    weights = 1.0 / np.arange(1, args.n_queries + 1) ** 1.3
    weights /= weights.sum()
    picks = rng.choice(args.n_queries, size=args.requests, p=weights)
    gap_s = args.inter_arrival_ms / 1000.0

    print(f"Tracing drive: {config.n_replicas} replica(s), "
          f"{args.requests} requests, fault rate {args.fault_rate:.0%}, "
          f"tail sampling slowest-{sampler.slowest_k}/"
          f"{sampler.window_s:g}s window, head 1/{sampler.head_every}...")
    for pick in picks:
        cluster.handle(f"query {int(pick):03d}")
        cluster.clock.advance(gap_s)
    cluster.flush()
    sampler.flush()

    tracers = [(config.name, cluster.tracer)] + [
        (replica_id, service.tracer)
        for replica_id, service in cluster.services.items()
    ]
    trace = chrome_trace(tracers)
    validate_chrome_trace(trace)
    analyzer = TraceAnalyzer(tracers)
    summary = trace_summary(analyzer)
    validate_trace_summary(summary)
    events_text = render_events(event_log)
    validate_events(events_text)

    failures: list[str] = []
    totals = cluster.metrics_totals()
    accounted = (totals["served_fresh"] + totals["degraded_serves"]
                 + totals["fallbacks"])
    if not accounted == totals["requests"] == totals["handled"]:
        failures.append(f"request accounting violated: {totals}")
    trace_ids = analyzer.trace_ids()
    if not trace_ids:
        failures.append("no traces retained")
    for trace_id in trace_ids:
        if not analyzer.is_connected(trace_id):
            roots = [node.name for node in analyzer.roots(trace_id)]
            failures.append(f"trace {trace_id} is disconnected: roots {roots}")
        stages = analyzer.stage_breakdown(trace_id)
        duration = analyzer.duration_s(trace_id)
        if abs(sum(stages.values()) - duration) > 1e-9:
            failures.append(
                f"trace {trace_id}: stages sum {sum(stages.values()):.9f} "
                f"!= charged {duration:.9f}")
    exemplars = cluster._latency.exemplars()
    if not exemplars:
        failures.append("latency histogram carries no exemplars")
    retained = set(trace_ids)
    if exemplars and not any(tid in retained for _, tid, _ in exemplars):
        failures.append("no latency exemplar resolves to a retained trace")
    tagged = [e for e in event_log.events() if "trace_id" in e.attrs]
    if not tagged:
        failures.append("no event carries a trace id")

    if args.out_trace:
        with open(args.out_trace, "w") as handle:
            handle.write(json.dumps(trace, sort_keys=True, indent=2) + "\n")
        print(f"Wrote Chrome trace to {args.out_trace}")
    if args.out_summary:
        with open(args.out_summary, "w") as handle:
            handle.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
        print(f"Wrote trace summary to {args.out_summary}")
    if args.out_events:
        with open(args.out_events, "w") as handle:
            handle.write(events_text)
        print(f"Wrote event log to {args.out_events}")

    table = Table("Request tracing — one simulated drive", ["Metric", "Value"])
    table.add_row("Requests", totals["requests"])
    table.add_row("Availability (served)", format_percent(cluster.availability))
    table.add_row("Traces retained", len(trace_ids))
    table.add_row("Sampler decisions",
                  ", ".join(f"{reason} {count}"
                            for reason, count in sampler.decisions.items()))
    table.add_row("Spans buffered (residual)", sampler.buffered_spans)
    table.add_row("Exemplar buckets", len(exemplars))
    table.add_row("Trace-tagged events", len(tagged))
    print(table.render())

    aggregate = summary["aggregate"]
    stage_table = Table("Where the latency goes (self time across traces)",
                        ["Stage", "Total (ms)", "Traces"])
    for stage, entry in aggregate["stages"].items():
        stage_table.add_row(stage, f"{entry['total_s'] * 1000:.3f}",
                            entry["traces"])
    print(stage_table.render())

    slowest = max(summary["traces"], key=lambda t: (t["duration_s"],
                                                    t["trace_id"]))
    print(f"\nslowest retained trace {slowest['trace_id']} "
          f"({slowest['duration_s'] * 1000:.3f} ms, "
          f"outcome={slowest['outcome']}):")
    for step in slowest["critical_path"]:
        print(f"  {step['process']:>12}  {step['name']:<24} "
              f"self {step['self_s'] * 1000:8.3f} ms  [{step['stage']}]")

    if failures:
        print("\ntracing invariants VIOLATED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\ntracing invariants: OK")
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    """Continuous-monitoring drive: time series, SLO alerts, event log.

    Replays a deterministic three-phase workload (calm → storm →
    recovery) through a sharded cluster while a
    :class:`~repro.obs.timeseries.TimeSeriesCollector` scrapes the
    shared registry on a fixed simulated-time grid and an
    :class:`~repro.obs.slo.SloEvaluator` steps multi-window burn-rate
    alerts after every scrape.  Serving components publish structured
    events (breaker trips, drains, dead-letters, batch flushes) that
    finished alerts cross-reference.

    The ``chaos`` scenario scripts a full generator outage, a cold-query
    flood and a replica drain for the storm phase — at least one SLO
    alert is expected to walk pending → firing → resolved.  The
    ``clean`` scenario keeps faults off and must finish with no alert
    ever firing.  All three artifacts replay byte-identically for fixed
    arguments, and the exit code is 1 when any alert fired, so CI can
    assert each scenario's outcome.
    """
    import json

    import numpy as np

    from repro.obs import (
        BurnRateRule,
        EventLog,
        MetricsRegistry,
        MetricSum,
        SloEvaluator,
        SloSpec,
        TimeSeriesCollector,
        alert_report,
        render_events,
        timeline,
        validate_alert_report,
        validate_events,
        validate_timeline,
    )
    from repro.serving import ClusterConfig, CosmoCluster, FaultPlan
    from repro.serving.chaos import ScriptedGenerator
    from repro.utils.rng import spawn_rng

    chaos = args.scenario == "chaos"
    calm_plan = FaultPlan()
    storm_plan = FaultPlan(error_rate=1.0) if chaos else calm_plan
    factory, injectors = _flaky_factory(calm_plan, args.seed)

    config = ClusterConfig(
        n_replicas=args.replicas,
        max_batch_size=args.max_batch_size,
        max_batch_delay_s=args.max_batch_delay_s,
        max_queue_depth=args.max_queue_depth,
        seed=args.seed,
    )
    registry = MetricsRegistry()
    event_log = EventLog(registry=registry)
    cluster = CosmoCluster(factory, config=config, registry=registry,
                           event_log=event_log, response_validator=_scripted_ok)

    warm = [f"query {i:03d}" for i in range(args.n_queries)]
    cold = [f"storm query {i:03d}" for i in range(args.n_queries)]
    cluster.preload_yearly({q: ScriptedGenerator.knowledge_for(q) for q in warm})

    served = ("serving_served_fresh_total", "serving_degraded_serves_total")
    windows = (BurnRateRule(long_s=4 * args.scrape_interval_s,
                            short_s=args.scrape_interval_s,
                            max_burn_rate=10.0),)
    hold = args.scrape_interval_s
    release = 2 * args.scrape_interval_s
    lookback = 5 * args.scrape_interval_s
    specs = [
        SloSpec(
            name="availability",
            description="requests answered with knowledge (fresh or degraded)",
            target=0.99,
            good=MetricSum(served),
            total=MetricSum(served + ("serving_fallbacks_total",)),
            windows=windows,
            for_s=hold, resolve_after_s=release, event_lookback_s=lookback,
        ),
        SloSpec(
            name="latency-p99",
            description=f"end-to-end latency under {args.latency_slo_s:g}s",
            target=0.95,
            good=MetricSum(("cluster_request_latency_seconds",),
                           le=args.latency_slo_s),
            total=MetricSum(("cluster_request_latency_seconds",)),
            windows=windows,
            for_s=hold, resolve_after_s=release, event_lookback_s=lookback,
        ),
        SloSpec(
            name="cache-hit-rate",
            description="lookups answered from a cache layer",
            target=0.50,
            good=MetricSum(("cache_requests_total",),
                           where=(("outcome", ("layer1_hit", "layer2_hit")),)),
            total=MetricSum(("cache_requests_total",)),
            windows=(BurnRateRule(long_s=4 * args.scrape_interval_s,
                                  short_s=args.scrape_interval_s,
                                  max_burn_rate=1.6),),
            for_s=hold, resolve_after_s=release, event_lookback_s=lookback,
        ),
    ]
    evaluator = SloEvaluator(registry, specs, event_log=event_log)
    collector = TimeSeriesCollector(registry, interval_s=args.scrape_interval_s)

    rng = spawn_rng(args.seed, "monitor-traffic")
    weights = 1.0 / np.arange(1, args.n_queries + 1) ** 1.3
    weights /= weights.sum()

    def draw(universe: list[str]) -> list[str]:
        picks = rng.choice(args.n_queries, size=args.requests_per_phase, p=weights)
        return [universe[int(i)] for i in picks]

    # The storm phase floods the cluster with cold (never-cached) queries
    # while every generator hard-fails and one replica is drained; calm
    # and recovery replay warm traffic against healthy generators.
    phases = [
        ("calm", draw(warm), calm_plan, None),
        ("storm", draw(cold if chaos else warm), storm_plan,
         f"{config.name}-r1" if chaos and args.replicas > 1 else None),
        ("recovery", draw(warm), calm_plan, None),
    ]
    gap_s = args.inter_arrival_ms / 1000.0

    print(f"Monitor: scenario {args.scenario}, {config.n_replicas} replica(s), "
          f"{args.requests_per_phase} requests x {len(phases)} phases, "
          f"scrape every {args.scrape_interval_s:g}s...")
    drained: str | None = None
    phase_rows = []
    previous_totals = cluster.metrics_totals()
    for phase_name, traffic, plan, to_drain in phases:
        for injector in injectors:
            injector.plan = plan
        if drained is not None:
            cluster.restore(drained)
            drained = None
        if to_drain is not None:
            cluster.drain(to_drain)
            drained = to_drain
        for query in traffic:
            cluster.handle(query)
            cluster.clock.advance(gap_s)
            for ts in collector.maybe_scrape(cluster.clock.now()):
                evaluator.evaluate(ts)
        totals = cluster.metrics_totals()
        good = (totals["served_fresh"] + totals["degraded_serves"]
                - previous_totals["served_fresh"] - previous_totals["degraded_serves"])
        requests = totals["requests"] - previous_totals["requests"]
        phase_rows.append((phase_name, requests, good / max(requests, 1)))
        previous_totals = totals
    if drained is not None:
        cluster.restore(drained)
    cluster.flush()

    timeline_payload = timeline(collector)
    validate_timeline(timeline_payload)
    report = alert_report(evaluator)
    validate_alert_report(report)
    events_text = render_events(event_log)
    validate_events(events_text)
    if args.out_timeline:
        with open(args.out_timeline, "w") as handle:
            handle.write(json.dumps(timeline_payload, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        print(f"Wrote time-series timeline to {args.out_timeline}")
    if args.out_alerts:
        with open(args.out_alerts, "w") as handle:
            handle.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        print(f"Wrote alert report to {args.out_alerts}")
    if args.out_events:
        with open(args.out_events, "w") as handle:
            handle.write(events_text)
        print(f"Wrote event log to {args.out_events}")

    table = Table("Monitoring drive — phase availability", ["Phase", "Requests", "Served"])
    for phase_name, requests, availability in phase_rows:
        table.add_row(phase_name, requests, format_percent(availability))
    print(table.render())
    print(f"scrapes: {collector.scrapes}, series: {len(collector.series())}, "
          f"events: {event_log.emitted} emitted / {event_log.dropped} dropped")
    for alert in evaluator.alerts():
        window = (f"pending {alert.pending_ts:g}s"
                  + (f", firing {alert.firing_ts:g}s" if alert.firing_ts is not None else "")
                  + (f", resolved {alert.resolved_ts:g}s"
                     if alert.resolved_ts is not None and alert.state == "resolved" else ""))
        print(f"alert {alert.alert_id}: {alert.state} ({window}; "
              f"peak burn {alert.peak_burn_rate:.1f}x, "
              f"{len(alert.event_ids)} correlated event(s))")

    totals = cluster.metrics_totals()
    accounted = (totals["served_fresh"] + totals["degraded_serves"]
                 + totals["fallbacks"])
    ok = accounted == totals["requests"] == totals["handled"]
    print(f"request accounting: fresh + degraded + fallbacks = {accounted} "
          f"== requests = {totals['requests']}: {'OK' if ok else 'VIOLATED'}")
    fired = evaluator.any_fired
    print(f"SLO verdict: {'ALERTS FIRED' if fired else 'no alerts fired'}")
    return 1 if fired or not ok else 0


def cmd_rollout(args: argparse.Namespace) -> int:
    """Blue/green snapshot rollout drive with SLO-guarded auto-rollback.

    Builds a blue baseline snapshot, installs it cluster-wide, then asks
    a :class:`~repro.refresh.rollout.RolloutController` to roll a green
    child snapshot across the replicas one at a time while Zipf traffic
    flows and the SLO evaluator watches burn rates.  The ``healthy``
    scenario's green snapshot covers every query and the rollout must
    complete with no alert ever firing; the ``poisoned`` scenario's
    green snapshot has an *empty* serving table, so the first replica
    restored onto it burns the availability SLO and the controller must
    roll the cluster back to blue automatically (and re-drive the dead
    letters the poisoned replica accumulated).

    Every request is additionally checked for mixed-version leaks — a
    fresh cache answer whose text belongs to a snapshot other than the
    serving replica's authoritative version.  The exit code is 1 when
    any such answer was served (2 when request accounting broke); both
    scenarios normally exit 0, and CI asserts the scenario outcomes from
    the printed verdicts and the ``rollout.*`` events instead.

    All three artifacts replay byte-identically for fixed arguments.
    """
    import json

    import numpy as np

    from repro.obs import (
        EventLog,
        MetricsRegistry,
        SloEvaluator,
        TimeSeriesCollector,
        alert_report,
        render_events,
        timeline,
        validate_alert_report,
        validate_events,
        validate_timeline,
    )
    from repro.refresh import (
        RolloutController,
        SnapshotGenerator,
        SnapshotQualityGate,
        SnapshotStore,
        build_snapshot,
        mixed_version_violation,
        rollout_slo_specs,
    )
    from repro.serving import ClusterConfig, CosmoCluster
    from repro.utils.rng import spawn_rng

    queries = [f"query {i:03d}" for i in range(args.n_queries)]
    blue = build_snapshot({q: f"it is used for {q} (blue)." for q in queries},
                          note="blue baseline")
    if args.scenario == "healthy":
        green = build_snapshot({q: f"it is used for {q} (green)." for q in queries},
                               parent=blue, note="green refresh")
    else:
        # A refresh that lost its serving table: version checks out,
        # content is useless.  The failure the SLO guard exists to catch.
        green = build_snapshot({}, parent=blue, note="poisoned refresh")
    store = SnapshotStore()
    store.add(blue)

    config = ClusterConfig(
        n_replicas=args.replicas,
        max_batch_size=args.max_batch_size,
        max_batch_delay_s=args.max_batch_delay_s,
        max_queue_depth=args.max_queue_depth,
        seed=args.seed,
    )
    registry = MetricsRegistry()
    event_log = EventLog(registry=registry)
    cluster = CosmoCluster(lambda index: SnapshotGenerator(blue), config=config,
                           registry=registry, event_log=event_log,
                           response_validator=_scripted_ok)
    cluster.install_snapshot(blue)

    specs = rollout_slo_specs(args.scrape_interval_s,
                              latency_slo_s=args.latency_slo_s)
    evaluator = SloEvaluator(registry, specs, event_log=event_log)
    collector = TimeSeriesCollector(registry, interval_s=args.scrape_interval_s)
    # Both scenarios' snapshots carry no triples, so the knowledge gate
    # has nothing to drift on and passes; the poisoned scenario's empty
    # *serving table* is exactly what the SLO guard exists to catch.
    gate = SnapshotQualityGate(store, registry=registry)
    controller = RolloutController(cluster, store, green, evaluator,
                                   quality_gate=gate)

    rng = spawn_rng(args.seed, "rollout-traffic")
    weights = 1.0 / np.arange(1, args.n_queries + 1) ** 1.3
    weights /= weights.sum()
    gap_s = args.inter_arrival_ms / 1000.0
    violations = 0

    def drive(n_requests: int, rolling: bool) -> None:
        nonlocal violations
        picks = rng.choice(args.n_queries, size=n_requests, p=weights)
        for pick in picks:
            result = cluster.handle(queries[int(pick)])
            if mixed_version_violation(store, cluster, result):
                violations += 1
            cluster.clock.advance(gap_s)
            for ts in collector.maybe_scrape(cluster.clock.now()):
                evaluator.evaluate(ts)
                if rolling and not controller.done:
                    controller.tick(ts)

    print(f"Rollout: scenario {args.scenario}, {config.n_replicas} replica(s), "
          f"{blue.version} -> {green.version}, scrape every "
          f"{args.scrape_interval_s:g}s...")
    drive(args.requests_per_phase, rolling=False)        # warm: all-blue baseline
    drive(2 * args.requests_per_phase, rolling=True)     # rollout under traffic
    drive(args.requests_per_phase, rolling=False)        # settle: steady state
    cluster.flush()

    timeline_payload = timeline(collector)
    validate_timeline(timeline_payload)
    report = alert_report(evaluator)
    validate_alert_report(report)
    events_text = render_events(event_log)
    validate_events(events_text)
    if args.out_timeline:
        with open(args.out_timeline, "w") as handle:
            handle.write(json.dumps(timeline_payload, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        print(f"Wrote time-series timeline to {args.out_timeline}")
    if args.out_alerts:
        with open(args.out_alerts, "w") as handle:
            handle.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        print(f"Wrote alert report to {args.out_alerts}")
    if args.out_events:
        with open(args.out_events, "w") as handle:
            handle.write(events_text)
        print(f"Wrote event log to {args.out_events}")

    rollout = controller.report()
    totals = cluster.metrics_totals()
    table = Table("Rollout drive", ["Metric", "Value"])
    table.add_row("Scenario", args.scenario)
    table.add_row("Rollout state", rollout.state)
    table.add_row("Steps executed", len(rollout.steps))
    table.add_row("Requests", totals["requests"])
    table.add_row("Availability (served)", format_percent(cluster.availability))
    table.add_row("Fallbacks", totals["fallbacks"])
    table.add_row("Dead-lettered / redriven",
                  f"{sum(s.metrics.dead_lettered for s in cluster.services.values())}"
                  f" / {sum(s.metrics.redriven for s in cluster.services.values())}")
    table.add_row("Mixed-version answers", violations)
    table.add_row("p50 / p99 latency",
                  f"{cluster.percentile(50) * 1000:.2f} / "
                  f"{cluster.percentile(99) * 1000:.2f} ms")
    print(table.render())
    versions = cluster.snapshot_versions()
    print("replica versions: "
          + ", ".join(f"{r}={v}" for r, v in sorted(versions.items())))
    if rollout.rolled_back:
        print(f"rollback: objective {rollout.rollback_objective} "
              f"(alert {rollout.rollback_alert}), {rollout.redriven} dead "
              f"letter(s) redriven")
    print(f"SLO verdict: {'ALERTS FIRED' if evaluator.any_fired else 'no alerts fired'}")

    accounted = (totals["served_fresh"] + totals["degraded_serves"]
                 + totals["fallbacks"])
    ok = accounted == totals["requests"] == totals["handled"]
    print(f"request accounting: fresh + degraded + fallbacks = {accounted} "
          f"== requests = {totals['requests']}: {'OK' if ok else 'VIOLATED'}")
    print(f"mixed-version answers: {violations} "
          f"({'OK' if violations == 0 else 'VIOLATED'})")
    if not ok:
        return 2
    return 1 if violations else 0


def cmd_kghealth(args: argparse.Namespace) -> int:
    """Knowledge-plane health drive: snapshot drift gating under traffic.

    The inverse failure mode of the ``rollout`` drive.  There, the
    poisoned snapshot has a broken *serving table* and the SLO guard
    catches it; here, both scenarios' green snapshots serve every query
    perfectly — requests stay fast and answered throughout — but the
    ``poisoned`` scenario's *knowledge* is corrupted: every triple
    collapsed onto one relation with cratered plausibility scores, the
    drift signature of a refresh gone wrong.  Serving SLOs cannot see
    that, so the :class:`~repro.refresh.quality.SnapshotQualityGate`
    must block the rollout before the first replica is touched, while
    the ``healthy`` scenario (organic ~8% edge growth, same mix) must
    promote to completion.

    Artifacts: a ``repro.obs.kg_health/v1`` document (parent + candidate
    health, the drift report, the gate decision) and the
    ``repro.obs.events/v1`` log carrying the ``rollout.gate_*`` edges.
    Both replay byte-identically for fixed arguments.  Exit code 2 means
    request accounting broke, 1 means the gate tripped (blocked or
    knowledge-quality rollback) or a mixed-version answer leaked, 0 a
    clean promotion — so healthy exits 0 and poisoned exits 1 by
    construction.
    """
    import json

    import numpy as np

    from repro.core.relations import Relation
    from repro.core.triples import KnowledgeTriple
    from repro.obs import (
        EventLog,
        MetricsRegistry,
        SloEvaluator,
        TimeSeriesCollector,
        kg_health_report,
        render_events,
        validate_events,
        validate_kg_health,
    )
    from repro.refresh import (
        RolloutController,
        SnapshotGenerator,
        SnapshotQualityGate,
        SnapshotStore,
        build_snapshot,
        mixed_version_violation,
        rollout_slo_specs,
    )
    from repro.serving import ClusterConfig, CosmoCluster
    from repro.utils.rng import spawn_rng

    queries = [f"query {i:03d}" for i in range(args.n_queries)]
    relations = (Relation.USED_FOR_FUNC, Relation.CAPABLE_OF, Relation.USED_TO,
                 Relation.USED_FOR_AUD, Relation.USED_WITH)
    domains = ("Apparel", "Electronics", "Grocery", "Home")

    def edges(count: int, offset: int = 0,
              relation_cycle: tuple = relations,
              plaus_base: float = 0.55, plaus_span: float = 0.4) -> list:
        # Deterministic arithmetic, no RNG: the same arguments always
        # produce the same triples, so snapshot versions are stable.
        out = []
        for k in range(offset, offset + count):
            out.append(KnowledgeTriple(
                head=queries[(k // 2) % len(queries)],
                relation=relation_cycle[k % len(relation_cycle)],
                tail=f"intent {k % 23:02d}",
                domain=domains[k % len(domains)],
                behavior="search-buy" if k % 3 else "co-buy",
                plausibility=plaus_base + plaus_span * ((k * 37) % 100) / 100.0,
                typicality=0.45 + 0.5 * ((k * 53) % 100) / 100.0,
                support=1 + k % 3,
            ))
        return out

    blue_triples = edges(2 * args.n_queries)
    blue = build_snapshot({q: f"it is used for {q} (blue)." for q in queries},
                          blue_triples, note="blue baseline")
    green_entries = {q: f"it is used for {q} (green)." for q in queries}
    if args.scenario == "healthy":
        growth = max(4, args.n_queries // 6)
        green = build_snapshot(green_entries,
                               blue_triples + edges(growth,
                                                    offset=2 * args.n_queries),
                               parent=blue, note="green refresh")
    else:
        # The serving table is complete — requests will be answered and
        # no SLO will burn — but the knowledge behind it collapsed onto
        # IS_A with near-zero plausibility.  Only the gate can see this.
        green = build_snapshot(green_entries,
                               edges(2 * args.n_queries,
                                     relation_cycle=(Relation.IS_A,),
                                     plaus_base=0.03, plaus_span=0.0),
                               parent=blue, note="poisoned refresh")
    store = SnapshotStore()
    store.add(blue)

    config = ClusterConfig(
        n_replicas=args.replicas,
        max_batch_size=args.max_batch_size,
        max_batch_delay_s=args.max_batch_delay_s,
        max_queue_depth=args.max_queue_depth,
        seed=args.seed,
    )
    registry = MetricsRegistry()
    event_log = EventLog(registry=registry)
    cluster = CosmoCluster(lambda index: SnapshotGenerator(blue), config=config,
                           registry=registry, event_log=event_log,
                           response_validator=_scripted_ok)
    cluster.install_snapshot(blue)

    specs = rollout_slo_specs(args.scrape_interval_s,
                              latency_slo_s=args.latency_slo_s)
    evaluator = SloEvaluator(registry, specs, event_log=event_log)
    collector = TimeSeriesCollector(registry, interval_s=args.scrape_interval_s)
    gate = SnapshotQualityGate(store, registry=registry)
    controller = RolloutController(cluster, store, green, evaluator,
                                   quality_gate=gate)

    rng = spawn_rng(args.seed, "kghealth-traffic")
    weights = 1.0 / np.arange(1, args.n_queries + 1) ** 1.3
    weights /= weights.sum()
    gap_s = args.inter_arrival_ms / 1000.0
    violations = 0

    def drive(n_requests: int, rolling: bool) -> None:
        nonlocal violations
        picks = rng.choice(args.n_queries, size=n_requests, p=weights)
        for pick in picks:
            result = cluster.handle(queries[int(pick)])
            if mixed_version_violation(store, cluster, result):
                violations += 1
            cluster.clock.advance(gap_s)
            for ts in collector.maybe_scrape(cluster.clock.now()):
                evaluator.evaluate(ts)
                if rolling and not controller.done:
                    controller.tick(ts)

    print(f"KG health drive: scenario {args.scenario}, "
          f"{config.n_replicas} replica(s), {blue.version} -> {green.version}, "
          f"scrape every {args.scrape_interval_s:g}s...")
    drive(args.requests_per_phase, rolling=False)        # warm: all-blue baseline
    drive(2 * args.requests_per_phase, rolling=True)     # gated rollout window
    drive(args.requests_per_phase, rolling=False)        # settle: steady state
    cluster.flush()

    decision = gate.assess(green)   # cached from the controller's ticks
    health_doc = kg_health_report(
        [decision.parent_health, decision.health]
        if decision.parent_health is not None else [decision.health],
        drift=[decision.drift] if decision.drift is not None else [],
        gates=[decision],
    )
    validate_kg_health(health_doc)
    events_text = render_events(event_log)
    validate_events(events_text)
    if args.out_health:
        with open(args.out_health, "w") as handle:
            handle.write(json.dumps(health_doc, sort_keys=True, indent=2) + "\n")
        print(f"Wrote kg-health report to {args.out_health}")
    if args.out_events:
        with open(args.out_events, "w") as handle:
            handle.write(events_text)
        print(f"Wrote event log to {args.out_events}")

    rollout = controller.report()
    totals = cluster.metrics_totals()
    parent_health = decision.parent_health
    table = Table("KG health drive", ["Metric", "Value"])
    table.add_row("Scenario", args.scenario)
    table.add_row("Gate verdict", "PROMOTE" if decision.promote else "BLOCK")
    table.add_row("Drift breaches", len(decision.breaches))
    table.add_row("Rollout state", rollout.state)
    table.add_row("Candidate triples / nodes",
                  f"{decision.health.triples} / {decision.health.nodes}")
    if parent_health is not None:
        table.add_row("Parent triples / nodes",
                      f"{parent_health.triples} / {parent_health.nodes}")
    table.add_row("Candidate mean plausibility",
                  f"{decision.health.plausibility.mean:.3f}")
    table.add_row("Requests", totals["requests"])
    table.add_row("Availability (served)", format_percent(cluster.availability))
    table.add_row("Mixed-version answers", violations)
    print(table.render())
    for breach in decision.breaches:
        print(f"drift breach: {breach}")
    versions = cluster.snapshot_versions()
    print("replica versions: "
          + ", ".join(f"{r}={v}" for r, v in sorted(versions.items())))
    gate_tripped = (rollout.blocked
                    or rollout.rollback_objective == "knowledge-quality")
    print(f"gate verdict: {'BLOCK' if gate_tripped else 'PROMOTE'}")
    print(f"SLO verdict: {'ALERTS FIRED' if evaluator.any_fired else 'no alerts fired'}")

    accounted = (totals["served_fresh"] + totals["degraded_serves"]
                 + totals["fallbacks"])
    ok = accounted == totals["requests"] == totals["handled"]
    print(f"request accounting: fresh + degraded + fallbacks = {accounted} "
          f"== requests = {totals['requests']}: {'OK' if ok else 'VIOLATED'}")
    print(f"mixed-version answers: {violations} "
          f"({'OK' if violations == 0 else 'VIOLATED'})")
    if not ok:
        return 2
    return 1 if gate_tripped or violations else 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import main as lint_main

    argv = list(args.paths)
    if args.format != "text":
        argv += ["--format", args.format]
    if args.fix:
        argv.append("--fix")
    if args.no_cache:
        argv.append("--no-cache")
    elif args.cache is not None:
        argv += ["--cache", args.cache]
    if args.cache_stats:
        argv.append("--cache-stats")
    if args.no_baseline:
        argv.append("--no-baseline")
    elif args.baseline is not None:
        argv += ["--baseline", args.baseline]
    return lint_main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build-kg", help="run the pipeline and export the KG")
    build.add_argument("--seed", type=int, default=7)
    build.add_argument("--scale", type=float, default=0.5,
                       help="world/sampling scale factor (1.0 = default sizes)")
    build.add_argument("--lm-epochs", type=int, default=10)
    build.add_argument("--out", type=str, default="",
                       help="write the KG to this JSONL path")
    build.set_defaults(func=cmd_build_kg)

    inspect = sub.add_parser("inspect-kg", help="summarize an exported KG")
    inspect.add_argument("path")
    inspect.add_argument("--sample", type=int, default=5)
    inspect.set_defaults(func=cmd_inspect_kg)

    generate = sub.add_parser("generate", help="generate knowledge for one behavior")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--scale", type=float, default=0.4)
    generate.add_argument("--lm-epochs", type=int, default=10)
    generate.add_argument("--query", required=True)
    generate.add_argument("--product-type", required=True)
    generate.add_argument("--product-title", default="")
    generate.add_argument("--domain", required=True)
    generate.set_defaults(func=cmd_generate)

    chaos = sub.add_parser(
        "chaos", help="fault-injected serving simulation (resilience ablation)")
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--fault-rate", type=float, default=0.1,
                       help="headline injected fault rate (see FaultPlan.mixed)")
    chaos.add_argument("--no-resilience", action="store_true",
                       help="disable retries, circuit breaker and degraded serving")
    chaos.add_argument("--requests-per-day", type=int, default=1500)
    chaos.add_argument("--days", type=int, default=2,
                       help="measured days of traffic (after one warmup day)")
    chaos.add_argument("--outage-demo", action="store_true",
                       help="also run the scripted sustained-outage scenario")
    chaos.set_defaults(func=cmd_chaos)

    obs = sub.add_parser(
        "obs",
        help="run a small pipeline + serving day under tracing; dump artifacts")
    obs.add_argument("--seed", type=int, default=7)
    obs.add_argument("--scale", type=float, default=0.3)
    obs.add_argument("--lm-epochs", type=int, default=4)
    obs.add_argument("--requests", type=int, default=600,
                     help="requests in the simulated serving day")
    obs.add_argument("--chunk", type=int, default=200,
                     help="requests between batch-processing cycles")
    obs.add_argument("--out-trace", type=str, default="",
                     help="write Chrome trace-event JSON here")
    obs.add_argument("--out-metrics", type=str, default="",
                     help="write the metrics snapshot JSON here")
    obs.set_defaults(func=cmd_obs)

    cluster = sub.add_parser(
        "cluster",
        help="drive a sharded multi-replica serving cluster; dump artifacts")
    cluster.add_argument("--seed", type=int, default=7)
    cluster.add_argument("--replicas", type=int, default=3)
    cluster.add_argument("--requests", type=int, default=2000)
    cluster.add_argument("--n-queries", type=int, default=150,
                         help="distinct queries in the Zipf traffic universe")
    cluster.add_argument("--inter-arrival-ms", type=float, default=1.0,
                         help="offered-load gap between request arrivals")
    cluster.add_argument("--fault-rate", type=float, default=0.0,
                         help="per-replica injected fault rate (FaultPlan.mixed)")
    cluster.add_argument("--max-batch-size", type=int, default=16)
    cluster.add_argument("--max-batch-delay-s", type=float, default=0.25,
                         help="bound on oldest-pending staleness before a "
                              "deadline flush (simulated seconds)")
    cluster.add_argument("--max-queue-depth", type=int, default=500)
    cluster.add_argument("--out-trace", type=str, default="",
                         help="write Chrome trace-event JSON here")
    cluster.add_argument("--out-metrics", type=str, default="",
                         help="write the metrics snapshot JSON here")
    cluster.add_argument("--verbose-metrics", action="store_true",
                         help="also print the full text exposition")
    cluster.set_defaults(func=cmd_cluster)

    trace = sub.add_parser(
        "trace",
        help="end-to-end request tracing drive: trace trees, tail "
             "sampling, exemplars, critical paths")
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--replicas", type=int, default=3)
    trace.add_argument("--requests", type=int, default=400)
    trace.add_argument("--n-queries", type=int, default=120,
                       help="distinct query population (Zipf weighted)")
    trace.add_argument("--warm-queries", type=int, default=30,
                       help="Zipf-head queries preloaded into the yearly cache")
    trace.add_argument("--inter-arrival-ms", type=float, default=5.0,
                       help="simulated gap between arrivals")
    trace.add_argument("--fault-rate", type=float, default=0.15,
                       help="per-call generator fault probability")
    trace.add_argument("--slowest-k", type=int, default=3,
                       help="ordinary traces retained per sampling window")
    trace.add_argument("--window-s", type=float, default=60.0,
                       help="tail-sampling window in simulated seconds")
    trace.add_argument("--head-every", type=int, default=25,
                       help="retain every Nth ordinary trace as a baseline")
    trace.add_argument("--max-batch-size", type=int, default=8)
    trace.add_argument("--max-batch-delay-s", type=float, default=0.25)
    trace.add_argument("--max-queue-depth", type=int, default=300)
    trace.add_argument("--out-trace", type=str, default="",
                       help="write the flow-linked Chrome trace JSON here")
    trace.add_argument("--out-summary", type=str, default="",
                       help="write the repro.obs.traces/v1 summary JSON here")
    trace.add_argument("--out-events", type=str, default="",
                       help="write the trace-stamped event log (JSONL) here")
    trace.set_defaults(func=cmd_trace)

    monitor = sub.add_parser(
        "monitor",
        help="continuous-monitoring drive: time series, SLO alerts, event log")
    monitor.add_argument("--seed", type=int, default=7)
    monitor.add_argument("--scenario", choices=("clean", "chaos"), default="chaos",
                         help="chaos scripts an outage + drain storm phase; "
                              "clean keeps faults off")
    monitor.add_argument("--replicas", type=int, default=3)
    monitor.add_argument("--requests-per-phase", type=int, default=600)
    monitor.add_argument("--n-queries", type=int, default=120,
                         help="distinct queries per traffic universe")
    monitor.add_argument("--inter-arrival-ms", type=float, default=5.0)
    monitor.add_argument("--scrape-interval-s", type=float, default=0.5,
                         help="time-series scrape grid (simulated seconds)")
    monitor.add_argument("--latency-slo-s", type=float, default=0.25,
                         help="latency objective threshold (p99-style bound)")
    monitor.add_argument("--max-batch-size", type=int, default=16)
    monitor.add_argument("--max-batch-delay-s", type=float, default=0.25)
    monitor.add_argument("--max-queue-depth", type=int, default=300)
    monitor.add_argument("--out-timeline", type=str, default="",
                         help="write the repro.obs.timeseries/v1 JSON here")
    monitor.add_argument("--out-alerts", type=str, default="",
                         help="write the repro.obs.alerts/v1 JSON here")
    monitor.add_argument("--out-events", type=str, default="",
                         help="write the repro.obs.events/v1 JSONL here")
    monitor.set_defaults(func=cmd_monitor)

    rollout = sub.add_parser(
        "rollout",
        help="blue/green snapshot rollout drive with SLO-guarded rollback")
    rollout.add_argument("--seed", type=int, default=7)
    rollout.add_argument("--scenario", choices=("healthy", "poisoned"),
                         default="healthy",
                         help="healthy rolls a complete green snapshot to "
                              "completion; poisoned rolls an empty one and "
                              "must auto-rollback")
    rollout.add_argument("--replicas", type=int, default=3)
    rollout.add_argument("--requests-per-phase", type=int, default=700,
                         help="requests in the warm and settle phases (the "
                              "rollout phase drives twice this)")
    rollout.add_argument("--n-queries", type=int, default=120,
                         help="distinct queries in the Zipf traffic universe")
    rollout.add_argument("--inter-arrival-ms", type=float, default=5.0)
    rollout.add_argument("--scrape-interval-s", type=float, default=0.5,
                         help="scrape grid; the controller advances one "
                              "rollout step per scrape")
    rollout.add_argument("--latency-slo-s", type=float, default=0.25)
    rollout.add_argument("--max-batch-size", type=int, default=16)
    rollout.add_argument("--max-batch-delay-s", type=float, default=0.25)
    rollout.add_argument("--max-queue-depth", type=int, default=300)
    rollout.add_argument("--out-timeline", type=str, default="",
                         help="write the repro.obs.timeseries/v1 JSON here")
    rollout.add_argument("--out-alerts", type=str, default="",
                         help="write the repro.obs.alerts/v1 JSON here")
    rollout.add_argument("--out-events", type=str, default="",
                         help="write the repro.obs.events/v1 JSONL here")
    rollout.set_defaults(func=cmd_rollout)

    kghealth = sub.add_parser(
        "kghealth",
        help="knowledge-plane health drive: snapshot drift detection "
             "and quality-gated rollout")
    kghealth.add_argument("--seed", type=int, default=7)
    kghealth.add_argument("--scenario", choices=("healthy", "poisoned"),
                          default="healthy",
                          help="healthy rolls an organically-grown snapshot "
                               "to completion; poisoned rolls one whose "
                               "knowledge collapsed (relation mix + critic "
                               "scores) and must be gate-blocked")
    kghealth.add_argument("--replicas", type=int, default=3)
    kghealth.add_argument("--requests-per-phase", type=int, default=500,
                          help="requests in the warm and settle phases (the "
                               "rollout phase drives twice this)")
    kghealth.add_argument("--n-queries", type=int, default=120,
                          help="distinct queries in the Zipf traffic universe")
    kghealth.add_argument("--inter-arrival-ms", type=float, default=5.0)
    kghealth.add_argument("--scrape-interval-s", type=float, default=0.5,
                          help="scrape grid; the controller advances one "
                               "rollout step per scrape")
    kghealth.add_argument("--latency-slo-s", type=float, default=0.25)
    kghealth.add_argument("--max-batch-size", type=int, default=16)
    kghealth.add_argument("--max-batch-delay-s", type=float, default=0.25)
    kghealth.add_argument("--max-queue-depth", type=int, default=300)
    kghealth.add_argument("--out-health", type=str, default="",
                          help="write the repro.obs.kg_health/v1 JSON here")
    kghealth.add_argument("--out-events", type=str, default="",
                          help="write the repro.obs.events/v1 JSONL here")
    kghealth.set_defaults(func=cmd_kghealth)

    lint = sub.add_parser(
        "lint", help="run cosmolint, the repo's static invariant checker")
    lint.add_argument("paths", nargs="*", default=["src", "benchmarks", "examples"],
                      help="files or directories to lint")
    lint.add_argument("--format", choices=("text", "json", "sarif"), default="text")
    lint.add_argument("--fix", action="store_true",
                      help="apply safe autofixes before linting")
    lint.add_argument("--cache", metavar="PATH", default=None,
                      help="analysis cache file (default .cosmolint-cache.json)")
    lint.add_argument("--no-cache", action="store_true",
                      help="disable the incremental analysis cache")
    lint.add_argument("--cache-stats", action="store_true",
                      help="print cache hit/miss counts to stderr")
    lint.add_argument("--baseline", metavar="PATH", default=None,
                      help="baseline file of accepted findings")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline file")
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
