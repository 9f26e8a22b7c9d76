"""The signal inventory: every metric family, event kind and span name the
seeded drives emit, with the reader of each, so that a signal nothing reads
is deleted instead of exported forever.

``INVENTORY`` is the list of record.  The drives are the seven ``SCENARIOS``
in every ``--scenario`` variant (the cached drives of ``test_scenarios``)
plus the session's one ``CosmoPipeline`` run.  The test fails when a drive
emits a signal with no row, a row names no consumer, a row is never
emitted, or a metric family grows past its child budget — so a new signal
lands with its reader or not at all.

A consumer is code outside the signal's own module and outside ``tests/``
that reads *that* value: an ``SloSpec`` selector, a scenario expectation or
``_report`` row, ``_STAGE_PREFIXES`` for a span, a CLI print, a bench
column.  The generic carriers (``obs.snapshot``, ``chrome_trace``,
``render_events``) export everything and count for nothing, so no row names one of them or ``tests/``.  Alert
correlation is the designed reader of an event kind nothing more specific
reads; every span name has a reader of its own.
"""

from dataclasses import dataclass, replace

from tests.test_scenarios import _DRIVES, _played


@dataclass(frozen=True)
class Row:
    name: str
    kind: str                       #: counter / histogram / event / span
    labels: tuple[str, ...]
    budget: int                     #: most children one drive may grow
    consumer: str


def _event(name: str, consumer: str) -> Row:
    return Row(name, "event", (), 1, consumer)


def _span(name: str, consumer: str) -> Row:
    return Row(name, "span", (), 1, consumer)


# Budgets are for the largest drive: 3 replicas, so a per-replica family has
# 3 children, the cache 3 stores x 3 outcomes.
_PERF = "benchmarks/perf/perf_workloads.py::_cluster_counts"
_AVAILABILITY = ("SloSpec availability selector (refresh/rollout.py::"
                 "rollout_slo_specs); cluster.metrics_totals() -> scenarios.expect_accounting")
_CLUSTER_EXPECTATION = "scenarios.expect_replica_processes_and_cluster_metrics"
_CORRELATION = "SloEvaluator alert correlation (alert event_ids; designed reader)"
_STAGES = "obs/trace_query.py::_STAGE_PREFIXES"
_PIPELINE_CHILD = ("scenarios.expect_nested_pipeline_spans (needs a span "
                   "nested under pipeline.run)")
_TALLIES = "scenarios.Drive.tallies"
_LEDGER = f"{_TALLIES} -> scenarios._ledger"

INVENTORY = (
    # -- metric families -----------------------------------------------------
    Row("serving_batch_runs_total", "counter", ("service",), 3,
        f"{_PERF} reads metrics.batch_runs (flushes_per_kreq); "
        "bench_fig5_serving 'Batch runs' row"),
    Row("serving_batch_queries_processed_total", "counter", ("service",), 3,
        f"{_PERF} reads metrics.batch_queries_processed (mean_flush_size)"),
    Row("serving_served_fresh_total", "counter", ("service",), 3, _AVAILABILITY),
    Row("serving_degraded_serves_total", "counter", ("service",), 3, _AVAILABILITY),
    Row("serving_fallbacks_total", "counter", ("service",), 3, _AVAILABILITY),
    Row("serving_retries_total", "counter", ("service",), 3,
        f"{_PERF} reads metrics.retries; {_LEDGER} 'Retries' row; "
        "scenarios.expect_baseline_falls_back; bench_ablation_resilience"),
    Row("serving_generator_failures_total", "counter", ("service",), 3,
        f"{_LEDGER} 'Generator failures' row"),
    Row("serving_rejected_generations_total", "counter", ("service",), 3,
        f"{_LEDGER} 'Rejected generations' row"),
    Row("serving_dead_lettered_total", "counter", ("service",), 3,
        f"{_PERF} reads metrics.dead_lettered; scenarios._report "
        "'Dead-lettered / redriven' row"),
    Row("serving_redriven_total", "counter", ("service",), 3,
        "scenarios._report 'Dead-lettered / redriven' row; "
        f"{_TALLIES} -> scenarios.expect_breaker_recovers"),
    Row("serving_request_latency_seconds", "histogram", ("service",), 3,
        "benchmarks/bench_fig5_serving.py reads it by name (p50/p99 columns)"),
    Row("cluster_requests_total", "counter", ("cluster",), 1,
        f"{_CLUSTER_EXPECTATION}; metrics_totals()['handled'] -> scenarios.expect_accounting"),
    Row("cluster_failovers_total", "counter", ("cluster",), 1,
        f"{_CLUSTER_EXPECTATION}; scenarios._report 'Failovers' row"),
    Row("cluster_shed_total", "counter", ("cluster",), 1,
        f"scenarios._report 'Shed' row; {_PERF} (shed_share)"),
    Row("cluster_batch_flushes_total", "counter", ("cluster", "trigger"), 3,
        _CLUSTER_EXPECTATION),
    Row("cluster_request_latency_seconds", "histogram", ("cluster",), 1,
        "SloSpec latency selector (rollout_slo_specs); scenarios._report "
        "p50 / p99 row; sim.p99_ms"),
    Row("cache_requests_total", "counter", ("store", "outcome"), 9,
        "SloSpec cache-hit-rate selector (scenarios._monitor_setup, "
        f"bench_monitor_overhead); {_PERF} reads cache.stats.requests / "
        ".layer1_hits / .layer2_hits; bench_fig5_serving by name"),
    Row("cache_pending_evictions_total", "counter", ("store",), 3,
        f"{_TALLIES} reads cache.stats.pending_evictions -> scenarios._ledger "
        "'Pending evictions' row"),
    # -- event kinds ---------------------------------------------------------
    _event("breaker.open", "scenarios.expect_storm_alerts_resolve_and_correlate"),
    _event("cluster.flush", _CORRELATION),
    _event("rollout.blocked", "scenarios.expect_gate_blocks"),
    _event("rollout.complete", "scenarios.expect_rollout_completes_quietly, "
                               "expect_gate_promotes"),
    _event("rollout.gate_block", "scenarios.expect_gate_blocks"),
    _event("rollout.gate_pass", "scenarios.expect_gate_promotes"),
    _event("rollout.rollback_complete", "scenarios.expect_rollback_and_redrive"),
    _event("rollout.rollback_start", "scenarios.expect_rollback_and_redrive"),
    _event("rollout.start", "scenarios.expect_rollout_completes_quietly, "
                            "expect_rollback_and_redrive"),
    _event("rollout.swap", _CORRELATION),
    _event("router.drain", "scenarios.expect_storm_alerts_resolve_and_correlate"),
    _event("router.restore", _CORRELATION),
    _event("service.dead_letter", _CORRELATION),
    _event("service.degraded_entry",
           "scenarios.expect_storm_alerts_resolve_and_correlate"),
    _event("service.degraded_exit", _CORRELATION),
    _event("service.redrive", "scenarios.expect_rollback_and_redrive"),
    _event("service.snapshot_swap", "scenarios.expect_rollout_completes_quietly, "
                                    "expect_rollback_and_redrive"),
    # -- span names ----------------------------------------------------------
    _span("cluster.flush", f"{_STAGES} 'cluster.flush'"),
    _span("cluster.queueing", f"{_STAGES} 'cluster.queueing'"),
    _span("cluster.request", "trace_summary reads the root's name, outcome and "
                             "source (scenarios.expect_connected_traces)"),
    _span("pipeline.run", "scenarios.expect_nested_pipeline_spans"),
    _span("pipeline.behavior_simulation", _PIPELINE_CHILD),
    _span("pipeline.behavior_sampling", _PIPELINE_CHILD),
    _span("pipeline.teacher_generation", _PIPELINE_CHILD),
    _span("pipeline.filtering", _PIPELINE_CHILD),
    _span("pipeline.annotation", _PIPELINE_CHILD),
    _span("pipeline.critic", _PIPELINE_CHILD),
    _span("pipeline.instruction_build", _PIPELINE_CHILD),
    _span("pipeline.lm_finetune", _PIPELINE_CHILD),
    _span("pipeline.kg_assembly", _PIPELINE_CHILD),
    _span("resilience.attempt", f"{_STAGES} 'resilience.attempt'"),
    _span("resilience.backoff", f"{_STAGES} 'resilience.backoff'"),
    _span("serving.cache_serve", f"{_STAGES} 'serving.cache'"),
    _span("serving.degraded_serve", f"{_STAGES} 'serving.degraded'"),
    _span("serving.fallback_serve", f"{_STAGES} 'serving.fallback'"),
    _span("serving.run_batch", f"{_STAGES} 'serving.run_batch'"),
)


def _key(name: str, kind: str) -> tuple[str, str]:
    """Event kinds and span names share a namespace with each other
    (``cluster.flush`` is both), metric families do not."""
    return name, kind if kind in ("event", "span") else "metric"


def measure(registries=(), event_logs=(), tracers=()) -> dict:
    """``(name, section) -> (kind, label names, most children in one drive)``."""
    seen: dict = {}
    for registry in registries:
        for family in registry.families():
            key = _key(family.name, family.kind)
            children = len(list(family.samples()))
            if key not in seen or children > seen[key][2]:
                seen[key] = (family.kind, family.labelnames, children)
    for log in event_logs:
        for event in log.events():
            seen[_key(event.kind, "event")] = ("event", (), 1)
    for tracer in tracers:
        for span in tracer.spans():
            seen[_key(span.name, "span")] = ("span", (), 1)
    return seen


#: Readers that count for nothing: a test, or a carrier exporting everything.
_NOT_CONSUMERS = ("tests/", "chrome_trace", "obs.snapshot", "render_events")


def audit(inventory, measured: dict) -> list[str]:
    """Every way the inventory and what the drives emitted disagree."""
    rows = {_key(row.name, row.kind): row for row in inventory}
    problems = [f"{name} ({section}): emitted by a seeded drive, no inventory row"
                for name, section in sorted(measured.keys() - rows.keys())]
    for key, row in rows.items():
        if not row.consumer.strip():
            problems.append(f"{row.name}: row names no consumer")
        elif any(carrier in row.consumer for carrier in _NOT_CONSUMERS):
            problems.append(f"{row.name}: a test or a generic carrier is "
                            "not a consumer")
        if key not in measured:
            problems.append(f"{row.name}: row is never emitted by a seeded drive")
            continue
        kind, labels, children = measured[key]
        if (kind, labels) != (row.kind, row.labels):
            problems.append(f"{row.name}: emitted as {kind}{labels}, "
                            f"row says {row.kind}{row.labels}")
        if children > row.budget:
            problems.append(f"{row.name}: {children} children, budget {row.budget}")
    return problems


def test_every_emitted_signal_has_a_row_a_consumer_and_a_budget(trained_pipeline_run):
    drives = [_played(*argv) for argv in _DRIVES]
    pipeline, _ = trained_pipeline_run
    measured = measure(
        registries=[drive.registry for drive in drives],
        event_logs=[drive.cluster.event_log for drive in drives
                    if drive.cluster.event_log is not None],
        tracers=[tracer for drive in drives for _, tracer in drive.tracers]
        + [pipeline.tracer])
    assert audit(INVENTORY, measured) == []
    assert len(INVENTORY) == len({_key(row.name, row.kind) for row in INVENTORY})


# -- the comparison reports each disagreement (small cases, no drive) ------
def _toy():
    from repro.obs import EventLog, MetricsRegistry

    registry, log = MetricsRegistry(), EventLog()
    hits = registry.counter("hits_total", "", ("store",))
    hits.labels(store="a").inc()
    log.emit("breaker.open", ts=0.0, component="c")
    inventory = (Row("hits_total", "counter", ("store",), 1, "a bench column"),
                 _event("breaker.open", "an expectation"))
    assert audit(inventory, measure([registry], [log])) == []
    return registry, log, hits, inventory


def test_audit_reports_a_family_registered_without_a_row():
    registry, log, _, inventory = _toy()
    registry.counter("queue_depth")
    assert audit(inventory, measure([registry], [log])) == [
        "queue_depth (metric): emitted by a seeded drive, no inventory row"]


def test_audit_reports_a_row_that_is_never_emitted_or_names_no_consumer():
    registry, log, _, inventory = _toy()
    stale = inventory + (_span("cache.fetch", "a stage prefix"),)
    assert audit(stale, measure([registry], [log])) == [
        "cache.fetch: row is never emitted by a seeded drive"]
    unread = (replace(inventory[0], consumer=" "), inventory[1])
    assert audit(unread, measure([registry], [log])) == [
        "hits_total: row names no consumer"]


def test_audit_reports_a_row_read_only_by_a_test_or_a_carrier():
    registry, log, _, inventory = _toy()
    for consumer in ("tests/obs/test_x.py reads it", "chrome_trace artifact"):
        carried = (replace(inventory[0], consumer=consumer), inventory[1])
        assert audit(carried, measure([registry], [log])) == [
            "hits_total: a test or a generic carrier is not a consumer"]


def test_audit_reports_a_family_over_its_child_budget_or_off_its_schema():
    registry, log, hits, inventory = _toy()
    hits.labels(store="b").inc()
    assert audit(inventory, measure([registry], [log])) == [
        "hits_total: 2 children, budget 1"]
    relabelled = (replace(inventory[0], labels=("cache",), budget=2), inventory[1])
    assert audit(relabelled, measure([registry], [log])) == [
        "hits_total: emitted as counter('store',), row says counter('cache',)"]
