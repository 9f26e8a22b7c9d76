"""A bare query string and ``ServeRequest(query=q)`` are the same request.

``CosmoCluster.handle_batch`` and ``CosmoService.serve_batch`` take a
window's cached requests as plain strings and never build a record for
them.  A string means a cached request with no propagated trace, which is
exactly what ``ServeRequest(query=q)`` says, so one seeded schedule played
once as strings and once as records must leave the same bytes behind:
every result field, the request accounting, the metric snapshot, the
Chrome trace and the event log.
"""

import dataclasses
import json

import pytest

from repro.obs import EventLog, MetricsRegistry, TailSampler, chrome_trace, \
    render_events, snapshot
from repro.obs.tracing import Tracer
from repro.serving import (
    BatchCostModel,
    ClusterConfig,
    CosmoCluster,
    CosmoService,
    FaultInjector,
    FaultPlan,
    FlakyGenerator,
    ServeRequest,
    SimClock,
)
from repro.serving.chaos import ScriptedGenerator
from repro.utils.rng import spawn_rng


def _as(bare: bool, query: str):
    return query if bare else ServeRequest(query=query)


def _cluster_drive(bare: bool, trace: bool, batch_costs):
    """Hits in both layers, misses, shed windows, a direct request, a
    drain and breaker failover, as windows of 1..16 requests."""
    registry, log = MetricsRegistry(), EventLog()
    sampler = TailSampler(slowest_k=2, window_s=0.5, head_every=5)
    injector = FaultInjector(seed=3)
    kwargs = {} if batch_costs is None else {"batch_costs": batch_costs}
    cluster = CosmoCluster(
        lambda i: (FlakyGenerator(ScriptedGenerator(), injector) if i == 2
                   else ScriptedGenerator()),
        config=ClusterConfig(n_replicas=3, max_batch_size=8,
                             max_batch_delay_s=0.25, max_queue_depth=12,
                             seed=11, name="bare", trace_requests=trace),
        registry=registry, event_log=log, sampler=sampler, **kwargs)
    cluster.preload_yearly({
        query: ScriptedGenerator.knowledge_for(query)
        for query in (f"query {i:02d}" for i in range(8))})
    rng = spawn_rng(9, "bare-query-traffic")
    results = []
    for n in range(24):
        if n == 2:
            injector.plan = FaultPlan(error_rate=1.0)
        if n == 6:
            cluster.drain("bare-r1")
        if n == 12:
            cluster.restore("bare-r1")
            injector.plan = FaultPlan()
        size = int(rng.integers(1, 17))
        window = [_as(bare, f"query {int(i):02d}")
                  for i in rng.integers(0, 40, size=size)]
        if n == 4:
            window.insert(size // 2, ServeRequest(query="query 33", direct=True))
        results.extend(cluster.handle_batch(window))
        cluster.clock.advance(0.004 if n % 5 else 0.3)
    cluster.flush()
    results.extend(cluster.handle_batch(
        [_as(bare, f"query {i:02d}") for i in range(0, 40, 3)]))
    sampler.flush()
    tracers = [("bare", cluster.tracer)]
    tracers += [(rid, s.tracer) for rid, s in cluster.services.items()]
    return {
        "results": [dataclasses.astuple(result) for result in results],
        "totals": cluster.metrics_totals(),
        "snapshot": json.dumps(snapshot(registry), sort_keys=True),
        "trace": json.dumps(chrome_trace(tracers), sort_keys=True),
        "events": render_events(log),
        "sampler": sampler.decisions,
    }


@pytest.mark.parametrize("batch_costs", [None, BatchCostModel()],
                         ids=("sequential", "amortized"))
@pytest.mark.parametrize("trace", [False, True], ids=("untraced", "traced"))
def test_a_window_of_strings_serves_like_a_window_of_records(trace,
                                                             batch_costs):
    records = _cluster_drive(bare=False, trace=trace, batch_costs=batch_costs)
    strings = _cluster_drive(bare=True, trace=trace, batch_costs=batch_costs)
    # The schedule reaches what it says it does...
    totals = records["totals"]
    assert totals["shed"] > 0 and totals["failovers"] > 0
    assert {row[3] for row in records["results"]} >= {
        "cache:yearly", "cache:daily", "direct", "fallback"}
    assert all(len(row) == 9 for row in records["results"])
    # ...and the strings leave exactly the records' bytes behind.
    for key, value in records.items():
        assert strings[key] == value, key


def _service_drive(bare: bool, trace: bool):
    injector = FaultInjector(seed=3)
    service = CosmoService(
        FlakyGenerator(ScriptedGenerator(), injector), clock=SimClock(),
        seed=3, registry=MetricsRegistry(), event_log=EventLog(),
        fallback_response="n/a")
    service.cache.preload_yearly({"query 0": "yearly 0", "query 1": "yearly 1"})
    service.features.put_many([("query 4", "stale 4")])
    # A traced window hangs under a caller tracer's root.
    caller = Tracer(name="caller")
    trace_id = "bare-service" if trace else None
    rng = spawn_rng(4, "bare-service-traffic")
    results = []
    for n in range(10):
        window = [_as(bare, f"query {int(i)}")
                  for i in rng.integers(0, 6, size=int(rng.integers(1, 9)))]
        if n == 3:
            window.insert(1, ServeRequest(query="query 5", direct=True))
        if n == 6:
            injector.plan = FaultPlan(error_rate=1.0)
        with caller.trace(trace_id, "window", caller.clock, {},
                          None) as root, service.tracer.attach(root):
            results.extend(service.serve_batch(window, allow_enqueue=n != 5))
        if n % 3 == 2:
            service.run_batch()
    results.append(service.serve(_as(bare, "query 2")))
    return ([dataclasses.astuple(result) for result in results],
            json.dumps(snapshot(service.registry), sort_keys=True),
            json.dumps(chrome_trace([("svc", service.tracer)]), sort_keys=True),
            render_events(service.event_log))


@pytest.mark.parametrize("trace", [False, True], ids=("untraced", "traced"))
def test_serve_batch_takes_bare_strings_as_cached_requests(trace):
    records = _service_drive(bare=False, trace=trace)
    assert {row[3] for row in records[0]} >= {
        "cache:yearly", "cache:daily", "direct", "feature_store", "fallback"}
    assert _service_drive(bare=True, trace=trace) == records
