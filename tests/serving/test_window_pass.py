"""The one window pass against the per-item algorithm it replaced.

``CosmoService.serve_batch`` reads the cache once per window, walks the
answer chain per item, tallies the outcome counters once and observes the
latency histogram once per run of equal latencies.  ``_reference_serve``
is the per-item body it replaced — one cache read, one stage charge, one
observe, one counter add and one degraded-mode check per request — kept
here as the oracle.  Hypothesis draws the traffic: windows of 1..32 over a
small query pool with direct requests interleaved, yearly preloads, daily
answers installed by ``run_batch`` between windows, feature-store-only
(degraded) entries, day rollovers, shed windows, generator faults, and
the default service or the resilience ablation's baseline configuration.

Under the sequential form (no cost model) everything observable must be
the reference's: results, the clock, cache stats, the pending order, the
event log, the stage spans and the latency histogram down to
``float.hex(sum)``.  Under the amortized form each cached run between
direct requests completes together, charged one ``window_latency_s(n)``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import EventLog, MetricsRegistry, render_events, snapshot
from repro.obs.tracing import Tracer
from repro.serving import (
    BatchCostModel,
    CosmoService,
    FaultInjector,
    FaultPlan,
    FlakyGenerator,
    ServeOutcome,
    ServeRequest,
    ServeResult,
    SimClock,
)
from repro.serving.chaos import ScriptedGenerator
from repro.serving.deployment import _STAGES
from tests.serving.test_degradation import BASELINE

import pytest

_POOL = [f"query {i}" for i in range(6)]


def _reference_serve(service, request, allow_enqueue):
    """The deleted per-item body: ``_serve`` + ``fetch`` + ``_serve_answer``."""
    if request.direct:
        result = service._serve_direct(request.query)
    else:
        hit = service.cache.fetch_many([request.query], allow_enqueue)[0]
        if hit is None:
            text, outcome, source = service._answer(request.query)
        else:
            text, outcome = hit[0], ServeOutcome.FRESH
            source = f"cache:{hit[1]}"
        span_name, origin, stage_s, counter = _STAGES[outcome]
        attributes = {} if origin is None else {
            origin: hit[1] if hit is not None else source}
        with service.tracer.traced_span(span_name, **attributes):
            service.clock.advance(stage_s)
        service.metrics.latency.observe(stage_s)
        service.metrics.add(counter, 1)
        result = ServeResult(query=request.query, text=text, outcome=outcome,
                             source=source, latency_s=stage_s,
                             replica=service.name,
                             snapshot_version=service.snapshot_version)
    service._note_outcome(result)
    return result


@st.composite
def _schedules(draw):
    queries = st.sampled_from(_POOL)
    window = st.lists(st.tuples(queries, st.booleans()), min_size=1,
                      max_size=32)
    step = st.one_of(
        st.tuples(st.just("window"), window, st.booleans()),
        st.tuples(st.just("run_batch")),
        st.tuples(st.just("daily_refresh")),
        st.tuples(st.just("faults"), st.sampled_from([0.0, 0.5, 1.0])),
    )
    return {
        "yearly": draw(st.sets(queries, max_size=3)),
        "stale": draw(st.sets(queries, max_size=3)),
        "baseline": draw(st.booleans()),
        "direct": draw(st.booleans()),
        "traced": draw(st.booleans()),
        "steps": draw(st.lists(step, min_size=1, max_size=12)),
    }


def _drive(schedule, serve_window, batch_costs=None):
    """Play ``schedule`` against a fresh service; ``serve_window(service,
    requests, allow_enqueue)`` serves each window."""
    injector = FaultInjector(seed=3)
    service = CosmoService(
        FlakyGenerator(ScriptedGenerator(), injector), clock=SimClock(),
        seed=3, registry=MetricsRegistry(), event_log=EventLog(),
        fallback_response="n/a", batch_costs=batch_costs,
        **(BASELINE if schedule["baseline"] else {}))
    service.cache.preload_yearly(
        {query: f"yearly {query}" for query in sorted(schedule["yearly"])})
    service.features.put_many(
        [(query, f"stale {query}") for query in sorted(schedule["stale"])])
    # A traced window hangs under a caller tracer's root.
    caller = Tracer(name="caller")
    trace_id = "window-pass" if schedule["traced"] else None
    windows = []
    for step in schedule["steps"]:
        if step[0] == "window":
            _, picks, allow_enqueue = step
            requests = [ServeRequest(query=query,
                                     direct=direct and schedule["direct"])
                        for query, direct in picks]
            before = service.clock.now()
            with caller.trace(trace_id, "window", caller.clock, {},
                              None) as root, service.tracer.attach(root):
                results = serve_window(service, requests, allow_enqueue)
            windows.append((requests, before, service.clock.now(), results))
        elif step[0] == "run_batch":
            service.run_batch()
        elif step[0] == "daily_refresh":
            service.daily_refresh()
        else:
            injector.plan = FaultPlan(error_rate=step[1])
    return service, windows


def _observable(service, windows):
    histogram = service.metrics.latency
    return {
        "results": [results for _, _, _, results in windows],
        "clock": float.hex(service.clock.now()),
        "cache": (service.cache.stats.layer1_hits,
                  service.cache.stats.layer2_hits,
                  service.cache.stats.misses,
                  service.cache.stats.pending_evictions),
        "pending": service.cache.pending_queries(),
        "events": render_events(service.event_log),
        "spans": [(span.name, span.start_s, span.end_s, span.attributes,
                   span.trace_id) for span in service.tracer.spans()],
        "histogram": (histogram.bucket_counts(), histogram.count,
                      float.hex(histogram.sum), histogram.min, histogram.max),
        "snapshot": snapshot(service.registry),
    }


def _per_item(service, requests, allow_enqueue):
    return [_reference_serve(service, request, allow_enqueue)
            for request in requests]


def _one_pass(service, requests, allow_enqueue):
    return service.serve_batch(requests, allow_enqueue=allow_enqueue)


@given(_schedules())
@settings(max_examples=150, deadline=None)
def test_sequential_window_pass_matches_the_per_item_reference(schedule):
    reference = _observable(*_drive(schedule, _per_item))
    assert _observable(*_drive(schedule, _one_pass)) == reference


def _cached_runs(requests):
    """Lengths of the maximal runs of cached requests, in order."""
    runs, run = [], 0
    for request in requests:
        if request.direct:
            runs.append(run)
            run = 0
        else:
            run += 1
    return [n for n in runs + [run] if n]


@given(_schedules())
@settings(max_examples=100, deadline=None)
def test_amortized_window_pass_charges_each_cached_run_once(schedule):
    costs = BatchCostModel()
    service, windows = _drive(schedule, _one_pass, batch_costs=costs)
    served = 0
    for requests, before, after, results in windows:
        assert [r.query for r in results] == [r.query for r in requests]
        cached = [result.latency_s for request, result in zip(requests, results)
                  if not request.direct]
        expected = [costs.window_latency_s(n)
                    for n in _cached_runs(requests) for _ in range(n)]
        assert cached == expected
        charges = sum(costs.window_latency_s(n)
                      for n in _cached_runs(requests))
        charges += sum(result.latency_s for request, result
                       in zip(requests, results) if request.direct)
        assert after - before == pytest.approx(charges, abs=1e-9)
        served += len(results)
    metrics = service.metrics
    assert metrics.requests == served == metrics.latency.count
