"""Golden equivalence: serving a window vs serving windows of one.

The api_redesign contract: ``serve_batch`` without a
:class:`~repro.serving.deployment.BatchCostModel` is *observably
identical* to a per-item ``serve`` loop — byte-identical result
envelopes (modulo the window attribution fields the cluster stamps) and
byte-identical metric snapshots off the shared registry.  With a cost
model the accounting invariants still hold but the charged latency
amortizes.  The cluster's ``handle_batch`` must count requests exactly
like ``len(requests)`` ``handle`` calls.
"""

import hashlib
import json
from copy import copy

from repro.llm.interface import GenerationBatch
from repro.obs import (
    SNAPSHOT_SCHEMA,
    EventLog,
    MetricsRegistry,
    TailSampler,
    chrome_trace,
    render_events,
    snapshot,
    validate,
)
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
from tests.serving.test_degradation import BASELINE

import pytest


def _zipf_traffic(n_requests: int, n_queries: int = 24, seed: int = 5) -> list[str]:
    rng = spawn_rng(seed, "batch-equivalence-traffic")
    picks = rng.integers(0, n_queries, size=n_requests)
    return [f"query {int(i):02d}" for i in picks]


def _drive_per_item(traffic, registry, name):
    service = CosmoService(ScriptedGenerator(), clock=SimClock(), seed=3,
                           registry=registry, name=name)
    results = []
    for start in range(0, len(traffic), 8):
        results.extend(service.serve(ServeRequest(query=q))
                       for q in traffic[start:start + 8])
        service.run_batch()
    return service, results


def _drive_batched(traffic, registry, name):
    service = CosmoService(ScriptedGenerator(), clock=SimClock(), seed=3,
                           registry=registry, name=name)
    results = []
    for start in range(0, len(traffic), 8):
        results.extend(service.serve_batch(
            [ServeRequest(query=q) for q in traffic[start:start + 8]]))
        service.run_batch()
    return service, results


def _strip_batch_fields(result):
    """``result`` with its window stamp cleared (a copy: ``replace()``
    cannot set the stamp, which is not a constructor field)."""
    stripped = copy(result)
    stripped.batch_index = None
    return stripped


def _cluster_drive(traffic, windowed):
    """``traffic`` through a cost-model-less two-replica cluster, in
    windows of 8 or as one ``handle`` per request.  Every arrival finds
    its replica idle and only the explicit end-of-window flush runs, so
    the two drives ask the replicas for the same work."""
    cluster = CosmoCluster(
        lambda i: ScriptedGenerator(),
        config=ClusterConfig(n_replicas=2, max_batch_size=64,
                             max_batch_delay_s=1e6, seed=3, name="svc",
                             trace_requests=False))
    results = []
    for start in range(0, len(traffic), 8):
        window = traffic[start:start + 8]
        if windowed:
            results.extend(cluster.handle_batch(window))
            cluster.clock.advance(10.0)
        else:
            for query in window:
                results.append(cluster.handle(query))
                cluster.clock.advance(10.0)
        cluster.flush()
    return results


def test_serve_batch_neutral_path_matches_per_item_envelopes():
    traffic = _zipf_traffic(120)
    per_item = _cluster_drive(traffic, windowed=False)
    batched = _cluster_drive(traffic, windowed=True)
    assert len(per_item) == len(batched)
    assert len({r.replica for r in batched}) == 2
    for position, (item, batch) in enumerate(zip(per_item, batched)):
        assert item.batch_index == 0
        assert batch.batch_index == position % 8
        assert _strip_batch_fields(batch) == _strip_batch_fields(item)


def test_serve_batch_neutral_path_metric_snapshots_are_byte_identical():
    traffic = _zipf_traffic(120)
    registry_a = MetricsRegistry()
    registry_b = MetricsRegistry()
    _drive_per_item(traffic, registry_a, "svc")
    _drive_batched(traffic, registry_b, "svc")
    snap_a = snapshot(registry_a)
    snap_b = snapshot(registry_b)
    validate(SNAPSHOT_SCHEMA, snap_a)
    validate(SNAPSHOT_SCHEMA, snap_b)
    assert snap_a == snap_b


def test_serve_batch_stamps_contiguous_batch_attribution():
    cluster = _cluster(3, MetricsRegistry())
    first = cluster.handle_batch([f"q{i}" for i in range(5)])
    second = cluster.handle_batch(["solo"])
    assert len({r.replica for r in first}) > 1   # split, yet contiguous
    assert [r.batch_index for r in first] == [0, 1, 2, 3, 4]
    assert second[0].batch_index == 0


def test_amortized_window_charges_one_batched_latency():
    costs = BatchCostModel(batch_overhead_s=0.002, item_cost_s=0.0002)
    service = CosmoService(ScriptedGenerator(), clock=SimClock(), seed=3,
                           batch_costs=costs)
    queries = [f"q{i}" for i in range(8)]
    # Warm the cache through a miss window + flush.
    service.serve_batch([ServeRequest(query=q) for q in queries])
    service.run_batch()
    before = service.clock.now()
    results = service.serve_batch([ServeRequest(query=q) for q in queries])
    window = costs.window_latency_s(len(queries))
    assert service.clock.now() - before == pytest.approx(window)
    assert all(r.latency_s == pytest.approx(window) for r in results)
    # Amortized per-item cost beats the sequential per-hit charge.
    assert window / len(queries) < 0.002


def test_amortized_window_preserves_request_accounting():
    costs = BatchCostModel()
    service = CosmoService(ScriptedGenerator(), clock=SimClock(), seed=3,
                           batch_costs=costs)
    traffic = _zipf_traffic(96)
    for start in range(0, len(traffic), 16):
        service.serve_batch(
            [ServeRequest(query=q) for q in traffic[start:start + 16]])
        service.run_batch()
    metrics = service.metrics
    assert metrics.requests == len(traffic)
    assert (metrics.served_fresh + metrics.degraded_serves
            + metrics.fallbacks == metrics.requests)


def test_direct_requests_fall_back_to_per_item_even_with_cost_model():
    """``direct=True`` bypasses the cache, so the amortized window would
    misattribute its cost: a direct request is its own synchronous call,
    and the cached runs between direct requests are windows of their own,
    in request order."""
    costs = BatchCostModel()
    cluster = _cluster(1, MetricsRegistry(), batch_costs=costs)
    results = cluster.handle_batch(
        [ServeRequest(query="a", direct=True), ServeRequest(query="b"),
         ServeRequest(query="c", direct=True), ServeRequest(query="a"),
         ServeRequest(query="d")])
    assert [r.batch_index for r in results] == [0, 1, 2, 3, 4]
    assert [r.source for r in results] == [
        "direct", "fallback", "direct", "cache:daily", "fallback"]
    # Served one by one: an amortized window would complete all together.
    assert results[0].latency_s != results[1].latency_s
    wait = results[1].latency_s - costs.window_latency_s(1)
    assert results[3].latency_s == results[4].latency_s == pytest.approx(
        wait + costs.window_latency_s(2))
    assert cluster.services["eq-r0"].cache.pending_queries() == ["b", "d"]


@pytest.mark.parametrize("batch_costs", [None, BatchCostModel()],
                         ids=("sequential", "amortized"))
def test_empty_window_returns_nothing_in_both_cost_forms(batch_costs):
    """Regression: under a cost model an empty window observed the latency
    histogram with ``count=0``, which raises."""
    service = CosmoService(ScriptedGenerator(), clock=SimClock(), seed=3,
                           batch_costs=batch_costs)
    assert service.serve_batch([]) == []
    assert service.clock.now() == 0.0
    assert service.metrics.latency.count == 0


def test_generation_batch_protocol_round_trip():
    """The unified protocol type: generate_batch returns a
    GenerationBatch whose shims and helpers agree."""
    batch = ScriptedGenerator().generate_batch(["a", "b"])
    assert isinstance(batch, GenerationBatch)
    assert len(batch) == 2
    assert batch.ok and batch.failed_indices == []
    assert [g.text for g in batch.require()] == [
        "it is used for a.", "it is used for b."]


# -- cluster handle_batch ---------------------------------------------------


def _cluster(n_replicas, registry, batch_costs=None, trace=True):
    config = ClusterConfig(n_replicas=n_replicas, max_batch_size=8,
                           max_batch_delay_s=0.25, seed=11, name="eq",
                           trace_requests=trace)
    kwargs = {} if batch_costs is None else {"batch_costs": batch_costs}
    return CosmoCluster(lambda i: ScriptedGenerator(), config=config,
                        registry=registry, **kwargs)


def test_handle_batch_counts_requests_like_per_item_handling():
    traffic = _zipf_traffic(64)
    cluster = _cluster(3, MetricsRegistry())
    for start in range(0, len(traffic), 8):
        results = cluster.handle_batch(traffic[start:start + 8])
        assert len(results) == 8
        cluster.clock.advance(0.002)
    cluster.flush()
    totals = cluster.metrics_totals()
    assert totals["handled"] == len(traffic)
    assert totals["requests"] == len(traffic)
    assert (totals["served_fresh"] + totals["degraded_serves"]
            + totals["fallbacks"] == len(traffic))


def test_handle_batch_results_in_request_order_with_window_indices():
    cluster = _cluster(4, MetricsRegistry(), batch_costs=BatchCostModel())
    queries = [f"query {i:02d}" for i in range(12)]
    results = cluster.handle_batch(queries)
    assert [r.query for r in results] == queries
    assert [r.batch_index for r in results] == list(range(12))
    # The window split across replicas, yet attribution stays unique.
    assert len({r.replica for r in results}) > 1


def test_handle_batch_empty_window_is_a_no_op():
    cluster = _cluster(2, MetricsRegistry())
    assert cluster.handle_batch([]) == []
    assert cluster.metrics_totals()["handled"] == 0


def test_handle_batch_traced_and_bare_accounting_match():
    traffic = _zipf_traffic(48)

    def run(trace):
        registry = MetricsRegistry()
        cluster = _cluster(2, registry, trace=trace)
        for start in range(0, len(traffic), 8):
            cluster.handle_batch(traffic[start:start + 8])
            cluster.clock.advance(0.002)
        cluster.flush()
        return cluster.metrics_totals(), cluster.busy_horizon_s

    traced, traced_horizon = run(True)
    bare, bare_horizon = run(False)
    assert traced == bare
    assert traced_horizon == bare_horizon


# -- window-level accounting is pinned to the per-item accounting ------------
#
# ``handle_batch`` / ``serve_batch`` / ``fetch_many`` tally a window's
# counters and histogram observations once per window.  These digests were
# captured from the per-item implementation (one ``inc`` / ``observe`` /
# ``replace`` per request) *before* that change, so any drift between the
# two shows up here as a changed artifact, not as a quietly different
# dashboard.  The traced drive's four digests were re-captured when a
# replica dispatch became one ``cluster.request`` trace (it was a
# ``cluster.batch`` span over a ``serving.serve_batch`` span): its latency
# histogram gained exemplars, and its events and results the dispatch's
# trace id.  The untraced drive's four were unedited until the second
# signal audit, which re-captured both drives' snapshot and trace digests:
# each is the parent's text minus the ``feature_store_ops_total`` family,
# the ``exemplar`` members of ``serving_request_latency_seconds`` buckets
# (traced drive only) and the one ``cluster.daily_refresh`` and three
# ``serving.daily_refresh`` spans, with each later span id of the same
# tracer renumbered down past the deleted spans.  Events and results are
# unedited.  When a replica window became one pass for both cost forms, the
# cache stopped opening a zero-width ``cache.fetch_many`` span per traced
# window, and only the traced drive's trace digest was re-captured: the
# parent's trace minus its 38 ``cache.fetch_many`` spans equals the new
# one, 97 = 97 events, once span / parent ids and flow events are set aside
# (EXPERIMENTS.md, "One replica window algorithm").  When each result began
# naming the snapshot version that answered it and the window's
# ``batch_id`` stamp was deleted, both results digests were re-captured:
# the parent's ``repr(results)`` with every ``batch_id=..., `` dropped and
# ``snapshot_version=None, `` inserted after ``replica`` (neither drive
# installs a snapshot) equals the new one byte for byte.  The other six
# are unedited.


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _accounting_drive(trace: bool):
    """A seeded window drive that visits every accounting branch: yearly
    and daily hits, misses, degraded serves after a day roll, fallbacks,
    shed windows, a drained replica, breaker failover and dead letters,
    and size / deadline / forced flushes."""
    registry = MetricsRegistry()
    log = EventLog()
    injector = FaultInjector(seed=3)
    cluster = CosmoCluster(
        lambda i: (FlakyGenerator(ScriptedGenerator(), injector) if i == 2
                   else ScriptedGenerator()),
        config=ClusterConfig(n_replicas=3, max_batch_size=8,
                             max_batch_delay_s=0.25, max_queue_depth=14,
                             seed=11, name="acct", trace_requests=trace),
        registry=registry, event_log=log, batch_costs=BatchCostModel())
    cluster.preload_yearly({
        query: ScriptedGenerator.knowledge_for(query)
        for query in (f"query {i:02d}" for i in range(8))})
    rng = spawn_rng(5, "window-accounting-traffic")
    traffic = [f"query {int(i):02d}"
               for i in rng.integers(0, 40, size=16 * 16)]
    results = []
    for n, start in enumerate(range(0, len(traffic), 16)):
        if n == 1:
            injector.plan = FaultPlan(error_rate=1.0)
        if n == 5:
            cluster.drain("acct-r1")
        if n == 8:
            cluster.restore("acct-r1")
            cluster.daily_refresh()
        if n == 13:
            injector.plan = FaultPlan()
        results.extend(cluster.handle_batch(traffic[start:start + 16]))
        cluster.clock.advance(0.004 if n % 4 else 0.3)
    cluster.flush()
    results.extend(cluster.handle_batch(traffic[:16]))
    return cluster, registry, log, results


@pytest.mark.parametrize(
    "trace, snapshot_digest, events_digest, results_digest, trace_digest", [
        (False, "9eed001a8b2c0cf8", "6bb6c2868c83662f", "af4d9694bb05ff5e",
         "070afdc2f84a2feb"),
        (True, "5593e3d4c7f2d28d", "e440d30b0a464d1b", "5ee47060f2ff638c",
         "bcd7be912a6475ae"),
    ], ids=("untraced", "traced"))
def test_window_accounting_artifacts_are_pinned(
        trace, snapshot_digest, events_digest, results_digest, trace_digest):
    cluster, registry, log, results = _accounting_drive(trace)
    # The drive reaches every branch the tallies cover...
    assert cluster.metrics_totals() == {
        "requests": 272, "served_fresh": 74, "degraded_serves": 51,
        "fallbacks": 147, "handled": 272, "failovers": 43, "shed": 144}
    assert {r.source for r in results} == {
        "cache:daily", "cache:yearly", "fallback", "feature_store"}
    snap = snapshot(registry)
    validate(SNAPSHOT_SCHEMA, snap)
    families = {metric["name"]: metric for metric in snap["metrics"]}
    flushes = {sample["labels"]["trigger"]: sample["value"] for sample in
               families["cluster_batch_flushes_total"]["samples"]}
    assert flushes == {"deadline": 6.0, "forced": 3.0, "size": 3.0}
    kinds = {event.kind for event in log.events()}
    assert {"breaker.open", "router.drain", "service.dead_letter",
            "service.degraded_entry", "service.degraded_exit"} <= kinds
    # ...and every artifact is pinned (re-captures named above).
    assert _digest(json.dumps(snap, sort_keys=True)) == snapshot_digest
    assert _digest(render_events(log)) == events_digest
    assert _digest(repr(results)) == results_digest
    tracers = [("acct", cluster.tracer)]
    tracers += [(rid, s.tracer) for rid, s in cluster.services.items()]
    assert _digest(json.dumps(chrome_trace(tracers),
                              sort_keys=True)) == trace_digest


# -- the per-item ingress is pinned the same way -----------------------------
#
# ``handle`` (traced and bare) used to be two hand-written copies of one
# algorithm.  These digests were captured from those two copies *before*
# they were folded into one, so the single path is byte-for-byte what
# each of them wrote.  Exceptions: the traced Chrome trace was
# re-captured when the replica hop stopped opening ``serving.request``
# and a lookup stopped opening ``cache.fetch``; the parent's file, with
# those spans, the span/parent ids and the flow events dropped (and each
# ``serving.request``'s ``mode`` moved onto its ``cluster.request``),
# equals the new one byte for byte.  It was re-captured again, with the
# results, when ``handle`` became a window of one: the trace lost its 21
# ``router.route`` spans (routing runs before a trace exists) and nothing
# else once span ids and flows are set aside, and each result gained its
# window's ``batch_id`` / ``batch_index`` — with those cleared, the
# results still hash to the digest the two copies wrote.  The second signal
# audit re-captured both snapshot and both trace digests, with the filter
# named above the window drive.  The results and stripped digests moved
# with the window drive's results, by the same edit (``batch_id`` dropped,
# ``snapshot_version=None`` inserted), as did the direct-failure drive's
# below; the stripped form now clears only ``batch_index``.


def _per_item_drive(trace: bool):
    """A seeded per-item drive that visits every branch of ``handle``:
    cache hits on both layers, direct calls (a quarter of the traffic),
    rejected generations, retries, dead letters and their redrive,
    degraded serves, fallbacks, shed requests, a drained replica, breaker
    failover, and size / deadline / forced flushes, under a tail sampler
    and an event log."""
    registry = MetricsRegistry()
    log = EventLog()
    sampler = TailSampler(slowest_k=2, window_s=0.5, head_every=10)
    injector = FaultInjector(seed=3)
    cluster = CosmoCluster(
        lambda i: (FlakyGenerator(ScriptedGenerator(), injector) if i == 2
                   else ScriptedGenerator()),
        config=ClusterConfig(n_replicas=3, max_batch_size=4,
                             max_batch_delay_s=0.25, max_queue_depth=7,
                             seed=11, name="item", trace_requests=trace),
        registry=registry, event_log=log, sampler=sampler)
    cluster.preload_yearly({
        query: ScriptedGenerator.knowledge_for(query)
        for query in (f"query {i:02d}" for i in range(8))})
    rng = spawn_rng(5, "per-item-accounting-traffic")
    picks = rng.integers(0, 60, size=400)
    direct = rng.random(400) < 0.25
    results = []
    for n, (pick, is_direct) in enumerate(zip(picks, direct)):
        if n == 40:
            # Garbage is rejected per generation without tripping the
            # breaker: retries exhaust and the queries dead-letter.
            injector.plan = FaultPlan(garbage_rate=1.0)
        if n == 110:
            injector.plan = FaultPlan.mixed(0.6)
        if n == 170:
            injector.plan = FaultPlan(error_rate=1.0)
        if n == 200:
            cluster.drain("item-r1")
        if n == 240:
            cluster.restore("item-r1")
            injector.plan = FaultPlan()
            cluster.daily_refresh()
        if n == 330:
            injector.plan = FaultPlan(error_rate=1.0)
        results.append(cluster.handle(ServeRequest(
            query=f"query {int(pick):02d}", direct=bool(is_direct))))
        cluster.clock.advance(0.004 if n % 16 else 0.3)
    cluster.flush()
    results.extend(cluster.handle(f"query {int(pick):02d}")
                   for pick in picks[:16])
    sampler.flush()
    return cluster, registry, log, sampler, results


@pytest.mark.parametrize(
    "trace, snapshot_digest, events_digest, results_digest, stripped_digest,"
    " trace_digest", [
        (False, "2e3b01094cb50cd7", "a66d1b7534c508d2", "d5b50ea2855bef52",
         "edd677f4dfe44c84", "e9f5c52f9f61467f"),
        (True, "8aae4bfaed947474", "d7dfcfd3e27b7057", "91914dccd4b823fb",
         "1bd659d737da0417", "d83185c6e2d4046b"),
    ], ids=("untraced", "traced"))
def test_per_item_accounting_artifacts_are_pinned(
        trace, snapshot_digest, events_digest, results_digest, stripped_digest,
        trace_digest):
    cluster, registry, log, sampler, results = _per_item_drive(trace)
    # The drive reaches every branch of the request path...
    assert cluster.metrics_totals() == {
        "requests": 416, "served_fresh": 310, "degraded_serves": 42,
        "fallbacks": 64, "handled": 416, "failovers": 22, "shed": 10}
    assert {r.source for r in results} == {
        "cache:daily", "cache:yearly", "direct", "fallback", "feature_store"}
    snap = snapshot(registry)
    validate(SNAPSHOT_SCHEMA, snap)
    families = {metric["name"]: metric for metric in snap["metrics"]}
    flushes = {sample["labels"]["trigger"]: sample["value"] for sample in
               families["cluster_batch_flushes_total"]["samples"]}
    assert flushes == {"deadline": 34.0, "forced": 1.0, "size": 8.0}
    services = cluster.services.values()
    assert sum(s.metrics.retries for s in services) == 5
    assert sum(s.metrics.dead_lettered for s in services) == 2
    kinds = {event.kind for event in log.events()}
    assert {"breaker.open", "cluster.flush", "router.drain",
            "service.dead_letter", "service.degraded_entry",
            "service.degraded_exit", "service.redrive"} <= kinds
    # ...every trace reaches a sampling decision (none when tracing is off)...
    assert sampler.pending_traces == 0 and sampler.buffered_spans == 0
    assert sampler.decisions == (
        {"flagged": 106, "slow": 39, "head": 31, "dropped": 240} if trace
        else {"flagged": 0, "slow": 0, "head": 0, "dropped": 0})
    # ...and every artifact is pinned (re-captures named above).
    assert _digest(json.dumps(snap, sort_keys=True)) == snapshot_digest
    assert _digest(render_events(log)) == events_digest
    assert _digest(repr(results)) == results_digest
    assert [r.batch_index for r in results] == [0] * len(results)
    assert _digest(repr([_strip_batch_fields(r) for r in results])) == \
        stripped_digest
    tracers = [("item", cluster.tracer)]
    tracers += [(rid, s.tracer) for rid, s in cluster.services.items()]
    assert _digest(json.dumps(chrome_trace(tracers),
                              sort_keys=True)) == trace_digest


def test_direct_failure_without_resilience_is_pinned():
    """The resilience ablation's baseline configuration (one attempt, no
    validation, no degraded serving) answers a failed direct call with
    the fallback even when the feature store holds the query, and a
    batch that fails without a retry leaves its query queued.

    The one artifact the single answer chain moved: the old direct-call
    chain *read* the feature store before discarding the answer it could
    not use (``feature_store_ops_total{op="read"}`` +1 per failed direct
    call — 2 here), while a cached miss without resilience never read
    it.  The unified chain does not consult the store without
    resilience.  Everything else was byte-for-byte the parent's: with the
    two reads put back, the snapshot hashed to the digest captured before
    that change.  The second signal audit deleted the family, so the
    snapshot is now that one minus ``feature_store_ops_total``, and the
    store holds the one answer the direct call wrote.  The digests were
    captured under the deleted ``resilience=False`` path; the baseline
    configuration on the one generator path reproduces them unedited.
    The results digest was re-captured when each result began naming its
    snapshot version: the parent's repr with ``batch_id=None, `` dropped
    and ``snapshot_version=None, `` inserted equals the new one.
    """
    registry = MetricsRegistry()
    injector = FaultInjector(seed=3)
    service = CosmoService(FlakyGenerator(ScriptedGenerator(), injector),
                           clock=SimClock(), seed=3, registry=registry,
                           name="bare", fallback_response="n/a", **BASELINE)
    results = [service.serve(ServeRequest(query="known", direct=True)),
               service.serve(ServeRequest(query="cold"))]
    injector.plan = FaultPlan(error_rate=1.0)
    results += [service.serve(ServeRequest(query="known", direct=True)),
                service.serve(ServeRequest(query="unknown", direct=True)),
                service.serve(ServeRequest(query="cold"))]
    assert service.run_batch() == 0
    assert [(r.outcome.value, r.source) for r in results] == [
        ("fresh", "direct"), ("fallback", "fallback"),
        ("fallback", "fallback"), ("fallback", "fallback"),
        ("fallback", "fallback")]
    assert service.cache.pending_queries() == ["cold"]  # still queued
    assert service.dead_letters == []
    assert service.metrics.generator_failures == 3
    snap = snapshot(registry)
    validate(SNAPSHOT_SCHEMA, snap)
    assert _digest(repr(results)) == "e7fb123d6e58a7c4"
    assert list(service.features._records) == ["known"]
    assert _digest(json.dumps(snap, sort_keys=True)) == "b2276118c67b19c0"
