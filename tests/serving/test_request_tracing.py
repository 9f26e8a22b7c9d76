"""End-to-end request tracing through the sharded serving stack."""

import pytest

from repro.obs import CHROME_TRACE_SCHEMA, EventLog, MetricsRegistry, \
    TailSampler, TraceAnalyzer, validate
from repro.obs.tracing import TRACE_ID_ATTR, chrome_trace, make_trace_id
from repro.serving import ClusterConfig, CosmoCluster, ServeOutcome, \
    ServeRequest
from repro.serving.chaos import ScriptedGenerator
from repro.serving.faults import GeneratorFault
from repro.serving.resilience import BreakerState


class BrokenGenerator:
    """Always faults; inherits ScriptedGenerator's latency accounting."""

    def __init__(self):
        self.inner = ScriptedGenerator()
        self.latency = self.inner.latency
        self.parameter_count = self.inner.parameter_count

    def generate_batch(self, prompts):
        self.latency.charge(self.parameter_count, 1)
        raise GeneratorFault("scripted outage")


def _tracers(cluster):
    return [(cluster.config.name, cluster.tracer)] + [
        (replica_id, service.tracer)
        for replica_id, service in cluster.services.items()
    ]


def _build(generator_factory, **config_kwargs):
    registry = MetricsRegistry()
    event_log = EventLog()
    sampler = TailSampler(slowest_k=1, window_s=60.0, head_every=0)
    cluster = CosmoCluster(
        generator_factory,
        config=ClusterConfig(n_replicas=2, max_batch_size=1,
                             max_batch_delay_s=0.5, **config_kwargs),
        registry=registry, event_log=event_log, sampler=sampler,
    )
    return cluster, sampler, event_log


def test_degraded_request_produces_one_connected_flagged_trace():
    """The acceptance scenario: one request against a dead generator.

    The miss walks the whole stack — routing, cache fetch, fallback
    serve, the batch flush it triggers, the resilient generator's
    failing attempts — and every hop must land in ONE connected trace
    that is tail-retained (degraded ⇒ flagged), stamped on the result,
    the event log, and the latency histogram's exemplars.
    """
    cluster, sampler, event_log = _build(lambda i: BrokenGenerator())
    result = cluster.handle(ServeRequest(query="unseen query"))
    cluster.flush()
    sampler.flush()

    assert result.outcome is ServeOutcome.FALLBACK
    assert result.trace_id is not None

    analyzer = TraceAnalyzer(_tracers(cluster))
    assert analyzer.trace_ids() == [result.trace_id]
    assert analyzer.is_connected(result.trace_id)
    assert sampler.decisions["flagged"] == 1

    names = {node.name for node in analyzer.spans_for(result.trace_id)}
    assert "cluster.request" in names
    assert "serving.request" not in names  # the replica hop opens no wrapper
    assert "cache.fetch" not in names      # a zero-width lookup opens no span
    assert "serving.fallback_serve" in names
    assert "cluster.flush" in names        # max_batch_size=1: in-request
    assert "serving.run_batch" in names
    assert "resilience.attempt" in names   # the failing generator calls
    assert "resilience.backoff" in names   # ...and the retries between

    # The stage breakdown accounts for exactly the charged latency.
    breakdown = analyzer.stage_breakdown(result.trace_id)
    assert sum(breakdown.values()) == pytest.approx(result.latency_s)
    assert analyzer.duration_s(result.trace_id) == pytest.approx(
        result.latency_s)

    # Mid-request events carry the trace id.
    tagged = [e for e in event_log.events()
              if e.attrs.get(TRACE_ID_ATTR) == result.trace_id]
    assert tagged, "no event was stamped with the trace id"

    # The latency exemplar leads back to this trace.
    exemplars = cluster.latency_exemplars()
    assert any(trace_id == result.trace_id for _, trace_id, _ in exemplars)

    # And the merged export is valid, flow links included.
    payload = chrome_trace(_tracers(cluster))
    validate(CHROME_TRACE_SCHEMA, payload)
    flows = [e for e in payload["traceEvents"] if e["ph"] in ("s", "f")]
    assert flows, "no cross-tracer flow events in the export"


def test_result_trace_ids_are_deterministic_and_distinct():
    def build():
        return _build(lambda i: ScriptedGenerator())[0]

    first = build()
    second = build()
    ids_a = [first.handle(f"query {i}").trace_id for i in range(3)]
    ids_b = [second.handle(f"query {i}").trace_id for i in range(3)]
    assert ids_a == ids_b          # same drive, same ids
    assert len(set(ids_a)) == 3    # distinct per request


def test_bare_and_traced_paths_account_identically():
    def drive(trace_requests):
        cluster, sampler, _ = _build(lambda i: BrokenGenerator(),
                                     trace_requests=trace_requests)
        for i in range(10):
            cluster.handle(ServeRequest(query=f"query {i % 4}"))
            cluster.clock.advance(0.01)
        cluster.flush()
        sampler.flush()
        return cluster

    traced, bare = drive(True), drive(False)
    assert traced.metrics_totals() == bare.metrics_totals()
    assert traced.availability == bare.availability
    assert traced.percentile(99) == bare.percentile(99)
    # Tracing off: no per-request spans, nothing trace-tagged (batch
    # flush spans remain — they attribute async work, not requests).
    bare_names = {s.name for s in bare.tracer.spans()}
    assert "cluster.request" not in bare_names
    assert all(s.trace_id is None for s in bare.tracer.spans())


def test_untraced_requests_set_no_trace_id():
    cluster, _, _ = _build(lambda i: ScriptedGenerator(),
                           trace_requests=False)
    result = cluster.handle(ServeRequest(query="q"))
    assert result.trace_id is None


def test_a_dispatch_mints_its_trace_id_from_the_request_count_and_query():
    # The dispatch is a trace's one origin: the n-th request's id is
    # make_trace_id(n, query), and its root has no remote parent.
    cluster, sampler, _ = _build(lambda i: ScriptedGenerator())
    results = [cluster.handle(f"query {i}") for i in range(3)]
    assert [r.trace_id for r in results] == [
        make_trace_id(n, f"query {n - 1}") for n in (1, 2, 3)]
    cluster.flush()
    sampler.flush()
    roots = [s for s in cluster.tracer.spans() if s.name == "cluster.request"]
    assert roots, "no dispatch root was kept"
    assert {s.trace_id for s in roots} <= {r.trace_id for r in results}
    assert all(s.remote_parent is None and s.parent_id is None
               for s in roots)


def test_batch_traces_reach_a_sampling_decision():
    """Regression: ``handle_batch`` opened one trace per replica group
    and never finished it at the sampler, so its spans stayed buffered
    forever (and, at ``MAX_BUFFERED_SPANS``, every later trace was
    refused)."""
    cluster, sampler, _ = _build(lambda i: ScriptedGenerator())
    cluster.preload_yearly({f"query {i:02d}": "answer." for i in range(16)})
    groups = 0
    for window in range(50):
        # Odd windows are all cache hits; even ones carry misses, so
        # their groups answer with a fallback and must be flagged.
        results = cluster.handle_batch(
            [f"query {i:02d}" for i in range(16)] if window % 2
            else [f"cold {window}-{i}" for i in range(16)])
        groups += len({r.replica for r in results})
        cluster.clock.advance(2.0)
    cluster.flush()
    sampler.flush()

    assert groups == 100
    assert sampler.pending_traces == 0
    assert sampler.buffered_spans == 0
    assert sum(sampler.decisions.values()) == groups
    assert sampler.decisions["flagged"] == 50
    kept = [s for s in cluster.tracer.spans() if s.name == "cluster.request"]
    # A kept dispatch root covers exactly the window it was charged.
    assert all(s.trace_id is not None and s.duration_s > 0 for s in kept)
    assert len(kept) == sampler.decisions["flagged"] \
        + sampler.decisions["slow"] + sampler.decisions["head"]


def test_a_request_opens_one_span_per_stage():
    """A hit and a direct call are two spans each — ``cluster.request``
    and the one stage span — and a miss is those two plus the subtree of
    the flush it triggers.  The replica opens no wrapper: each of its
    spans has a parent in its own tracer or is a stack root whose
    ``remote_parent`` is the root's ref (the flush's, for the batch)."""
    sampler = TailSampler(slowest_k=0, head_every=1)   # keeps every trace
    cluster = CosmoCluster(
        lambda i: ScriptedGenerator(),
        config=ClusterConfig(n_replicas=2, max_batch_size=1),
        sampler=sampler)
    cluster.preload_yearly({"hot": "answer."})
    results = {}
    for kind, request in (("hit", ServeRequest(query="hot")),
                          ("direct", ServeRequest(query="asked", direct=True)),
                          ("miss", ServeRequest(query="cold"))):
        results[kind] = cluster.handle(request)
        cluster.clock.advance(1.0)   # idle replicas: no queueing span
    assert [r.outcome for r in results.values()] == [
        ServeOutcome.FRESH, ServeOutcome.FRESH, ServeOutcome.FALLBACK]
    assert sampler.pending_traces == 0

    for kind, result in results.items():
        root, *flush = [s for s in cluster.tracer.spans()
                        if s.trace_id == result.trace_id]
        assert root.name == "cluster.request"
        assert root.attributes["mode"] == ("direct" if kind == "direct" else "cached")
        replica = [(service.tracer, span) for service in cluster.services.values()
                   for span in service.tracer.spans()
                   if span.trace_id == result.trace_id]
        for tracer, span in replica:
            if span.parent_id is not None:
                assert span.parent_id in {s.span_id for t, s in replica if t is tracer}
            elif span.name == "serving.run_batch":
                assert span.remote_parent == cluster.tracer.ref(flush[0])
            else:
                assert span.remote_parent == cluster.tracer.ref(root)
        names = [s.name for s in flush] + [s.name for _, s in replica]
        assert names == {
            "hit": ["serving.cache_serve"],
            "direct": ["resilience.attempt"],
            "miss": ["cluster.flush", "serving.fallback_serve",
                     "serving.run_batch", "resilience.attempt"],
        }[kind]


# -- a traced window: each replica dispatch is one trace ---------------------
def _window_cluster():
    """A traced three-replica cluster whose sampler keeps every trace;
    ``max_batch_size=1``, so a dispatch with a miss flushes inside it."""
    event_log = EventLog()
    cluster = CosmoCluster(
        lambda i: ScriptedGenerator(),
        config=ClusterConfig(n_replicas=3, max_batch_size=1),
        event_log=event_log, sampler=TailSampler(slowest_k=0, head_every=1))
    return cluster, event_log


def _dispatch_roots(cluster):
    """replica → its dispatch's ``cluster.request`` root (one window)."""
    return {span.attributes["replica"]: span for span in cluster.tracer.spans()
            if span.name == "cluster.request"}


def test_every_window_result_carries_its_dispatch_trace_id():
    cluster, _ = _window_cluster()
    results = cluster.handle_batch([f"query {i:02d}" for i in range(12)])
    roots = _dispatch_roots(cluster)
    assert len(roots) == len({r.replica for r in results}) > 1
    assert len({root.trace_id for root in roots.values()}) == len(roots)
    assert all(r.trace_id == roots[r.replica].trace_id for r in results)
    assert all(root.attributes["items"] == sum(r.replica == replica for r in results)
               for replica, root in roots.items())


def test_every_window_latency_exemplar_resolves_to_a_kept_dispatch_trace():
    cluster, _ = _window_cluster()
    cluster.preload_yearly({f"query {i:02d}": "answer." for i in range(6)})
    for _ in range(4):
        cluster.handle_batch([f"query {i:02d}" for i in range(12)])
        cluster.clock.advance(1.0)
    kept = {span.trace_id for span in cluster.tracer.spans()
            if span.name == "cluster.request"}
    exemplars = cluster.latency_exemplars()
    assert exemplars
    assert {trace_id for _, trace_id, _ in exemplars} <= kept


def test_an_event_emitted_mid_dispatch_carries_the_dispatch_trace_id():
    cluster, event_log = _window_cluster()
    cluster.handle_batch([f"cold {i}" for i in range(9)])
    roots = _dispatch_roots(cluster)
    flushes = [e for e in event_log.events() if e.kind == "cluster.flush"]
    assert {e.attrs["replica"] for e in flushes} == set(roots)   # size flushes
    assert all(e.attrs.get(TRACE_ID_ATTR) == roots[e.attrs["replica"]].trace_id
               for e in flushes)


def test_a_dispatch_with_a_failed_over_request_is_marked_on_its_root():
    cluster, _ = _window_cluster()
    queries = [f"q{i}" for i in range(30)]
    victim = cluster.router.replicas[0]
    moved = {q for q in queries if cluster.router.route(q) == victim}
    breaker = cluster.services[victim].breaker
    while breaker.state is not BreakerState.OPEN:
        breaker.record_failure()
    results = cluster.handle_batch(queries)
    marked = {replica for replica, root in _dispatch_roots(cluster).items()
              if root.attributes.get("failover")}
    assert moved and marked == {r.replica for r in results if r.query in moved}
    assert victim not in marked
