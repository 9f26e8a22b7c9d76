"""Serving components publish lifecycle transitions into the event log."""

from repro.obs import EventLog
from repro.serving import (
    BreakerState,
    CircuitBreaker,
    ClusterConfig,
    CosmoCluster,
    CosmoService,
    FaultInjector,
    FaultPlan,
    FlakyGenerator,
    ServeRequest,
    SimClock,
)
from repro.serving.resilience import COOLDOWN_S, HALF_OPEN_PROBES, MIN_CALLS
from repro.serving.chaos import ScriptedGenerator, response_ok


def _flaky_service(event_log, plan=None, seed=0, **kwargs):
    injector = FaultInjector(plan or FaultPlan(), seed=seed)
    generator = FlakyGenerator(ScriptedGenerator(), injector)
    service = CosmoService(generator, clock=SimClock(),
                           fallback_response="(down)", seed=seed,
                           event_log=event_log, **kwargs)
    return service, injector


def test_breaker_transitions_become_events():
    clock = SimClock()
    log = EventLog()
    breaker = CircuitBreaker(clock)
    breaker.attach_event_log(log, component="svc-r0")
    for _ in range(MIN_CALLS):     # rate 1.0 over MIN_CALLS: trips OPEN
        breaker.record_failure()
    clock.advance(COOLDOWN_S)
    assert breaker.allow()         # cooldown elapsed: HALF_OPEN probe
    for _ in range(HALF_OPEN_PROBES):
        breaker.record_success()   # enough probes close it
    assert [e.kind for e in log.events()] == [
        "breaker.open", "breaker.half-open", "breaker.closed"]
    opened = log.events()[0]
    assert opened.component == "svc-r0"
    assert opened.attrs["opens"] == 1


def test_service_degradation_events_mark_edges_not_requests():
    log = EventLog()
    service, _ = _flaky_service(log)
    service.serve(ServeRequest(query="q"))    # cold: fallback -> entry
    service.serve(ServeRequest(query="q2"))   # still degraded: no new event
    service.run_batch()
    service.serve(ServeRequest(query="q"))    # fresh again -> exit
    kinds = [e.kind for e in log.events()]
    assert kinds == ["service.degraded_entry", "service.degraded_exit"]
    entry, exit_ = log.events()
    assert entry.component == "cosmo"
    assert entry.attrs["outcome"] == "fallback"
    assert exit_.ts >= entry.ts


def test_dead_letter_and_redrive_events():
    log = EventLog()
    service, injector = _flaky_service(log, max_attempts=2)
    injector.plan = FaultPlan(error_rate=1.0)
    service.serve(ServeRequest(query="q1"))
    service.serve(ServeRequest(query="q2"))
    assert service.run_batch() == 0
    # Two failed attempts, fewer than MIN_CALLS: no breaker event.
    assert service.breaker.state is BreakerState.CLOSED
    injector.plan = FaultPlan()               # outage ends
    service.daily_refresh()
    dead = next(e for e in log.events() if e.kind == "service.dead_letter")
    assert dead.attrs == {"count": 2, "attempts": 2}
    redrive = next(e for e in log.events() if e.kind == "service.redrive")
    assert redrive.attrs["redriven"] == 2
    assert redrive.attrs["requeued"] == 0


def test_cluster_drain_restore_and_flush_events():
    log = EventLog()
    config = ClusterConfig(n_replicas=2, seed=0, max_batch_size=2,
                           max_batch_delay_s=5.0)
    cluster = CosmoCluster(lambda index: ScriptedGenerator(), config=config,
                           response_validator=response_ok, event_log=log)
    cluster.drain("cluster-r1")
    cluster.restore("cluster-r1")
    cluster.restore("cluster-r1")             # idempotent: no second event
    for i in range(4):
        cluster.handle(ServeRequest(query=f"query {i}"))
        cluster.clock.advance(0.01)
    cluster.handle(ServeRequest(query="query tail"))
    cluster.flush()
    events = log.events()
    drain = next(e for e in events if e.kind == "router.drain")
    assert drain.component == "cluster"
    assert drain.attrs == {"replica": "cluster-r1", "active": 1}
    assert sum(e.kind == "router.restore" for e in events) == 1
    flushes = [e for e in events if e.kind == "cluster.flush"]
    assert flushes
    assert {e.attrs["trigger"] for e in flushes} <= {"size", "deadline", "forced"}
    assert "forced" in {e.attrs["trigger"] for e in flushes}
    assert all(e.attrs["replica"].startswith("cluster-r") for e in flushes)
    # Every event is timestamped on a simulated clock and ids are ordered.
    assert [e.event_id for e in events] == sorted(e.event_id for e in events)


def test_no_event_log_attached_is_silent_and_harmless():
    service, _ = _flaky_service(None)
    service.serve(ServeRequest(query="q"))
    service.run_batch()
    assert service.event_log is None
