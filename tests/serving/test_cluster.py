"""Cluster serving: flush triggers, admission control, failover,
and the cluster-wide accounting invariant under chaos."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import EventLog
from repro.serving import (
    ClusterConfig,
    CosmoCluster,
    FaultInjector,
    FaultPlan,
    FlakyGenerator,
    ServeOutcome,
    ServeRequest,
)
from repro.serving.chaos import ScriptedGenerator, response_ok
from repro.serving.resilience import COOLDOWN_S, BreakerState


def _cluster(n_replicas=3, fault_rate=0.0, seed=3, **config_kwargs) -> CosmoCluster:
    injectors = {}

    def factory(index: int):
        generator = ScriptedGenerator()
        if fault_rate <= 0.0:
            return generator
        injector = FaultInjector(FaultPlan.mixed(fault_rate), seed=seed + index)
        injectors[index] = injector
        return FlakyGenerator(generator, injector)

    options = {"max_batch_size": 8, "max_batch_delay_s": 0.5, **config_kwargs}
    config = ClusterConfig(n_replicas=n_replicas, seed=seed, **options)
    cluster = CosmoCluster(factory, config=config,
                           response_validator=response_ok)
    cluster._test_injectors = injectors
    return cluster


# -- config validation ------------------------------------------------------
def test_cluster_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(n_replicas=0)
    with pytest.raises(ValueError):
        ClusterConfig(max_batch_size=0)
    with pytest.raises(ValueError):
        ClusterConfig(max_batch_delay_s=0.0)
    with pytest.raises(ValueError):
        ClusterConfig(max_queue_depth=0)


# -- flush triggers ---------------------------------------------------------
def test_cluster_flushes_on_size_trigger():
    cluster = _cluster(n_replicas=1)
    for i in range(8):  # max_batch_size distinct misses on one shard
        cluster.handle(f"query {i}")
    service = cluster.services["cluster-r0"]
    assert service.metrics.batch_runs >= 1  # size trigger fired inline
    assert cluster.handle("query 0").outcome is ServeOutcome.FRESH


def test_cluster_flushes_on_deadline_trigger():
    cluster = _cluster(n_replicas=1)
    cluster.handle("lonely query")  # one pending miss, far below size
    cluster.clock.advance(1.0)  # past max_batch_delay_s
    cluster.handle("other query")  # next arrival evaluates the deadline
    service = cluster.services["cluster-r0"]
    assert service.metrics.batch_runs >= 1
    assert cluster.handle("lonely query").outcome is ServeOutcome.FRESH


def test_deadline_charges_the_oldest_entry_after_an_out_of_order_removal():
    """A direct request's write-through takes ``b`` out of the middle of
    the queue; the deadline is still ``a``'s, enqueued first."""
    cluster = _cluster(n_replicas=1, max_batch_delay_s=0.25)
    cluster.preload_yearly({"hot": "answer."})
    cache = cluster.services["cluster-r0"].cache
    cluster.handle("a")                                   # t = 0: miss
    cluster.clock.advance(0.1)
    cluster.handle("b")                                   # t = 0.1: miss
    cluster.handle(ServeRequest(query="b", direct=True))  # write-through
    assert cache.pending_queries() == ["a"]
    cluster.clock.sleep_until(0.275)
    cluster.handle("hot")                                 # a has waited 0.275 s
    assert cache.pending_queries() == []
    flushes = cluster.registry.get("cluster_batch_flushes_total")
    assert flushes.labels(cluster="cluster", trigger="deadline").value == 1


@st.composite
def flush_schedules(draw):
    """Windows of misses and direct requests and time gaps, in four
    stretches: healthy, a generator outage (a failed flush dead-letters
    its queries), recovered, and after a redrive answers those letters."""
    keys = st.sampled_from([f"q{i}" for i in range(40)])
    step = st.one_of(
        st.tuples(st.just("window"),
                  st.lists(st.tuples(keys, st.booleans()), min_size=1, max_size=8)),
        st.tuples(st.just("gap"), st.floats(0.0, 0.4)))
    ops = []
    for marker in ("fail", "recover", "redrive"):
        ops += draw(st.lists(step, max_size=8)) + [(marker, None)]
    return ops + draw(st.lists(step, max_size=8))


@given(flush_schedules())
@settings(max_examples=60, deadline=None)
def test_flush_trigger_matches_a_per_entry_reference(ops):
    """After every dispatch the trigger that fired (or none) is the one a
    ``query -> enqueue time`` reference gives: "size" at
    ``max_batch_size`` pending, else "deadline" once the oldest surviving
    entry has waited ``max_batch_delay_s``.  Entries leave out of order
    (direct write-through, redrive, dead letters), survivors of a partial
    flush keep their times, and an emptied queue starts afresh."""
    cluster = _cluster(n_replicas=2, fault_rate=0.5, max_batch_size=3,
                       max_batch_delay_s=0.25)
    cluster.event_log = log = EventLog()
    injectors = cluster._test_injectors.values()
    for injector in injectors:
        injector.plan = FaultPlan()
    enqueued = {replica_id: {} for replica_id in cluster.services}
    expected = []

    def spy(replica_id, service):
        fetch_many, serve_batch = service.cache.fetch_many, service.serve_batch
        reference = enqueued[replica_id]

        def spied_fetch(queries, enqueue=True):
            before = set(service.cache.pending_queries())
            hits = fetch_many(queries, enqueue)
            for query in service.cache.pending_queries():
                if query not in before:
                    reference[query] = service.clock.now()
            return hits

        def spied_serve(group, allow_enqueue=True):
            served = serve_batch(group, allow_enqueue=allow_enqueue)
            live = service.cache.pending_queries()
            for query in set(reference) - set(live):
                del reference[query]
            trigger = None
            if len(live) >= 3:
                trigger = "size"
            elif live and service.clock.now() - min(reference.values()) >= 0.25:
                trigger = "deadline"
            expected.append((replica_id, trigger))
            return served

        service.cache.fetch_many, service.serve_batch = spied_fetch, spied_serve

    for replica_id, service in cluster.services.items():
        spy(replica_id, service)
    for kind, arg in ops:
        if kind == "window":
            expected.clear()
            seen = len(log)
            cluster.handle_batch([ServeRequest(query=q, direct=direct)
                                  for q, direct in arg])
            fired = [(event.attrs["replica"], event.attrs["trigger"])
                     for event in log.events()[seen:]
                     if event.kind == "cluster.flush"]
            assert fired == [(r, t) for r, t in expected if t is not None]
        elif kind == "gap":
            cluster.clock.advance(arg)
        elif kind == "redrive":
            cluster.redrive_dead_letters()
        else:
            for injector in injectors:
                injector.plan = FaultPlan(error_rate=1.0 if kind == "fail" else 0.0)
            if kind == "recover":  # every breaker the outage opened cools down
                for clock in (cluster.clock, *(s.clock for s in cluster.services.values())):
                    clock.advance(COOLDOWN_S)


def test_forced_flush_drains_the_queue_past_a_full_daily_layer():
    """Regression: ``flush`` stopped after the first run that installed
    nothing, but a run past ``daily_capacity`` still drains the queries it
    answered, so a healthy replica was left with queries queued."""
    cluster = CosmoCluster(
        lambda index: ScriptedGenerator(),
        config=ClusterConfig(n_replicas=1, max_batch_size=4, max_batch_delay_s=1e9),
        response_validator=response_ok, daily_capacity=2)
    cluster.handle_batch([f"query {i}" for i in range(10)])
    service = cluster.services["cluster-r0"]
    assert service.cache.pending_size == 6  # one size-triggered run filled the layer
    cluster.flush()
    assert service.cache.pending_size == 0
    assert service.breaker.state is BreakerState.CLOSED


# -- routing and locality ---------------------------------------------------
def test_requests_for_a_key_stay_on_its_home_replica():
    cluster = _cluster(n_replicas=3)
    for _ in range(3):
        homes = {q: cluster.handle(q).replica for q in (f"q{i}" for i in range(20))}
        assert homes == {q: cluster.router.route(q) for q in homes}


def test_preload_yearly_shards_entries_to_their_home_replica():
    cluster = _cluster(n_replicas=3)
    entries = {f"q{i}": f"answer {i}." for i in range(30)}
    cluster.preload_yearly(entries)
    for query, answer in entries.items():
        result = cluster.handle(query)
        assert result.text == answer
        assert result.outcome is ServeOutcome.FRESH
        assert result.replica == cluster.router.route(query)


def test_drained_replica_receives_no_traffic():
    cluster = _cluster(n_replicas=3)
    cluster.drain("cluster-r1")
    for i in range(30):
        assert cluster.handle(f"q{i}").replica != "cluster-r1"
    cluster.restore("cluster-r1")
    assert any(cluster.handle(f"q{i}").replica == "cluster-r1"
               for i in range(30))


# -- admission control ------------------------------------------------------
def test_admission_control_sheds_without_dropping():
    cluster = _cluster(n_replicas=2, max_queue_depth=3, max_batch_size=1000,
                       max_batch_delay_s=1e9)
    for i in range(20):  # distinct misses; queue would grow to 20 unchecked
        result = cluster.handle(f"query {i:02d}")
        assert result.text is not None  # shed, never dropped
    totals = cluster.metrics_totals()
    assert totals["shed"] > 0
    assert cluster.queue_depth <= cluster.config.max_queue_depth
    assert (totals["served_fresh"] + totals["degraded_serves"]
            + totals["fallbacks"] == totals["requests"] == 20)


# -- failover ---------------------------------------------------------------
def _trip(breaker):
    """Open the breaker the way an outage does: failures until it trips."""
    while breaker.state is not BreakerState.OPEN:
        breaker.record_failure()


def test_forced_open_breaker_reroutes_to_ring_neighbor():
    cluster = _cluster(n_replicas=3)
    victim = "cluster-r0"
    victim_keys = [f"q{i}" for i in range(60)
                   if cluster.router.route(f"q{i}") == victim]
    assert victim_keys
    _trip(cluster.services[victim].breaker)
    for key in victim_keys:
        result = cluster.handle(key)
        assert result.replica != victim
        assert result.replica == cluster.router.preference(key)[1]
    assert cluster.metrics_totals()["failovers"] == len(victim_keys)


def test_failover_availability_beats_single_replica_degraded_baseline():
    """Acceptance: one breaker forced open through a cold sustained
    outage.  The single-replica baseline is stuck degraded — its only
    generator is fenced off, so nothing ever heals — while the cluster
    fails the fenced replica's traffic over to healthy shards that keep
    generating.  Served availability must come out at least as high, and
    every request must be answered and accounted."""
    queries = [f"q{i}" for i in range(40)]

    def outage(cluster):
        _trip(cluster.services[cluster.router.replicas[0]].breaker)
        served = [cluster.handle(q) for _ in range(4) for q in queries]
        return cluster, served

    single, single_served = outage(_cluster(n_replicas=1))
    sharded, sharded_served = outage(_cluster(n_replicas=3))

    assert len(single_served) == len(sharded_served) == 160  # nothing dropped
    assert sharded.availability >= single.availability
    assert sharded.availability > 0.5  # healthy shards keep healing
    for cluster in (single, sharded):
        totals = cluster.metrics_totals()
        assert (totals["served_fresh"] + totals["degraded_serves"]
                + totals["fallbacks"] == totals["requests"] == totals["handled"])


def _reference_replica(cluster, key):
    """The serving replica by definition: the first replica in the key's
    ring order whose breaker is not cooling down, else the home replica."""
    order = cluster.router.preference(key)
    healthy = [r for r in order if not cluster.services[r].breaker.cooling_down]
    return healthy[0] if healthy else order[0]


_FAILOVER_IDS = [f"cluster-r{i}" for i in range(3)]


@pytest.mark.parametrize("drained", [None, *_FAILOVER_IDS],
                         ids=lambda r: f"drained={r}")
@pytest.mark.parametrize("tripped", [
    subset for size in range(len(_FAILOVER_IDS) + 1)
    for subset in combinations(_FAILOVER_IDS, size)],
    ids=lambda subset: "tripped=" + ("+".join(subset) or "none"))
def test_failover_matches_the_reference_for_tripped_and_drained_replicas(
        tripped, drained):
    cluster = _cluster(n_replicas=3)
    if drained is not None:
        cluster.drain(drained)
    for replica_id in tripped:
        _trip(cluster.services[replica_id].breaker)
    moved = 0
    for key in (f"q{i}" for i in range(40)):
        expected = _reference_replica(cluster, key)
        assert cluster.handle(key).replica == expected
        moved += expected != cluster.router.route(key)
    assert cluster.metrics_totals()["failovers"] == moved


@settings(max_examples=60, deadline=None)
@given(tripped=st.sets(st.sampled_from(_FAILOVER_IDS)),
       drained=st.sampled_from([None, *_FAILOVER_IDS]),
       window=st.integers(1, 16),
       bare=st.lists(st.booleans(), min_size=40, max_size=40))
def test_windowed_failover_matches_the_reference(tripped, drained, window,
                                                 bare):
    """``handle_batch`` reads the breakers once per window; every request
    of the window, bare string or record, must still land where the
    per-key reference says."""
    cluster = _cluster(n_replicas=3)
    if drained is not None:
        cluster.drain(drained)
    for replica_id in tripped:
        _trip(cluster.services[replica_id].breaker)
    keys = [f"q{i}" for i in range(40)]
    requests = [key if as_string else ServeRequest(query=key)
                for key, as_string in zip(keys, bare)]
    moved = 0
    for start in range(0, len(keys), window):
        expected = [_reference_replica(cluster, key)
                    for key in keys[start:start + window]]
        results = cluster.handle_batch(requests[start:start + window])
        assert [result.replica for result in results] == expected
        moved += sum(replica != cluster.router.route(key) for replica, key
                     in zip(expected, keys[start:start + window]))
    assert cluster.metrics_totals()["failovers"] == moved


def test_keys_go_home_once_the_breaker_cooldown_expires():
    cluster = _cluster(n_replicas=3)
    victim = "cluster-r0"
    victim_keys = [f"q{i}" for i in range(60)
                   if cluster.router.route(f"q{i}") == victim]
    assert victim_keys
    breaker = cluster.services[victim].breaker
    _trip(breaker)
    assert all(cluster.handle(key).replica != victim for key in victim_keys)
    failovers = cluster.metrics_totals()["failovers"]
    assert failovers == len(victim_keys)
    cluster.services[victim].clock.advance(COOLDOWN_S)
    # Still OPEN (no call has probed it), but no longer cooling down.
    assert breaker.state is BreakerState.OPEN and not breaker.cooling_down
    for key in victim_keys:
        assert cluster.handle(key).replica == victim
    assert cluster.metrics_totals()["failovers"] == failovers


def test_keys_go_home_once_the_arrival_clock_passes_the_cooldown():
    """A tripped replica whose keys all fail over gets no dispatch, so its
    own clock stands still; the cooldown is read at the arrival time
    instead, and ends when the arrival clock passes it."""
    cluster = _cluster(n_replicas=3)
    victim = "cluster-r0"
    victim_keys = [f"q{i}" for i in range(60)
                   if cluster.router.route(f"q{i}") == victim]
    assert len(victim_keys) == 21
    breaker = cluster.services[victim].breaker
    _trip(breaker)
    assert all(cluster.handle(key).replica != victim for key in victim_keys)
    failovers = cluster.metrics_totals()["failovers"]
    assert failovers == len(victim_keys)
    cluster.clock.advance(COOLDOWN_S / 2)
    assert all(cluster.handle(key).replica != victim for key in victim_keys)
    assert cluster.metrics_totals()["failovers"] == 2 * failovers
    cluster.clock.advance(10_000.0)
    # The victim's clock has not moved: on it, the breaker still cools.
    assert breaker.cooling_down
    assert not breaker.cooling_down_at(cluster.clock.now())
    for key in victim_keys:
        assert cluster.handle(key).replica == victim
    assert cluster.metrics_totals()["failovers"] == 2 * failovers
    assert breaker.state is BreakerState.CLOSED


def test_all_breakers_open_falls_back_to_home_replica():
    cluster = _cluster(n_replicas=2)
    for service in cluster.services.values():
        _trip(service.breaker)
    result = cluster.handle("q")
    assert result.replica == cluster.router.route("q")
    assert cluster.metrics_totals()["failovers"] == 0


# -- latency model ----------------------------------------------------------
def test_queueing_delay_is_folded_into_cluster_latency():
    cluster = _cluster(n_replicas=1)
    cluster.preload_yearly({"q": "answer."})
    first = cluster.handle(ServeRequest(query="q"))
    # No arrival-clock advance: the second request arrives while the
    # replica is still busy with the first, so it queues behind it.
    second = cluster.handle(ServeRequest(query="q"))
    assert second.latency_s == pytest.approx(first.latency_s * 2)


def test_daily_refresh_barriers_all_clocks():
    cluster = _cluster(n_replicas=3)
    for i in range(10):
        cluster.handle(f"q{i}")
        cluster.clock.advance(0.01)
    cluster.daily_refresh(refresh_stale=False)
    horizons = {s.clock.now() for s in cluster.services.values()}
    assert horizons == {cluster.clock.now()}
    assert cluster.clock.day == 1


# -- accounting invariant under chaos (property) ----------------------------
@st.composite
def cluster_schedules(draw):
    ops = []
    for _ in range(draw(st.integers(5, 40))):
        kind = draw(st.sampled_from(["request", "request", "request", "gap",
                                     "flush", "refresh", "plan", "trip"]))
        if kind == "request":
            ops.append((kind, draw(st.sampled_from([f"q{i}" for i in range(12)]))))
        elif kind == "gap":
            ops.append((kind, draw(st.floats(0.0, 2.0))))
        elif kind == "plan":
            ops.append((kind, draw(st.floats(0.0, 1.0))))
        elif kind == "trip":
            ops.append((kind, draw(st.integers(0, 5))))
        else:
            ops.append((kind, None))
    return ops


@given(cluster_schedules(), st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_cluster_accounting_invariant_under_chaos(ops, n_replicas, seed):
    cluster = _cluster(n_replicas=n_replicas, fault_rate=0.3, seed=seed)
    requests = 0
    for kind, arg in ops:
        if kind == "request":
            result = cluster.handle(arg)
            assert result.outcome in ServeOutcome
            requests += 1
        elif kind == "gap":
            cluster.clock.advance(arg)
        elif kind == "flush":
            cluster.flush()
        elif kind == "refresh":
            cluster.daily_refresh()
        elif kind == "plan":
            for injector in cluster._test_injectors.values():
                injector.plan = FaultPlan.mixed(arg)
        elif kind == "trip":
            replica_id = cluster.router.replicas[arg % n_replicas]
            _trip(cluster.services[replica_id].breaker)
    totals = cluster.metrics_totals()
    # Every request is exactly one of fresh / degraded / fallback, on
    # exactly one replica, and none is dropped or double-counted.
    assert (totals["served_fresh"] + totals["degraded_serves"]
            + totals["fallbacks"] == totals["requests"]
            == totals["handled"] == requests)
    assert cluster._latency.count == requests
    assert 0.0 <= cluster.availability <= 1.0
