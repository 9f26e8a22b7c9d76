"""Sharded multi-replica serving cluster (the §3.5.2 deployment at scale).

One :class:`~repro.serving.deployment.CosmoService` replica caps out at
its own simulated service rate; production COSMO serves heavy traffic by
sharding it.  :class:`CosmoCluster` composes the pieces this repo already
has into that deployment:

* **sharding** — a :class:`~repro.serving.router.ConsistentHashRouter`
  gives every query a stable home replica (cache locality: a query's
  cache entry and pending-queue slot live on one shard) with minimal
  remapping when a replica is drained;
* **failover** — each replica's circuit breaker is consulted *read-only*
  (:meth:`~repro.serving.resilience.CircuitBreaker.cooling_down_at`, at
  the time a dispatch to it would start); while a breaker cools down,
  that replica's traffic walks to the next replica on the ring instead
  of queueing behind a dead generator;
* **adaptive batching** — a replica's pending-miss queue is flushed
  when it reaches ``max_batch_size`` *or* when its oldest miss has
  waited ``max_batch_delay_s`` since it was enqueued, replacing the
  fixed batch cadence a single service needs a driver loop for;
* **admission control** — when cluster-wide pending depth exceeds
  ``max_queue_depth``, new misses are served from the degraded path
  without enqueueing (shed, not dropped: every request still gets an
  answer and is counted exactly once, so the accounting invariant
  ``served_fresh + degraded + fallbacks == requests`` holds cluster-wide).

Time is modeled as a parallel discrete-event simulation: the cluster's
own :class:`~repro.serving.clock.SimClock` is the *arrival* clock (the
driver advances it between requests), while each replica runs on its own
clock that tracks when that shard becomes free.  Dispatching a request
synchronizes the replica clock forward to the arrival time (idle shard)
or leaves it ahead (busy shard — the difference is queueing delay, folded
into the returned :class:`~repro.serving.api.ServeResult.latency_s`).
Everything is deterministic: same seed, same traffic, same bytes out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampling import TailSampler
from repro.obs.tracing import AttrValue, Tracer, make_trace_id
from repro.serving.api import ServeOutcome, ServeRequest, ServeResult
from repro.serving.clock import SimClock
from repro.serving.deployment import CosmoService
from repro.serving.resilience import BreakerState
from repro.serving.router import ConsistentHashRouter

__all__ = ["ClusterConfig", "CosmoCluster"]

_OPEN = BreakerState.OPEN
#: outcome → its string: a dict read, not the enum's ``value`` property
#: (two Python-level calls on every one-request dispatch).
_OUTCOME_VALUES = {outcome: outcome.value for outcome in ServeOutcome}


class _HeldClock:
    """Explicit-time clock for spans that straddle two real clocks.

    A dispatch's root span must cover exactly ``[arrival, replica clock
    after the dispatch]``, but no single clock traverses that interval
    (the arrival clock stands still while the replica clock serves).
    The cluster times its root spans on its one holder instead, setting
    ``value`` at each boundary it crosses.
    """

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value

    def now(self) -> float:
        return self.value


@dataclass(frozen=True)
class ClusterConfig:
    """Shape and policies of one :class:`CosmoCluster`.

    ``max_batch_delay_s`` bounds miss-to-batch staleness per replica;
    ``max_queue_depth`` is the cluster-wide pending bound past which
    admission control sheds misses to the degraded path;
    ``trace_requests`` gates per-request distributed tracing (span
    construction and the replica's join of each dispatch's trace) —
    switch it off for the bare arm of the tracing-overhead bench.  Tracing never changes what
    a request is charged or counted: span bookkeeping advances no clock
    and touches no metric.
    """

    n_replicas: int = 2
    max_batch_size: int = 32
    max_batch_delay_s: float = 30.0
    max_queue_depth: int = 500
    trace_requests: bool = True
    seed: int = 0
    name: str = "cluster"

    def __post_init__(self):
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be at least 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.max_batch_delay_s <= 0:
            raise ValueError("max_batch_delay_s must be positive")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")


class CosmoCluster:
    """N service replicas behind a consistent-hash router.

    ``generator_factory(replica_index)`` builds one generator per
    replica — each shard owns its model instance, so per-replica fault
    injection and breaker state stay independent.  Extra
    ``service_kwargs`` pass through to every
    :class:`~repro.serving.deployment.CosmoService` (retry policy,
    fallback response, validators, ...).

    All replicas share one :class:`~repro.obs.metrics.MetricsRegistry`:
    per-replica serving metrics are distinguished by their ``service``
    label (``<name>-r0``, ``<name>-r1``, ...), cluster-level metrics by
    a ``cluster`` label.  Each replica traces on its own clock and the
    cluster traces arrivals on the arrival clock; merge them with
    :func:`~repro.obs.tracing.chrome_trace` for one timeline.

    The cluster consumes only the structured serving API:
    :meth:`handle` takes a :class:`~repro.serving.api.ServeRequest`
    (or a bare query string for convenience) and returns the replica's
    :class:`~repro.serving.api.ServeResult` with shard queueing delay
    folded into ``latency_s``.
    """

    def __init__(
        self,
        generator_factory,
        config: ClusterConfig | None = None,
        clock: SimClock | None = None,
        registry: MetricsRegistry | None = None,
        event_log: EventLog | None = None,
        sampler: TailSampler | None = None,
        **service_kwargs,
    ):
        self.config = config or ClusterConfig()
        cfg = self.config
        self.clock = clock or SimClock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sampler = sampler
        self.tracer = Tracer(clock=self.clock.now, name=cfg.name,
                             sampler=sampler)
        self.event_log = event_log
        self._started_at = self.clock.now()
        #: what each dispatch's root span is timed on (:class:`_HeldClock`).
        self._held = _HeldClock(self._started_at)
        replica_ids = [f"{cfg.name}-r{i}" for i in range(cfg.n_replicas)]
        self.router = ConsistentHashRouter(replica_ids, seed=cfg.seed)
        if event_log is not None:
            # Drain/restore events are timed on the arrival clock — the
            # operator acts at cluster time, not on any one replica's.
            self.router.attach_event_log(event_log, clock=self.clock.now,
                                         component=cfg.name)
        self.services: dict[str, CosmoService] = {}
        for index, replica_id in enumerate(replica_ids):
            replica_clock = self.clock.fork()
            self.services[replica_id] = CosmoService(
                generator_factory(index),
                clock=replica_clock,
                seed=cfg.seed + index,
                registry=self.registry,
                tracer=Tracer(clock=replica_clock.now, name=replica_id,
                              sampler=sampler),
                event_log=event_log,
                name=replica_id,
                **service_kwargs,
            )
        #: replica → its breaker; a service keeps one breaker for life,
        #: so routing reads this map.
        self._breakers = {replica_id: service.breaker
                          for replica_id, service in self.services.items()}
        labels = {"cluster": cfg.name}
        self._requests = self.registry.counter(
            "cluster_requests_total", "requests handled by the cluster",
            ("cluster",)).labels(**labels)
        self._failovers = self.registry.counter(
            "cluster_failovers_total",
            "requests re-routed off their home replica (breaker cooling down)",
            ("cluster",)).labels(**labels)
        self._shed = self.registry.counter(
            "cluster_shed_total",
            "requests admission control served without enqueueing",
            ("cluster",)).labels(**labels)
        self._flushes = self.registry.counter(
            "cluster_batch_flushes_total", "adaptive batch flushes by trigger",
            ("cluster", "trigger"))
        #: trigger → its counter child, bound the first time it fires.
        self._flushes_by_trigger: dict = {}
        self._latency = self.registry.histogram(
            "cluster_request_latency_seconds",
            "end-to-end simulated latency including shard queueing delay",
            ("cluster",)).labels(**labels)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _select(self, key: str, cooling: set[str],
                failed_over: set[str]) -> str:
        """Pick the serving replica in a window where the ``cooling``
        replicas' breakers are cooling down; a failover target is added
        to ``failed_over`` and counted, once per re-routed request.

        The home replica serves unless it is cooling down; only then is
        the key's ring preference order walked past cooling replicas.  If
        *every* active replica is cooling down there is nowhere better to
        go — the home replica takes the request and serves it from its
        degraded path.
        """
        home = self.router.route(key)
        if home not in cooling:
            return home
        for replica_id in self.router.preference(key)[1:]:
            if replica_id not in cooling:
                self._failovers.inc()
                failed_over.add(replica_id)
                return replica_id
        return home

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _admit(self, n_requests: int) -> bool:
        """Admission control, sampled once per arrival: True when the
        cluster-wide pending depth sheds these requests to the degraded
        path (served, counted, not enqueued)."""
        shed = self.queue_depth >= self.config.max_queue_depth
        if shed:
            self._shed.inc(n_requests)
        return shed

    def handle(self, request: ServeRequest | str) -> ServeResult:
        """Serve one request: a window of one (see :meth:`handle_batch`)."""
        return self.handle_batch((request,))[0]

    def handle_batch(self,
                     requests: Sequence[ServeRequest | str]) -> list[ServeResult]:
        """Serve one arrival window of requests (or bare query strings)
        through the sharded deployment; results come back in request order.

        Every request in the window shares one arrival tick (the cluster
        clock's ``now()`` — the driver advances it between windows).  The
        window is counted once and admitted once (the shed decision is
        sampled at that tick), then every request is routed and the
        window is grouped by replica.  The breakers are read once per
        window: while none is cooling down a request is one
        ``router.route``, and only a window with a cooling breaker walks
        preference orders (:meth:`_select`).  A bare string is a cached
        request; it is routed, grouped and served as itself, never as a
        :class:`~repro.serving.api.ServeRequest`.  Each group is one
        *dispatch*: one
        :meth:`~repro.serving.deployment.CosmoService.serve_batch` call,
        so a replica built with a
        :class:`~repro.serving.deployment.BatchCostModel` charges one
        amortized window instead of ``len(group)`` sequential serves.
        Request accounting is per request: each counts once, cluster-wide.

        Each result is stamped in place: ``latency_s`` becomes end-to-end
        (shard queueing delay + service latency), ``batch_index`` is the
        request's position in the window, and ``trace_id`` names its
        dispatch's trace; the replica already named the snapshot version
        that answered it.

        With ``trace_requests`` on (the default) a dispatch is one trace,
        and every trace starts here: a ``cluster.request`` root timed on a
        :class:`_HeldClock` over ``[arrival, replica clock after the
        dispatch]``, with a ``cluster.queueing`` child when the shard had
        a backlog.  Its id is minted from the request counter and the
        dispatch's first query.  The replica attaches the root, so its
        spans, the flush the dispatch triggers, the events emitted
        meanwhile and the latency histogram's exemplar all carry it, and
        the tail sampler gets one ``finish`` per dispatch: its duration is
        the slowest answer's end-to-end latency, and it is flagged when
        any answer was not fresh.  Tracing wraps the one path rather than
        forking it, so clock and metric operations are byte-identical
        either way.
        """
        if not requests:
            return []
        arrival = self.clock.now()
        self._requests.inc(len(requests))
        shed = self._admit(len(requests))
        # replica → (window positions, requests): one dispatch each.
        groups: dict[str, tuple[list[int], list[ServeRequest | str]]] = {}
        failed_over: set[str] = set()
        # Routing advances no replica clock, so no cooldown can lapse while
        # a window is routed: the breakers are read once per window, each
        # at the time a dispatch to its replica would start (the arrival,
        # or later on a busy shard).  A closed breaker costs one attribute
        # read, not a cooldown check.  (A loop, not a comprehension: one
        # that read ``arrival`` and ``self`` would make both closure cells
        # for the whole of this method.)
        cooling = set()
        for name, breaker in self._breakers.items():
            if breaker.state is _OPEN and breaker.cooling_down_at(
                    max(arrival, self.services[name].clock.now())):
                cooling.add(name)
        route = self.router.route
        for index, request in enumerate(requests):
            query = request if isinstance(request, str) else request.query
            replica_id = (self._select(query, cooling, failed_over) if cooling
                          else route(query))
            group = groups.get(replica_id)
            if group is None:
                groups[replica_id] = ([index], [request])
            else:
                group[0].append(index)
                group[1].append(request)
        results: list[ServeResult | None] = [None] * len(requests)
        held, tracer = self._held, self.tracer
        held_now = held.now
        histogram, fresh = self._latency, ServeOutcome.FRESH
        tracing, event_log = self.config.trace_requests, self.event_log
        sequence = int(self._requests.value) if tracing else 0
        for replica_id, (indices, group) in groups.items():
            service = self.services[replica_id]
            first = group[0]
            if isinstance(first, str):
                query, direct = first, False
            else:
                query, direct = first.query, first.direct
            trace_id = make_trace_id(sequence, query) if tracing else None
            one = len(group) == 1
            # The root's attributes, written once into the dict the root
            # keeps (the ones learnt from the dispatch are added below).
            attributes: dict[str, AttrValue] = (
                {"query": query, "mode": "direct" if direct else "cached"}
                if one else {})
            if shed:
                attributes["shed"] = True
            if replica_id in failed_over:
                attributes["failover"] = True
            held.value = arrival
            with tracer.trace(trace_id, "cluster.request", held_now,
                              attributes, event_log) as root:
                start = max(arrival, service.clock.now())
                service.clock.sleep_until(start)
                if trace_id is not None and start > arrival:
                    # Recorded only when there is shard backlog: a zero-width
                    # queueing span would only cost hot-path time (the stage
                    # breakdown reports queueing 0).
                    tracer.record("cluster.queueing", arrival, start,
                                  replica=replica_id)
                # The replica's stage spans hang off the root itself.
                with service.tracer.attach(root):
                    served = service.serve_batch(group, allow_enqueue=not shed)
                held.value = service.clock.now()
                # One pass stamps every result, observes the histogram once
                # per run of equal latencies, and finds the dispatch's
                # slowest answer and whether any answer was not fresh.
                wait = start - arrival
                slowest, flagged = 0.0, False
                run_value, run = 0.0, 0
                for index, result in zip(indices, served):
                    end_to_end = wait + result.latency_s
                    result.latency_s = end_to_end
                    result.trace_id = trace_id
                    result.batch_index = index
                    results[index] = result
                    if end_to_end > slowest:
                        slowest = end_to_end
                    if result.outcome is not fresh:
                        flagged = True
                    if end_to_end != run_value:
                        if run:
                            histogram.observe(run_value, trace_id, run)
                        run_value, run = end_to_end, 0
                    run += 1
                histogram.observe(run_value, trace_id, run)
                attributes["replica"] = replica_id
                if one:
                    attributes["outcome"] = _OUTCOME_VALUES[served[0].outcome]
                    attributes["source"] = served[0].source
                else:
                    attributes["items"] = len(group)
                self._maybe_flush(replica_id)
            if trace_id is not None and self.sampler is not None:
                self.sampler.finish(trace_id, held.value, slowest, flagged)
        return results

    # ------------------------------------------------------------------
    # Batching
    # ------------------------------------------------------------------
    def _maybe_flush(self, replica_id: str) -> None:
        """Flush ``replica_id``'s pending queue when it is full ("size" —
        the batch is worth the generator call) or when its oldest entry
        has waited ``max_batch_delay_s`` since it was enqueued
        ("deadline" — bounded staleness even on a cold shard); the one
        place a flush is decided, read from the queue's own enqueue
        times.  An empty queue, the common case, is one read."""
        service = self.services[replica_id]
        cache, config = service.cache, self.config
        oldest = cache.oldest_pending_at
        if oldest is None:
            return
        if cache.pending_size >= config.max_batch_size:
            trigger = "size"
        elif service.clock.now() - oldest >= config.max_batch_delay_s:
            trigger = "deadline"
        else:
            return
        self._flush_replica(replica_id, trigger)

    def _flush_replica(self, replica_id: str, trigger: str) -> int:
        service = self.services[replica_id]
        with self.tracer.span("cluster.flush", replica=replica_id,
                              trigger=trigger) as span:
            # When the flush fires inside a traced dispatch, the flush span
            # carries the dispatch's trace id, and the replica's batch spans
            # hang under it so the whole generator/retry subtree stays in
            # the dispatch's trace; outside one, attaching it tags nothing.
            with service.tracer.attach(span):
                installed = service.run_batch(
                    max_queries=self.config.max_batch_size)
            span.set_attribute("installed", installed)
        flushes = self._flushes_by_trigger.get(trigger)
        if flushes is None:
            flushes = self._flushes_by_trigger[trigger] = self._flushes.labels(
                cluster=self.config.name, trigger=trigger)
        flushes.inc()
        if self.event_log is not None:
            self.event_log.emit(
                "cluster.flush", ts=service.clock.now(),
                component=self.config.name, replica=replica_id,
                trigger=trigger, installed=installed,
            )
        return installed

    def flush(self) -> int:
        """Force-flush every replica's pending queue (end of drive)."""
        installed = 0
        for replica_id, service in self.services.items():
            pending = service.cache.pending_size
            while pending > 0:
                installed += self._flush_replica(replica_id, "forced")
                if service.cache.pending_size >= pending:
                    break  # the breaker refused the run; don't spin
                pending = service.cache.pending_size
        return installed

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def preload_yearly(self, entries: dict[str, str]) -> None:
        """Load yearly cache entries onto each key's home replica."""
        shards: dict[str, dict[str, str]] = {}
        for query, response in entries.items():
            shards.setdefault(self.router.route(query), {})[query] = response
        for replica_id, shard in shards.items():
            self.services[replica_id].cache.preload_yearly(shard)

    def daily_refresh(self, refresh_stale: bool = True) -> dict[str, dict[str, int]]:
        """Run every replica's daily refresh, then barrier all clocks.

        Each replica sleeps to its own next day boundary inside
        ``daily_refresh``; the barrier then advances every clock
        (replicas *and* the arrival clock) to the cluster-wide maximum
        so the next day starts synchronized.
        """
        reports = {replica_id: service.daily_refresh(refresh_stale)
                   for replica_id, service in self.services.items()}
        horizon = max(self.clock.now(),
                      *(s.clock.now() for s in self.services.values()))
        self.clock.sleep_until(horizon)
        for service in self.services.values():
            service.clock.sleep_until(horizon)
        return reports

    def drain(self, replica_id: str) -> None:
        """Take a replica out of rotation (its keys move to ring neighbors)."""
        self.router.drain(replica_id)

    def restore(self, replica_id: str) -> None:
        """Return a drained replica to rotation."""
        self.router.restore(replica_id)

    # ------------------------------------------------------------------
    # Snapshot deployment
    # ------------------------------------------------------------------
    def swap_snapshot(self, replica_id: str, snapshot) -> int:
        """Swap one replica onto a knowledge snapshot (cache warm +
        generator repoint in one atomic step); the blue/green rollout's
        per-replica move.  Returns invalidated cache entries."""
        return self.services[replica_id].swap_snapshot(snapshot)

    def install_snapshot(self, snapshot) -> int:
        """Swap every replica onto ``snapshot`` at once — the initial
        install, or the naive restart-style deploy the rollout bench
        compares against."""
        return sum(self.swap_snapshot(replica_id, snapshot)
                   for replica_id in self.router.replicas)

    def snapshot_versions(self) -> dict[str, str | None]:
        """Authoritative snapshot version per replica."""
        return {replica_id: service.snapshot_version
                for replica_id, service in self.services.items()}

    def redrive_dead_letters(self) -> int:
        """Immediately re-drive every replica's dead-letter queue."""
        return sum(service.redrive_dead_letters()
                   for service in self.services.values())

    # ------------------------------------------------------------------
    # Readouts
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Cluster-wide pending-miss count (the admission-control input)."""
        return sum([s.cache.pending_size for s in self.services.values()])

    @property
    def busy_horizon_s(self) -> float:
        """Simulated seconds until the busiest replica goes idle — the
        cluster's makespan, the denominator of its throughput."""
        horizon = max(s.clock.now() for s in self.services.values())
        return max(horizon, self.clock.now()) - self._started_at

    @property
    def requests(self) -> int:
        return sum(s.metrics.requests for s in self.services.values())

    @property
    def availability(self) -> float:
        """Fraction of requests answered with knowledge, cluster-wide."""
        total = self.requests
        if total == 0:
            return 1.0
        with_knowledge = sum(
            s.metrics.served_fresh + s.metrics.degraded_serves
            for s in self.services.values()
        )
        return with_knowledge / total

    def percentile(self, q: float) -> float:
        """Latency percentile over end-to-end (queueing-inclusive) times."""
        return self._latency.percentile(q)

    def latency_exemplars(self) -> list[tuple[float, str, float]]:
        """``(bucket bound, trace_id, latency)`` per occupied latency bucket."""
        return self._latency.exemplars()

    def metrics_totals(self) -> dict[str, int]:
        """Cluster-wide request accounting (sums over replicas)."""
        totals = {"requests": 0, "served_fresh": 0, "degraded_serves": 0,
                  "fallbacks": 0}
        for service in self.services.values():
            totals["requests"] += service.metrics.requests
            totals["served_fresh"] += service.metrics.served_fresh
            totals["degraded_serves"] += service.metrics.degraded_serves
            totals["fallbacks"] += service.metrics.fallbacks
        totals["handled"] = int(self._requests.value)
        totals["failovers"] = int(self._failovers.value)
        totals["shed"] = int(self._shed.value)
        return totals
