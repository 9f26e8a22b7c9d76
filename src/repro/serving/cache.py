"""Two-layer asynchronous cache store (§3.5.1).

Layer 1 is pre-loaded with the year's frequent searches; layer 2 absorbs
the day's traffic via batch processing: a miss enqueues the query and the
next batch run computes its response and populates the cache.  This is
exactly the paper's trade — most traffic answered at cache latency, cold
queries answered on the *next* request after a batch cycle — and it makes
hit rate, latency and staleness measurable quantities.

Reads come in windows: :meth:`AsyncCacheStore.fetch_many` is the one read
entrypoint, and a single request is a window of one.  The store opens no
spans; the serving stage span after a read records which layer answered.
"""

from __future__ import annotations

from collections import Counter
from types import MappingProxyType
from typing import Sequence

from repro.obs.metrics import MetricsRegistry, counter_attribute
from repro.serving.clock import SECONDS_PER_DAY, SimClock

__all__ = ["CacheStats", "AsyncCacheStore"]

PROMOTE_MIN_REQUESTS = 10

#: attribute name → (store label value for ``outcome``) on the shared
#: ``cache_requests_total`` family; evictions get their own counter.
_OUTCOMES = {
    "layer1_hits": "layer1_hit",
    "layer2_hits": "layer2_hit",
    "misses": "miss",
}


class CacheStats:
    """Hit/miss accounting for one cache store, registry-backed.

    Attribute reads keep the pre-observability API and writes go
    through :meth:`add`; the same counts surface through the registry
    as ``cache_requests_total{store=...,outcome=...}`` and
    ``cache_pending_evictions_total{store=...}``.
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 store: str = "cache"):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.store = store
        requests = self.registry.counter(
            "cache_requests_total", "cache lookups by layer outcome",
            ("store", "outcome"),
        )
        self._counters = {
            attr: requests.labels(store=store, outcome=outcome)
            for attr, outcome in _OUTCOMES.items()
        }
        self._counters["pending_evictions"] = self.registry.counter(
            "cache_pending_evictions_total",
            "pending-queue entries evicted (capacity or age)", ("store",),
        ).labels(store=store)

    def add(self, attr: str, amount: int) -> None:
        """Count ``amount`` more of ``attr`` (the one way to increment)."""
        self._counters[attr].inc(amount)

    @property
    def requests(self) -> int:
        return self.layer1_hits + self.layer2_hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return (self.layer1_hits + self.layer2_hits) / self.requests


for _attr in (*_OUTCOMES, "pending_evictions"):
    setattr(CacheStats, _attr, counter_attribute(_attr))


class AsyncCacheStore:
    """Pre-loaded yearly layer + batch-updated daily layer + miss queue."""

    def __init__(
        self,
        clock: SimClock,
        daily_capacity: int = 10_000,
        pending_capacity: int = 50_000,
        pending_max_age_days: int = 3,
        registry: MetricsRegistry | None = None,
        name: str = "cache",
    ):
        self._clock = clock
        self._yearly: dict[str, str] = {}
        self._daily: dict[str, str] = {}
        self._daily_day: int = clock.day
        self._daily_capacity = daily_capacity
        self._pending: dict[str, float] = {}  # query → enqueue time
        #: The version the yearly layer was installed from and every
        #: daily entry was computed under (a version change clears both).
        self._snapshot_version: str | None = None
        self._pending_capacity = pending_capacity
        self._pending_max_age_days = pending_max_age_days
        self.stats = CacheStats(registry=registry, store=name)
        self.request_log: Counter = Counter()

    # ------------------------------------------------------------------
    def preload_yearly(self, entries: dict[str, str]) -> None:
        """Load the year's frequent-search responses (layer 1)."""
        self._yearly.update(entries)

    def fetch_many(self, queries: Sequence[str],
                   enqueue: bool = True) -> list[tuple[str, str] | None]:
        """Serve one window of requests with layer attribution; the one
        read entrypoint.

        Returns one ``(response, layer)`` per query — layer is
        ``"yearly"`` or ``"daily"`` — or None on a miss.  A miss enqueues
        the query for the next batch unless ``enqueue`` is False
        (admission control shedding load skips the queue so shed traffic
        cannot crowd out admitted misses).  One daily-layer roll covers
        the window, and one clock read stamps every miss the window
        enqueues with its enqueue time; per-query accounting (request
        log, pending enqueue with capacity eviction) runs in order in the
        read loop, and the hit/miss counters are tallied over the window
        and incremented once each.

        A query is only ever enqueued when absent and the clock never
        goes back, so the pending dict's insertion order *is*
        oldest-first: its first key is the eviction victim and its key
        order is the flush order.
        """
        if not queries:
            return []
        self._roll_daily_layer()
        request_log, yearly, daily = self.request_log, self._yearly, self._daily
        pending, capacity, now = self._pending, self._pending_capacity, self._clock.now()
        stats = self.stats
        hits: list[tuple[str, str] | None] = []
        layer1 = layer2 = 0
        for query in queries:
            request_log[query] += 1
            if query in yearly:
                layer1 += 1
                hits.append((yearly[query], "yearly"))
            elif query in daily:
                layer2 += 1
                hits.append((daily[query], "daily"))
            else:
                if enqueue and query not in pending:
                    if len(pending) >= capacity:
                        del pending[next(iter(pending))]
                        stats.add("pending_evictions", 1)
                    pending[query] = now
                hits.append(None)
        for attr, tally in (("layer1_hits", layer1), ("layer2_hits", layer2),
                            ("misses", len(queries) - layer1 - layer2)):
            if tally:
                stats.add(attr, tally)
        return hits

    def _roll_daily_layer(self) -> None:
        """Daily layer resets when the simulated day rolls over; pending
        entries nothing ever batch-processed are aged out rather than
        accumulating forever."""
        if self._clock.day != self._daily_day:
            self._daily.clear()
            self._daily_day = self._clock.day
            self._evict_stale_pending()

    def _evict_stale_pending(self) -> None:
        today = self._clock.day
        stale = [
            query for query, enqueued in self._pending.items()
            if today - int(enqueued // SECONDS_PER_DAY) > self._pending_max_age_days
        ]
        for query in stale:
            del self._pending[query]
        self.stats.add("pending_evictions", len(stale))

    def install_snapshot(self, version: str,
                         entries: dict[str, str] | MappingProxyType[str, str]
                         ) -> int:
        """Atomically swap the cache onto a knowledge snapshot.

        Replaces the yearly layer with the snapshot's serving table (the
        warm step of a blue/green swap) and, on a version change, clears
        the daily layer: every daily entry was computed under the
        version being left, and dies with it instead of leaking the old
        knowledge after the swap.  The pending queue survives: in-flight
        misses are still real demand under the new snapshot.  Returns
        the number of entries invalidated (0 when re-installing the
        current version — the operation is idempotent, which lets
        rollout retries re-run it).

        ``entries`` is a ``dict`` or a snapshot's read-only proxy; the
        yearly layer is the one ``copy()`` of it, a private dict that
        promotion writes into without touching the snapshot's table or
        another replica's layer.
        """
        self._roll_daily_layer()
        invalidated = 0
        if version != self._snapshot_version:
            invalidated = len(self._yearly) + len(self._daily)
            self._daily.clear()
        self._yearly = entries.copy()
        self._snapshot_version = version
        return invalidated

    @property
    def snapshot_version(self) -> str | None:
        """The snapshot version the yearly layer was installed from."""
        return self._snapshot_version

    # ------------------------------------------------------------------
    def pending_queries(self) -> list[str]:
        """Queries awaiting batch processing, oldest first."""
        return list(self._pending)

    @property
    def oldest_pending_at(self) -> float | None:
        """Enqueue time of the oldest pending query; None when none is."""
        return next(iter(self._pending.values()), None)

    def apply_batch(self, responses: dict[str, str]) -> int:
        """Install batch-computed responses into the daily layer while it
        has room; returns how many it installed.

        Every answered query leaves the pending queue, installed or not:
        a full daily layer must not send it back to the generator on every
        later batch run (the feature store already holds its answer).
        """
        self._roll_daily_layer()
        installed = 0
        for query, response in responses.items():
            self._pending.pop(query, None)
            if len(self._daily) < self._daily_capacity:
                self._daily[query] = response
                installed += 1
        return installed

    def drop_pending(self, queries: list[str]) -> int:
        """Remove queries from the pending queue (e.g. dead-lettered)."""
        dropped = 0
        for query in queries:
            if self._pending.pop(query, None) is not None:
                dropped += 1
        return dropped

    def promote_frequent(self) -> int:
        """Move daily entries requested at least ``PROMOTE_MIN_REQUESTS``
        times into the yearly layer (traffic adaption)."""
        promoted = 0
        for query, response in list(self._daily.items()):
            if self.request_log[query] >= PROMOTE_MIN_REQUESTS and query not in self._yearly:
                self._yearly[query] = response
                promoted += 1
        return promoted

    @property
    def pending_size(self) -> int:
        return len(self._pending)
