"""Property-based invariants of the two-layer cache."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import AsyncCacheStore, SimClock
from repro.serving.clock import SECONDS_PER_DAY

_queries = st.sampled_from([f"q{i}" for i in range(12)])


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["fetch", "batch", "day", "preload"]))
        if kind in ("fetch", "preload"):
            ops.append((kind, draw(_queries)))
        else:
            ops.append((kind, None))
    return ops


@given(operations())
@settings(max_examples=80, deadline=None)
def test_cache_invariants_under_arbitrary_operations(ops):
    clock = SimClock()
    cache = AsyncCacheStore(clock)
    lookups = 0
    for kind, query in ops:
        if kind == "fetch":
            cache.fetch_many([query])
            lookups += 1
        elif kind == "preload":
            cache.preload_yearly({query: "answer"})
        elif kind == "batch":
            cache.apply_batch({q: "answer" for q in cache.pending_queries()})
        elif kind == "day":
            clock.advance_days(1)
    stats = cache.stats
    # Accounting: every lookup is exactly one of hit or miss.
    assert stats.layer1_hits + stats.layer2_hits + stats.misses == lookups
    assert 0.0 <= stats.hit_rate <= 1.0
    # A batched query is no longer pending.
    cache.apply_batch({q: "a" for q in cache.pending_queries()})
    assert cache.pending_queries() == []


@given(st.lists(_queries, min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_second_lookup_after_batch_always_hits(queries):
    cache = AsyncCacheStore(SimClock())
    for query in queries:
        cache.fetch_many([query])
    cache.apply_batch({q: "answer" for q in cache.pending_queries()})
    for query in queries:
        assert cache.fetch_many([query]) == [("answer", "daily")]


# -- pending queue: insertion order is oldest-first -------------------------
#
# The store used to find its eviction victim with
# ``min(pending, key=pending.get)`` and its flush order with
# ``sorted(pending, key=pending.get)`` — O(n) and O(n log n) over up to
# 50 000 entries per enqueue / per flush.  Both are the dict's own order,
# because a query is only inserted when absent and the clock never goes back.


def _oldest_first_model(cache: AsyncCacheStore) -> list[str]:
    return sorted(cache._pending, key=cache._pending.get)


def _eviction_victim_model(cache: AsyncCacheStore) -> str:
    return min(cache._pending, key=cache._pending.get)


def test_pending_order_and_eviction_victim_match_the_scan_forms():
    clock = SimClock()
    cache = AsyncCacheStore(clock, pending_capacity=6, pending_max_age_days=5)
    evicted = []

    def enqueue(query):
        """One miss, a window of one; records what it evicts."""
        full = (cache.pending_size == 6 and query not in cache._pending)
        victim = _eviction_victim_model(cache) if full else None
        cache.fetch_many([query])
        if victim is not None:
            assert victim not in cache._pending
            evicted.append(victim)
        assert cache.pending_queries() == _oldest_first_model(cache)

    for i in range(4):                       # day 0: q0..q3
        enqueue(f"q{i}")
    clock.advance_days(1)                    # day roll
    enqueue("q4")                            # day 1
    enqueue("q1")                            # already pending: keeps its slot
    assert cache.pending_queries() == ["q0", "q1", "q2", "q3", "q4"]
    cache.apply_batch({"q0": "a", "q2": "a"})     # answered from the middle
    cache.drop_pending(["q3"])                    # dead-lettered
    assert cache.pending_queries() == ["q1", "q4"] == _oldest_first_model(cache)
    clock.advance_days(1)                    # day 2: daily layer rolls
    enqueue("q0")                            # re-enqueue: now the *newest*
    enqueue("q3")
    assert cache.pending_queries() == ["q1", "q4", "q0", "q3"]
    enqueue("q5")
    enqueue("q6")                            # at capacity (6)
    assert evicted == []
    enqueue("q7")                            # evicts the day-0 survivor
    enqueue("q8")                            # then the day-1 entry
    clock.advance_days(1)
    enqueue("q9")                            # then the re-enqueued q0
    assert evicted == ["q1", "q4", "q0"]
    assert cache.stats.pending_evictions == 3
    assert cache.pending_queries() == ["q3", "q5", "q6", "q7", "q8", "q9"]


class _OneAtATimeQueue:
    """The pending queue as a miss at a time would build it, in the scan
    forms: each entry keeps its enqueue time and arrival number, the
    eviction victim is the ``min`` and the flush order the ``sorted`` of
    those, an entry goes stale by the day of its enqueue time, and the
    daily layer is tracked only to tell hits from misses."""

    def __init__(self, clock, capacity, max_age_days):
        self.clock, self.capacity, self.max_age = clock, capacity, max_age_days
        self.entries: dict[str, tuple[float, int]] = {}  # query -> (time, arrival)
        self.daily: set[str] = set()
        self.day = clock.day
        self.arrivals = self.evictions = 0
        self.victims: list[str] = []

    def roll(self):
        if self.clock.day != self.day:
            self.daily.clear()
            self.day = self.clock.day
            for query in [q for q, (t, _) in self.entries.items()
                          if self.day - int(t // SECONDS_PER_DAY) > self.max_age]:
                del self.entries[query]
                self.victims.append(query)
                self.evictions += 1

    def fetch(self, queries, enqueue):
        self.roll()
        for query in queries:
            if query in self.daily or query in self.entries or not enqueue:
                continue
            if len(self.entries) >= self.capacity:
                victim = min(self.entries, key=self.entries.get)
                del self.entries[victim]
                self.victims.append(victim)
                self.evictions += 1
            self.arrivals += 1
            self.entries[query] = (self.clock.now(), self.arrivals)

    def apply(self, queries):
        self.roll()
        for query in queries:
            self.entries.pop(query, None)
            self.daily.add(query)

    def order(self):
        return sorted(self.entries, key=self.entries.get)


class _VictimLog(dict):
    """A pending dict that logs what the store evicts (evictions ``del``;
    answers and dead letters ``pop``)."""

    def __init__(self):
        super().__init__()
        self.victims: list[str] = []

    def __delitem__(self, query):
        self.victims.append(query)
        super().__delitem__(query)


@st.composite
def pending_operations(draw):
    kinds = ["one_by_one", "fetch_many", "day", "tick", "batch", "drop"]
    ops = []
    for _ in range(draw(st.integers(1, 50))):
        kind = draw(st.sampled_from(kinds))
        size = 8 if kind == "fetch_many" else 4
        ops.append((kind, draw(st.lists(_queries, min_size=1, max_size=size)),
                    draw(st.booleans()),    # roll the day just before
                    draw(st.booleans())))   # enqueue
    return ops


@given(pending_operations(), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_pending_queue_matches_scan_forms_under_arbitrary_operations(ops, capacity):
    """``fetch_many`` windows of 1..8 queries (shed or not, some right
    after a day roll or a few seconds on) build the queue a miss at a
    time would: same flush order, same victims, same eviction count, same
    enqueue times."""
    clock = SimClock()
    cache = AsyncCacheStore(clock, pending_capacity=capacity,
                            pending_max_age_days=2)
    cache._pending = _VictimLog()
    model = _OneAtATimeQueue(clock, capacity, max_age_days=2)
    for kind, queries, new_day, enqueue in ops:
        if kind == "day":
            clock.advance_days(1)
        elif kind == "tick":
            clock.advance(7.5)
        elif kind == "batch":
            cache.apply_batch({q: "answer" for q in queries})
            model.apply(queries)
        elif kind == "drop":
            cache.drop_pending(queries)
            for query in queries:
                model.entries.pop(query, None)
        else:
            if new_day:
                clock.advance_days(1)
            if kind == "one_by_one":
                for query in queries:
                    cache.fetch_many([query])
                model.fetch(queries, enqueue=True)
            else:
                cache.fetch_many(queries, enqueue=enqueue)
                model.fetch(queries, enqueue)
        assert cache._pending.victims == model.victims
        assert cache.pending_queries() == model.order() == _oldest_first_model(cache)
        assert cache._pending == {q: t for q, (t, _) in model.entries.items()}
        assert cache.stats.pending_evictions == model.evictions
        assert cache.pending_size <= capacity
