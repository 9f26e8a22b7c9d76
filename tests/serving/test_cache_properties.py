"""Property-based invariants of the two-layer cache."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import AsyncCacheStore, SimClock

_queries = st.sampled_from([f"q{i}" for i in range(12)])


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["lookup", "batch", "day", "preload"]))
        if kind in ("lookup", "preload"):
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
        if kind == "lookup":
            cache.lookup(query)
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
        cache.lookup(query)
    cache.apply_batch({q: "answer" for q in cache.pending_queries()})
    for query in queries:
        assert cache.lookup(query) == "answer"


# -- pending queue: insertion order is oldest-first -------------------------
#
# The store used to find its eviction victim with
# ``min(pending, key=pending.get)`` and its flush order with
# ``sorted(pending, key=pending.get)`` — O(n) and O(n log n) over up to
# 50 000 entries per enqueue / per flush.  Both are the dict's own order,
# because a query is only inserted when absent and the day never goes back.


def _oldest_first_model(cache: AsyncCacheStore) -> list[str]:
    return sorted(cache._pending, key=cache._pending.get)


def _eviction_victim_model(cache: AsyncCacheStore) -> str:
    return min(cache._pending, key=cache._pending.get)


def test_pending_order_and_eviction_victim_match_the_scan_forms():
    clock = SimClock()
    cache = AsyncCacheStore(clock, pending_capacity=6, pending_max_age_days=5)
    evicted = []

    def enqueue(query, batched):
        """One miss through either ingress; records what it evicts."""
        full = (cache.pending_size == 6 and query not in cache._pending)
        victim = _eviction_victim_model(cache) if full else None
        if batched:
            cache.fetch_many([query])
        else:
            cache.lookup(query)
        if victim is not None:
            assert victim not in cache._pending
            evicted.append(victim)
        assert cache.pending_queries() == _oldest_first_model(cache)

    for i in range(4):                       # day 0: q0..q3
        enqueue(f"q{i}", batched=i % 2 == 0)
    clock.advance_days(1)                    # day roll
    enqueue("q4", batched=True)              # day 1
    enqueue("q1", batched=False)             # already pending: keeps its slot
    assert cache.pending_queries() == ["q0", "q1", "q2", "q3", "q4"]
    cache.apply_batch({"q0": "a", "q2": "a"})     # answered from the middle
    cache.drop_pending(["q3"])                    # dead-lettered
    assert cache.pending_queries() == ["q1", "q4"] == _oldest_first_model(cache)
    clock.advance_days(1)                    # day 2: daily layer rolls
    enqueue("q0", batched=False)             # re-enqueue: now the *newest*
    enqueue("q3", batched=True)
    assert cache.pending_queries() == ["q1", "q4", "q0", "q3"]
    enqueue("q5", batched=True)
    enqueue("q6", batched=False)             # at capacity (6)
    assert evicted == []
    enqueue("q7", batched=True)              # evicts the day-0 survivor
    enqueue("q8", batched=False)             # then the day-1 entry
    clock.advance_days(1)
    enqueue("q9", batched=True)              # then the re-enqueued q0
    assert evicted == ["q1", "q4", "q0"]
    assert cache.stats.pending_evictions == 3
    assert cache.pending_queries() == ["q3", "q5", "q6", "q7", "q8", "q9"]


@st.composite
def pending_operations(draw):
    kinds = ["lookup", "fetch_many", "day", "batch", "drop"]
    return [(draw(st.sampled_from(kinds)),
             draw(st.lists(_queries, min_size=1, max_size=4)))
            for _ in range(draw(st.integers(1, 50)))]


@given(pending_operations(), st.integers(1, 6))
@settings(max_examples=120, deadline=None)
def test_pending_queue_matches_scan_forms_under_arbitrary_operations(ops, capacity):
    clock = SimClock()
    cache = AsyncCacheStore(clock, pending_capacity=capacity,
                            pending_max_age_days=2)
    for kind, queries in ops:
        if kind == "day":
            clock.advance_days(1)
        elif kind == "batch":
            cache.apply_batch({q: "answer" for q in queries})
        elif kind == "drop":
            cache.drop_pending(queries)
        else:
            for query in queries:
                # Age eviction runs on the read's day roll, before the
                # capacity check — settle it so the model sees that queue.
                cache._roll_daily_layer()
                full = (query not in cache._daily
                        and query not in cache._pending
                        and cache.pending_size >= capacity)
                victim = _eviction_victim_model(cache) if full else None
                if kind == "lookup":
                    cache.lookup(query)
                else:
                    cache.fetch_many([query])
                if victim is not None:
                    assert victim not in cache._pending
        assert cache.pending_queries() == _oldest_first_model(cache)
        assert cache.pending_size <= capacity
