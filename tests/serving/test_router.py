"""Consistent-hash router: determinism, drain stability, failover order."""

import hashlib
from bisect import bisect_left
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import ConsistentHashRouter
from repro.serving import router as router_module

KEYS = [f"key {i:03d}" for i in range(200)]


def _replica_ids(n: int) -> list[str]:
    return [f"r{i}" for i in range(n)]


# -- construction ----------------------------------------------------------
def test_router_rejects_empty_and_duplicate_replicas():
    with pytest.raises(ValueError):
        ConsistentHashRouter([])
    with pytest.raises(ValueError):
        ConsistentHashRouter(["a", "a"])
    with pytest.raises(ValueError):
        ConsistentHashRouter(["a"], vnodes=0)


def test_router_rejects_unknown_replica():
    router = ConsistentHashRouter(_replica_ids(2))
    with pytest.raises(KeyError):
        router.drain("nope")
    with pytest.raises(KeyError):
        router.is_drained("nope")


def test_cannot_drain_last_active_replica():
    router = ConsistentHashRouter(_replica_ids(2))
    router.drain("r0")
    with pytest.raises(ValueError):
        router.drain("r1")
    router.drain("r0")  # already drained: a no-op, not an error


# -- determinism (property) ------------------------------------------------
@given(
    st.integers(2, 6),
    st.integers(1, 32),
    st.integers(0, 10_000),
    st.lists(st.text(min_size=1, max_size=20), min_size=1, max_size=30),
)
@settings(max_examples=50, deadline=None)
def test_routing_deterministic_for_fixed_seed(n, vnodes, seed, keys):
    a = ConsistentHashRouter(_replica_ids(n), vnodes=vnodes, seed=seed)
    b = ConsistentHashRouter(_replica_ids(n), vnodes=vnodes, seed=seed)
    for key in keys:
        assert a.route(key) == b.route(key)
        assert a.preference(key) == b.preference(key)


def test_different_seeds_shard_differently():
    a = ConsistentHashRouter(_replica_ids(4), seed=0)
    b = ConsistentHashRouter(_replica_ids(4), seed=1)
    assert any(a.route(k) != b.route(k) for k in KEYS)


# -- drain stability (property) --------------------------------------------
@given(st.integers(2, 6), st.integers(0, 5), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_drain_remaps_only_the_drained_replicas_keys(n, victim_index, seed):
    router = ConsistentHashRouter(_replica_ids(n), seed=seed)
    victim = f"r{victim_index % n}"
    before = {key: router.route(key) for key in KEYS}
    router.drain(victim)
    for key, owner in before.items():
        if owner == victim:
            assert router.route(key) != victim
        else:
            assert router.route(key) == owner  # untouched
    router.restore(victim)
    assert {key: router.route(key) for key in KEYS} == before


def test_route_always_lands_on_an_active_replica():
    router = ConsistentHashRouter(_replica_ids(4), seed=3)
    router.drain("r1")
    for key in KEYS:
        assert router.route(key) in router.active
        assert "r1" not in router.preference(key)


# -- failover order --------------------------------------------------------
def test_preference_lists_each_active_replica_once_in_stable_order():
    router = ConsistentHashRouter(_replica_ids(4), seed=5)
    for key in KEYS[:50]:
        order = router.preference(key)
        assert sorted(order) == sorted(router.active)
        assert order[0] == router.route(key)


def test_preference_skips_drained_but_keeps_relative_order():
    router = ConsistentHashRouter(_replica_ids(4), seed=5)
    full = {key: router.preference(key) for key in KEYS[:50]}
    router.drain("r2")
    for key, order in full.items():
        expected = [r for r in order if r != "r2"]
        assert router.preference(key) == expected


# -- idempotent drain/restore (warned no-ops) ------------------------------
def _logged_router(n=3):
    from repro.obs import EventLog

    log = EventLog()
    clock = iter(float(i) for i in range(1000))
    router = ConsistentHashRouter(_replica_ids(n))
    router.attach_event_log(log, lambda: next(clock), component="test")
    return router, log


def test_double_drain_is_a_warned_noop():
    router, log = _logged_router()
    router.drain("r0")
    assignments = {key: router.route(key) for key in KEYS[:50]}
    router.drain("r0")  # rollout loops may retry a step
    assert router.is_drained("r0")
    assert {key: router.route(key) for key in KEYS[:50]} == assignments
    kinds = [e.kind for e in log.events()]
    assert kinds == ["router.drain", "router.drain_noop"]
    assert log.events()[-1].attrs["replica"] == "r0"


def test_restore_of_never_drained_replica_is_a_warned_noop():
    router, log = _logged_router()
    router.restore("r1")
    assert not router.is_drained("r1")
    assert [e.kind for e in log.events()] == ["router.restore_noop"]


def test_double_restore_warns_on_the_second_call():
    router, log = _logged_router()
    router.drain("r2")
    router.restore("r2")
    router.restore("r2")
    kinds = [e.kind for e in log.events()]
    assert kinds == ["router.drain", "router.restore", "router.restore_noop"]


def test_noop_events_still_require_a_known_replica():
    router, log = _logged_router()
    with pytest.raises(KeyError):
        router.restore("ghost")
    assert log.events() == []


# -- reference model: the naive ring walk ----------------------------------
#
# The router answers from a successor table built once per ring.  This is
# the obviously-right form it replaced — hash the key, find its point,
# walk every ring point clockwise collecting unseen active replicas — kept
# here (and only here) as the model the table is diffed against.


def _ref_point(data: str) -> int:
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class NaiveRingWalk:
    def __init__(self, replica_ids, vnodes, seed):
        self.seed = seed
        self.ring = sorted(
            (_ref_point(f"{seed}|node|{replica}|{vnode}"), replica)
            for replica in replica_ids for vnode in range(vnodes))
        self.drained = set()

    def start(self, key):
        return bisect_left([point for point, _ in self.ring],
                           _ref_point(f"{self.seed}|key|{key}"))

    def preference(self, key):
        start, size = self.start(key), len(self.ring)
        order = []
        for step in range(size):
            replica = self.ring[(start + step) % size][1]
            if replica in order or replica in self.drained:
                continue
            order.append(replica)
        return order

    def route(self, key):
        return self.preference(key)[0]


def _assert_matches_model(router, model, keys):
    for key in keys:
        full = model.preference(key)
        assert router.preference(key) == full
        assert router.route(key) == model.route(key) == full[0]


_keys = st.lists(st.text(min_size=0, max_size=12), min_size=1, max_size=8)


@given(st.integers(1, 8), st.integers(1, 16), st.integers(0, 2**32), _keys)
@settings(max_examples=60, deadline=None)
def test_table_matches_ring_walk_for_every_drained_subset(n, vnodes, seed, keys):
    ids = _replica_ids(n)
    router = ConsistentHashRouter(ids, vnodes=vnodes, seed=seed)
    model = NaiveRingWalk(ids, vnodes, seed)
    keys = keys + KEYS[:4]
    # Every drained subset that leaves at least one replica active.
    for size in range(n):
        for drained in combinations(ids, size):
            for replica in drained:
                router.drain(replica)
            model.drained = set(drained)
            _assert_matches_model(router, model, keys)
            for replica in drained:
                router.restore(replica)
    model.drained = set()
    _assert_matches_model(router, model, keys)


@given(
    st.integers(2, 8), st.integers(1, 16), st.integers(0, 2**32), _keys,
    st.lists(st.tuples(st.booleans(), st.integers(0, 7)), max_size=24),
)
@settings(max_examples=60, deadline=None)
def test_table_matches_ring_walk_across_drain_restore_interleavings(
        n, vnodes, seed, keys, steps):
    ids = _replica_ids(n)
    router = ConsistentHashRouter(ids, vnodes=vnodes, seed=seed)
    model = NaiveRingWalk(ids, vnodes, seed)
    for drain, index in steps:
        replica = ids[index % n]
        if drain:
            if len(model.drained | {replica}) == n:
                with pytest.raises(ValueError):
                    router.drain(replica)
                continue
            router.drain(replica)
            model.drained.add(replica)
        else:
            router.restore(replica)
            model.drained.discard(replica)
        assert set(router.active) == set(ids) - model.drained
        _assert_matches_model(router, model, keys)


@given(
    st.integers(2, 8), st.integers(1, 16), st.integers(0, 2**32), _keys,
    st.lists(st.tuples(st.booleans(), st.integers(0, 7)), max_size=24),
)
@settings(max_examples=60, deadline=None)
def test_memoized_orders_match_ring_walk_across_drain_restore_and_clears(
        n, vnodes, seed, keys, steps):
    """A memo of three keys is emptied mid-schedule, and the keys asked
    last before a drain or restore are asked first after it, so a memo
    entry that went stale would be read."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(router_module, "_MEMO_KEYS", 3)
        ids = _replica_ids(n)
        router = ConsistentHashRouter(ids, vnodes=vnodes, seed=seed)
        model = NaiveRingWalk(ids, vnodes, seed)
        keys = keys + KEYS[:4]

        def re_ask():
            for key in keys[::-1] + keys:
                _assert_matches_model(router, model, [key])
                assert len(router._order_of) <= router_module._MEMO_KEYS

        re_ask()
        for drain, index in steps:
            replica = ids[index % n]
            if drain:
                if len(model.drained | {replica}) == n:
                    continue
                router.drain(replica)
                model.drained.add(replica)
            else:
                router.restore(replica)
                model.drained.discard(replica)
            re_ask()


@given(st.integers(1, 4), st.integers(1, 16), st.integers(0, 2**32), _keys,
       st.data())
@settings(max_examples=80, deadline=None)
def test_sole_active_replica_routes_like_the_ring_walk_without_a_memo_entry(
        n, vnodes, seed, keys, data):
    """Drain down to exactly one active replica, restore back out and
    wander on: the sole-replica shortcut in ``route`` must agree with
    ``preference`` and the ring walk at every step, and while it is taken
    a never-asked key leaves no memo entry."""
    ids = _replica_ids(n)
    router = ConsistentHashRouter(ids, vnodes=vnodes, seed=seed)
    model = NaiveRingWalk(ids, vnodes, seed)
    drained = data.draw(st.permutations(ids))[:n - 1]  # one survivor
    schedule = ([(True, replica) for replica in drained]
                + [(False, replica) for replica in data.draw(st.permutations(drained))]
                + [(drain, ids[index % n]) for drain, index in data.draw(
                    st.lists(st.tuples(st.booleans(), st.integers(0, 3)), max_size=8))])

    def check(step):
        fresh = [f"{key}|step {step}" for key in keys]  # never asked before
        sole = len(model.drained) == n - 1
        for key in fresh + keys + KEYS[:4]:
            memo = len(router._order_of)
            routed = router.route(key)
            if sole:
                assert len(router._order_of) == memo
            assert routed == router.preference(key)[0] == model.route(key)

    check(0)
    for step, (drain, replica) in enumerate(schedule, 1):
        if drain:
            if len(model.drained | {replica}) == n:
                with pytest.raises(ValueError):
                    router.drain(replica)
                continue
            router.drain(replica)
            model.drained.add(replica)
        else:
            router.restore(replica)
            model.drained.discard(replica)
        check(step)


def test_key_past_the_last_ring_point_wraps_to_the_first():
    ids = _replica_ids(3)
    router = ConsistentHashRouter(ids, vnodes=2, seed=7)
    model = NaiveRingWalk(ids, 2, 7)
    wrapped = [key for key in KEYS if model.start(key) == len(model.ring)]
    assert wrapped, "no test key hashes past the last ring point"
    for key in wrapped:
        assert router.route(key) == model.ring[0][1]
        _assert_matches_model(router, model, [key])
    router.drain(model.ring[0][1])
    model.drained = {model.ring[0][1]}
    _assert_matches_model(router, model, wrapped)


def test_single_replica_ring_routes_everything_home():
    router = ConsistentHashRouter(["only"], vnodes=1)
    for key in KEYS[:20]:
        assert router.preference(key) == ["only"]
        assert router.route(key) == "only"


def test_successor_table_shares_equal_orders():
    """A 64×64 ring has 4096 points but far fewer distinct orders in
    memory than ``points × replicas`` references."""
    router = ConsistentHashRouter(_replica_ids(8), vnodes=64)
    table = router._orders
    assert len(table) == 8 * 64 + 1
    assert table[-1] is table[0]
    assert all(sorted(order) == sorted(router.replicas) for order in table)
    # Interned: equal orders are one object.
    assert len({id(order) for order in table}) == len(set(table))

