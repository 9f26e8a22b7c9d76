"""Deterministic consistent-hash routing for the serving cluster.

Sharding traffic across replicas must satisfy three contracts the
cluster (and its property tests) rely on:

* **determinism** — the same ``(replica_ids, vnodes, seed)`` always
  yields the same key→replica mapping.  Points come from BLAKE2b
  digests, never from Python's salted ``hash()``;
* **stability under drain** — removing one replica remaps only the keys
  that replica owned; every other key keeps its assignment (the classic
  consistent-hashing property, via virtual nodes on a shared ring);
* **failover order** — :meth:`ConsistentHashRouter.preference` yields
  the distinct replicas in ring order from the key's point, so "the
  next replica on the ring" is a well-defined failover target when a
  replica's circuit breaker is open.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Sequence

__all__ = ["ConsistentHashRouter"]

#: Keys whose ring order one router remembers; the memo is emptied when
#: it reaches this many (a few MB at most).
_MEMO_KEYS = 1 << 16


def _point(data: str) -> int:
    """64-bit ring position for a string (stable across processes)."""
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _successor_table(ring: Sequence[str]) -> list[tuple[str, ...]]:
    """For each ring index, the distinct replicas in ring order from it.

    One backward pass: the order at ``i`` is the replica at ``i``
    followed by the order at ``i + 1`` without it.  The pass runs over
    two turns of the ring so the first turn seeds the wrap-around; the
    extra last entry (a copy of entry 0) answers keys that hash past the
    last point.  Equal tuples are shared, so the table holds one tuple
    per distinct order, not one per point.
    """
    size = len(ring)
    table: list[tuple[str, ...]] = [()] * (size + 1)
    interned: dict[tuple[str, ...], tuple[str, ...]] = {}
    order: tuple[str, ...] = ()
    for index in range(2 * size - 1, -1, -1):
        replica = ring[index % size]
        if not order or order[0] != replica:
            order = (replica, *(r for r in order if r != replica))
            order = interned.setdefault(order, order)
        if index < size:
            table[index] = order
    table[size] = table[0]
    return table


class ConsistentHashRouter:
    """Key → replica assignment on a virtual-node hash ring.

    Each replica owns ``vnodes`` points on a 64-bit ring; a key routes
    to the first active replica at or after its own point.  ``seed``
    perturbs every point, so two routers with different seeds shard the
    same keys differently (and two with the same seed identically).

    Drained replicas stay on the ring but are skipped during lookup,
    which is what makes draining minimally disruptive: only the drained
    replica's keys move (each to the next replica on the ring), and
    :meth:`restore` returns exactly those keys home.
    """

    def __init__(self, replica_ids: Sequence[str], vnodes: int = 64, seed: int = 0):
        replicas = list(replica_ids)
        if not replicas:
            raise ValueError("router needs at least one replica")
        if len(set(replicas)) != len(replicas):
            raise ValueError(f"duplicate replica ids: {replicas}")
        if vnodes < 1:
            raise ValueError("vnodes must be at least 1")
        self.vnodes = vnodes
        self.seed = seed
        self._replicas = replicas
        self._drained: set[str] = set()
        ring = sorted(
            (_point(f"{seed}|node|{replica}|{vnode}"), replica)
            for replica in replicas for vnode in range(vnodes)
        )
        self._points = [point for point, _ in ring]
        self._orders = _successor_table([replica for _, replica in ring])
        #: key → its successor-table entry, filled by :meth:`_order`.
        self._order_of: dict[str, tuple[str, ...]] = {}
        #: The active replica while it is the only one, else None.
        self._sole: str | None = None
        self._refresh_sole()
        self._event_log = None
        self._event_clock = None
        self._event_component = "router"

    # ------------------------------------------------------------------
    def attach_event_log(self, event_log, clock, component: str = "router") -> None:
        """Publish drain/restore transitions into a structured
        :class:`~repro.obs.events.EventLog`.

        The router itself is clockless, so ``clock`` is a zero-argument
        callable returning simulated seconds (the cluster passes its
        arrival clock's ``now``).
        """
        self._event_log = event_log
        self._event_clock = clock
        self._event_component = component

    def _emit(self, kind: str, replica: str) -> None:
        if self._event_log is not None:
            self._event_log.emit(
                kind, ts=self._event_clock(), component=self._event_component,
                replica=replica, active=len(self.active),
            )

    # ------------------------------------------------------------------
    @property
    def replicas(self) -> list[str]:
        """All replicas, drained or not, in construction order."""
        return list(self._replicas)

    @property
    def active(self) -> list[str]:
        """Replicas currently eligible for routing."""
        return [r for r in self._replicas if r not in self._drained]

    def is_drained(self, replica: str) -> bool:
        self._require(replica)
        return replica in self._drained

    def drain(self, replica: str) -> None:
        """Take a replica out of rotation; its keys move to their next
        ring neighbor, all other assignments are untouched."""
        self._require(replica)
        if replica in self._drained:
            # Double-drain is a no-op, not an error — rollout loops may
            # retry a step — but it is *reported* so operators can see
            # the redundant call in the event stream.
            self._emit("router.drain_noop", replica)
            return
        if len(self._drained) + 1 >= len(self._replicas):
            raise ValueError("cannot drain the last active replica")
        self._drained.add(replica)
        self._refresh_sole()
        self._emit("router.drain", replica)

    def restore(self, replica: str) -> None:
        """Return a drained replica to rotation (its old keys come back)."""
        self._require(replica)
        if replica not in self._drained:
            # Restoring a never-drained (or already-restored) replica is
            # a warned no-op for the same reason double-drain is.
            self._emit("router.restore_noop", replica)
            return
        self._drained.discard(replica)
        self._refresh_sole()
        self._emit("router.restore", replica)

    def _refresh_sole(self) -> None:
        active = self.active
        self._sole = active[0] if len(active) == 1 else None

    def _require(self, replica: str) -> None:
        if replica not in self._replicas:
            raise KeyError(f"unknown replica {replica!r}")

    # ------------------------------------------------------------------
    def preference(self, key: str) -> list[str]:
        """Distinct active replicas in ring order from ``key``'s point.

        The first entry is the key's owner; later entries are the
        failover order the cluster walks when breakers are open.
        """
        order = self._order(key)
        drained = self._drained
        if not drained:
            return list(order)
        return [r for r in order if r not in drained]

    def route(self, key: str) -> str:
        """The active replica that owns ``key``.

        With one active replica every key routes to it, so the answer
        costs one attribute read: no hash, and no memo entry.
        """
        sole = self._sole
        if sole is not None:
            return sole
        order = self._order(key)
        drained = self._drained
        if not drained:
            return order[0]
        return next(r for r in order if r not in drained)

    def _order(self, key: str) -> tuple[str, ...]:
        """Every replica, drained or not, in ring order from ``key``'s
        point: one hash, one bisect, one index into the successor table
        the first time ``key`` is asked, one dict read after that.

        The active replicas' order is this tuple minus the drained ones
        (the first occurrences of a subset keep their relative order), so
        drain moves only the drained replica's keys, restore brings
        exactly those back, and the failover order never reshuffles.

        Because the entry lists drained replicas too, drain and restore
        never invalidate the memo; it is only emptied when it holds
        ``_MEMO_KEYS`` keys.
        """
        memo = self._order_of
        order = memo.get(key)
        if order is None:
            if len(memo) >= _MEMO_KEYS:
                memo.clear()
            order = memo[key] = self._orders[
                bisect_left(self._points, _point(f"{self.seed}|key|{key}"))]
        return order
