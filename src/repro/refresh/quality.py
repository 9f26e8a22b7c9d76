"""Snapshot quality gate: health + drift checks on the rollout path.

:mod:`repro.obs.kg_health` and :mod:`repro.obs.drift` are pure
observation over plain column data; this module is the adapter that
walks actual :class:`~repro.refresh.snapshot.KgSnapshot` objects and
their :class:`~repro.refresh.snapshot.SnapshotStore` lineage:

* :func:`snapshot_health` computes the
  :class:`~repro.obs.kg_health.KgHealthReport` of the columns the
  snapshot already holds;
* :func:`edge_delta` counts the ``(head, relation, tail)`` identities
  a child added to and removed from its parent, so added/removed-edge
  rates are exact, not inferred from counts;
* :class:`SnapshotQualityGate` ties it together: given a candidate
  snapshot it assesses health, diffs against the registered parent,
  runs the drift rules, and returns a :class:`GateDecision` the
  :class:`~repro.refresh.rollout.RolloutController` consults before
  promoting; a controller cannot be constructed without one.

Assessments are cached per version (snapshots are immutable and a
version hashes every column byte, scores and domains included, so a
version's health can never change), which keeps the gate free on every
rollout tick after the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.kg import pack_edge_keys
from repro.obs.drift import (DriftReport, DriftRule, default_drift_rules,
                             evaluate_drift)
from repro.obs.kg_health import KgHealthReport, compute_kg_health
from repro.refresh.snapshot import KgSnapshot, SnapshotStore

__all__ = [
    "snapshot_health",
    "edge_delta",
    "GateDecision",
    "SnapshotQualityGate",
]


def snapshot_health(snapshot: KgSnapshot) -> KgHealthReport:
    """A snapshot's :class:`KgHealthReport`: one vectorized pass over
    its frozen columns."""
    return compute_kg_health(
        snapshot.columns,
        version=snapshot.version,
        parent=snapshot.parent,
        entries=len(snapshot),
    )


def _onto(table: tuple[str, ...], other: tuple[str, ...]
          ) -> tuple[np.ndarray, int]:
    """``other``'s ids renumbered by string onto ``table``'s (strings
    ``table`` lacks get the ids after it), and the size of the union."""
    ids = dict(zip(table, range(len(table))))
    for value in other:
        ids.setdefault(value, len(ids))
    return (np.fromiter(map(ids.__getitem__, other), dtype=np.int64,
                        count=len(other)), len(ids))


def _extends(old, new) -> bool:
    """Whether ``new`` is ``old`` with rows appended: its node and
    relation tables start with ``old``'s and its first rows carry
    ``old``'s ``(head, relation, tail)`` ids — what a child built as
    ``from_columns(parent.columns)`` plus ``extend`` always is."""
    n = len(old["head"])
    return (new["nodes"][:len(old["nodes"])] == old["nodes"]
            and new["relations"][:len(old["relations"])] == old["relations"]
            and all(np.array_equal(new[name][:n], old[name])
                    for name in ("head", "relation", "tail")))


def edge_delta(parent: KgSnapshot, child: KgSnapshot) -> tuple[int, int]:
    """``(added, removed)``: edge identities ``(head, relation, tail)``
    the child has and the parent lacks, and the reverse.

    Support and scores are deliberately excluded — a re-scored or
    re-merged edge is still the *same* knowledge, and counting it as
    removed+added would double-charge the drift rates.  A child that
    only appended rows to its parent (a refresh's usual shape) is
    recognised by two table-prefix compares and three column compares
    over the parent's rows, and its delta is its appended rows: keys
    are unique on both sides.  Any other child's ids are renumbered onto
    the parent's tables by string, each edge is packed into one integer
    and the two (duplicate-free) key arrays are intersected once.
    """
    old, new = parent.columns, child.columns
    if _extends(old, new):
        return len(new["head"]) - len(old["head"]), 0
    node_of, nodes = _onto(old["nodes"], new["nodes"])
    relation_of, relations = _onto(old["relations"], new["relations"])
    old_keys = pack_edge_keys(old["head"], old["relation"], old["tail"],
                              nodes=nodes, relations=relations)
    new_keys = pack_edge_keys(node_of[new["head"]],
                              relation_of[new["relation"]],
                              node_of[new["tail"]],
                              nodes=nodes, relations=relations)
    shared = np.intersect1d(old_keys, new_keys, assume_unique=True).size
    return new_keys.size - shared, old_keys.size - shared


@dataclass(frozen=True)
class GateDecision:
    """One promote/block verdict for a candidate snapshot."""

    version: str
    parent_version: str | None
    promote: bool
    #: Human-readable breach descriptions, empty iff promoting.
    breaches: tuple[str, ...]
    health: KgHealthReport
    parent_health: KgHealthReport | None
    drift: DriftReport | None

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "parent_version": self.parent_version,
            "promote": self.promote,
            "breaches": list(self.breaches),
        }


class SnapshotQualityGate:
    """Assess candidate snapshots against their lineage before rollout.

    A root snapshot (no parent, or parent unknown to the store) has no
    baseline to drift from and promotes on health alone; a child is
    additionally scored by :func:`repro.obs.drift.evaluate_drift`
    against its registered parent.
    """

    def __init__(self, store: SnapshotStore,
                 rules: Sequence[DriftRule] | None = None):
        self._store = store
        self._rules = tuple(rules) if rules is not None else default_drift_rules()
        self._health: dict[str, KgHealthReport] = {}
        self._decisions: dict[str, GateDecision] = {}

    def health_of(self, snapshot: KgSnapshot) -> KgHealthReport:
        """The (cached) health report for a snapshot."""
        report = self._health.get(snapshot.version)
        if report is None:
            report = snapshot_health(snapshot)
            self._health[snapshot.version] = report
        return report

    def assess(self, candidate: KgSnapshot) -> GateDecision:
        """Promote-or-block verdict for ``candidate``; cached by version."""
        cached = self._decisions.get(candidate.version)
        if cached is not None:
            return cached
        health = self.health_of(candidate)
        parent = (self._store.get(candidate.parent)
                  if candidate.parent is not None
                  and candidate.parent in self._store else None)
        if parent is None:
            decision = GateDecision(
                version=candidate.version,
                parent_version=candidate.parent,
                promote=True,
                breaches=(),
                health=health,
                parent_health=None,
                drift=None,
            )
        else:
            parent_health = self.health_of(parent)
            added_edges, removed_edges = edge_delta(parent, candidate)
            shared_entries = len(candidate.entries.keys()
                                 & parent.entries.keys())
            drift = evaluate_drift(
                parent_health,
                health,
                added_edges=added_edges,
                removed_edges=removed_edges,
                entries_added=len(candidate.entries) - shared_entries,
                entries_removed=len(parent.entries) - shared_entries,
                rules=self._rules,
            )
            decision = GateDecision(
                version=candidate.version,
                parent_version=candidate.parent,
                promote=drift.ok,
                breaches=tuple(
                    f"{b.rule}: {b.metric}={b.value:.4f} > {b.threshold:.4f}"
                    for b in drift.breaches
                ),
                health=health,
                parent_health=parent_health,
                drift=drift,
            )
        self._decisions[candidate.version] = decision
        return decision
