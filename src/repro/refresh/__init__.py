"""Incremental knowledge refresh and zero-downtime rollout.

The offline pipeline (§3.2-§3.4) is one-shot: it produces a knowledge
graph and the serving layer consumes it forever.  Production COSMO
regenerates knowledge continuously, which raises two problems this
package solves:

* **versioned snapshots** — :mod:`repro.refresh.snapshot` freezes each
  refresh round into an immutable, content-addressed
  :class:`KgSnapshot` (frozen KG columns + serving entries + a
  :class:`SnapshotManifest` whose version hashes the parent version,
  the entries and every column byte), so the
  serving layer can name exactly which knowledge it is serving and roll
  between versions atomically;
* **incremental ingestion** — :class:`KnowledgeRefresher` drives
  mini-batches of new behaviors through the existing candidate
  generation → filtering → critic scoring stages and merges the
  survivors into a child snapshot, with a bounded per-round LLM call
  budget (the E-CARE-motivated cost cap);
* **blue/green rollout** — :class:`RolloutController` rolls a child
  snapshot across a :class:`~repro.serving.cluster.CosmoCluster` one
  replica at a time (drain → swap+warm → restore) while watching the
  :class:`~repro.obs.slo.SloEvaluator` burn-rate signals, and rolls the
  cluster back to the parent snapshot automatically when availability
  or latency SLOs start burning mid-rollout;
* **quality gating** — :mod:`repro.refresh.quality` adapts the
  knowledge-plane observability in :mod:`repro.obs.kg_health` /
  :mod:`repro.obs.drift` to snapshots: a
  :class:`SnapshotQualityGate` scores a candidate's health and drift
  against its lineage parent, and the rollout controller blocks or
  rolls back on a negative :class:`GateDecision` — so rollouts are
  guarded on knowledge quality, not just serving SLOs.

Snapshots are constructed only through :func:`build_snapshot` (the
:class:`KgSnapshot` constructor refuses anything else), which is what
makes version ids trustworthy: a version names exactly one
byte-for-byte content.
"""

from repro.refresh.builder import KnowledgeRefresher, RefreshConfig, RefreshReport
from repro.refresh.quality import (
    GateDecision,
    SnapshotQualityGate,
    edge_delta,
    snapshot_health,
)
from repro.refresh.rollout import (
    RolloutController,
    RolloutState,
    SnapshotGenerator,
    mixed_version_violation,
    rollout_slo_specs,
)
from repro.refresh.snapshot import (
    KgSnapshot,
    SnapshotManifest,
    SnapshotStore,
    build_snapshot,
    columnar_digest,
)

__all__ = [
    "SnapshotManifest",
    "KgSnapshot",
    "SnapshotStore",
    "build_snapshot",
    "columnar_digest",
    "RefreshConfig",
    "RefreshReport",
    "KnowledgeRefresher",
    "RolloutState",
    "RolloutController",
    "SnapshotGenerator",
    "rollout_slo_specs",
    "mixed_version_violation",
    "GateDecision",
    "SnapshotQualityGate",
    "edge_delta",
    "snapshot_health",
]
