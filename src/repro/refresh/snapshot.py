"""Immutable, content-addressed knowledge-graph snapshots.

A snapshot is the unit of knowledge deployment: the knowledge graph a
refresh round produced, frozen in its columnar form, the query →
knowledge serving table derived from it, and a :class:`SnapshotManifest`
naming the content.  Version ids are content-addressed — ``v-<12 hex
chars>`` of a BLAKE2b digest over the parent version, the sorted serving
entries and the :func:`columnar_digest` of every column byte — so two
snapshots that ship the same bytes share a version and any difference
in what ships (an entry, an edge, a score, a domain, provenance, row or
intern order) yields a new one.
That property is what the rollout layer leans on: "replica r1 is on
``v-3f2a...``" is a complete statement about what r1 serves, and every
cache keyed by version (the quality gate's verdicts, the store) is sound.

Snapshots are constructed **only** through :func:`build_snapshot`; the
:class:`KgSnapshot` constructor takes a private token and raises
``TypeError`` without it.  Entries and columns are exposed through
read-only mapping proxies.  The column arrays are the source graph's own
buffers, write-locked in place (:meth:`KnowledgeGraph.frozen_columns`):
the snapshot and the graph share each buffer and neither writes into it
again — the graph copies a frozen column before its next merge and
reallocates on its next append — so a published version can never drift
from the bytes it names, and a refresh holds each column once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Iterable, Mapping

import numpy as np

from repro.core.kg import ARRAY_COLUMNS, STRING_COLUMNS, KnowledgeGraph
from repro.core.triples import KnowledgeTriple

__all__ = [
    "SnapshotManifest",
    "KgSnapshot",
    "SnapshotStore",
    "build_snapshot",
    "columnar_digest",
]

#: Construction capability for :class:`KgSnapshot`; owned by
#: :func:`build_snapshot`.
_BUILDER_TOKEN = object()


@dataclass(frozen=True)
class SnapshotManifest:
    """Identity and lineage of one snapshot.

    ``version`` is ``v-`` + 12 hex chars of a digest over ``parent``,
    the sorted entries and ``columnar_digest``; ``parent`` is the
    version this snapshot was refreshed from (None for a root snapshot);
    ``note`` is free-form operator context (never hashed — annotating a
    snapshot does not re-version it).
    """

    version: str
    parent: str | None
    #: BLAKE2b digest of the snapshot's columnar arrays (see
    #: :func:`columnar_digest`): the part of the version that names the
    #: knowledge graph.
    columnar_digest: str
    entry_count: int
    triple_count: int
    note: str = ""


class KgSnapshot:
    """One immutable knowledge deployment unit.

    ``entries`` maps serving queries to knowledge text (what the cache
    warms from and the snapshot generator answers with); ``columns`` is
    the backing KG in the form :meth:`KnowledgeGraph.columns` returns.
    Both views are read-only.
    """

    __slots__ = ("manifest", "_entries", "_columns")

    def __init__(self, manifest: SnapshotManifest,
                 entries: Mapping[str, str],
                 columns: Mapping[str, Any],
                 token: object = None):
        if token is not _BUILDER_TOKEN:
            raise TypeError(
                "KgSnapshot must be constructed via "
                "repro.refresh.build_snapshot(); direct construction would "
                "bypass content addressing"
            )
        self.manifest = manifest
        self._entries = MappingProxyType(dict(entries))
        self._columns = columns

    @property
    def version(self) -> str:
        return self.manifest.version

    @property
    def parent(self) -> str | None:
        return self.manifest.parent

    @property
    def entries(self) -> MappingProxyType[str, str]:
        """Read-only query → knowledge serving table."""
        return self._entries

    @property
    def columns(self) -> Mapping[str, Any]:
        """Read-only columnar KG: write-locked arrays, the intern tables
        and the flat provenance as tuples.  Turn it back into a graph
        with :meth:`KnowledgeGraph.from_columns`."""
        return self._columns

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (f"KgSnapshot({self.version}, parent={self.parent}, "
                f"{len(self._entries)} entries, "
                f"{self.manifest.triple_count} triples)")


def _columns_digest(columns: Mapping[str, Any]) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for name in ARRAY_COLUMNS:
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(columns[name]))
    for name in STRING_COLUMNS:
        digest.update(name.encode("utf-8"))
        digest.update("\x00".join(columns[name]).encode("utf-8"))
    return digest.hexdigest()


def columnar_digest(graph: KnowledgeGraph) -> str:
    """BLAKE2b digest of a :class:`~repro.core.kg.KnowledgeGraph`'s
    columnar arrays — the content address of the *physical* columns.

    Hashes every array column's raw bytes and every string column's
    text under the names :mod:`repro.core.kg` declares, so any bit
    difference in what a columnar archive stores yields a different
    digest.  Pins a snapshot manifest, and through it the version, to
    the columns it shipped with.
    """
    return _columns_digest(graph.columns())


def build_snapshot(
    entries: Mapping[str, str],
    triples: Iterable[KnowledgeTriple] = (),
    parent: KgSnapshot | None = None,
    note: str = "",
    graph: KnowledgeGraph | None = None,
) -> KgSnapshot:
    """The sole constructor of :class:`KgSnapshot`.

    The knowledge comes either as ``triples``, which are merged into a
    private graph, or as the ``graph`` that already holds them — never
    both.  The snapshot keeps that graph's column buffers, frozen in
    place rather than copied (:meth:`KnowledgeGraph.frozen_columns`; the
    graph copies a frozen column before it writes into it again), behind
    a read-only mapping.  The :func:`columnar_digest`, the version id
    derived from it and ``triple_count`` are all read off those merged
    columns, so two inputs that merge to the same graph are the same
    snapshot.
    ``parent`` links lineage: the rollout controller rolls back to
    ``snapshot.parent`` by version.
    """
    if graph is None:
        graph = KnowledgeGraph()
        graph.extend(triples)
    elif triples:
        raise ValueError("build_snapshot takes triples or graph=, not both")
    columns = MappingProxyType(graph.frozen_columns())
    parent_version = parent.version if parent is not None else None
    columns_digest = _columns_digest(columns)
    identity = hashlib.blake2b(json.dumps(
        {"parent": parent_version, "entries": sorted(entries.items()),
         "columns": columns_digest},
        sort_keys=True, separators=(",", ":")).encode("utf-8"), digest_size=16)
    manifest = SnapshotManifest(
        version=f"v-{identity.hexdigest()[:12]}",
        parent=parent_version,
        columnar_digest=columns_digest,
        entry_count=len(entries),
        triple_count=len(columns["head"]),
        note=note,
    )
    return KgSnapshot(manifest, entries, columns, token=_BUILDER_TOKEN)


class SnapshotStore:
    """Version → snapshot registry with parent lineage.

    The rollout controller resolves rollback targets here; the CLI uses
    it to check served text against *every* known version when hunting
    mixed-version serving.
    """

    def __init__(self):
        self._snapshots: dict[str, KgSnapshot] = {}

    def add(self, snapshot: KgSnapshot) -> KgSnapshot:
        """Register a snapshot; re-adding the same version is a no-op
        (content addressing makes it literally the same bytes)."""
        existing = self._snapshots.get(snapshot.version)
        if existing is not None:
            return existing
        if snapshot.parent is not None and snapshot.parent not in self._snapshots:
            raise KeyError(
                f"parent version {snapshot.parent!r} of {snapshot.version!r} "
                "is not in the store; add lineage oldest-first"
            )
        self._snapshots[snapshot.version] = snapshot
        return snapshot

    def get(self, version: str) -> KgSnapshot:
        try:
            return self._snapshots[version]
        except KeyError:
            raise KeyError(f"unknown snapshot version {version!r}") from None

    def __contains__(self, version: str) -> bool:
        return version in self._snapshots

    def __len__(self) -> int:
        return len(self._snapshots)

    def snapshots(self) -> list[KgSnapshot]:
        return list(self._snapshots.values())
