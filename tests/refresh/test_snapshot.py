"""Content-addressed snapshots: versioning, immutability, lineage store."""

import pytest

from repro.core.kg import KnowledgeGraph
from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple
from repro.refresh import (
    KgSnapshot,
    SnapshotManifest,
    SnapshotQualityGate,
    SnapshotStore,
    build_snapshot,
    columnar_digest,
    snapshot_health,
)


def _triple(tail="camping", support=1):
    return KnowledgeTriple(
        head="camping tent", relation=Relation.USED_FOR_FUNC, tail=tail,
        domain="Sports & Outdoors", behavior="search-buy",
        plausibility=0.9, typicality=0.8, support=support,
    )


# -- content addressing ----------------------------------------------------
def test_same_content_same_version():
    a = build_snapshot({"q": "it is used for camping."}, [_triple()])
    b = build_snapshot({"q": "it is used for camping."}, [_triple()])
    assert a.version == b.version
    assert a.manifest.columnar_digest == b.manifest.columnar_digest


def test_any_content_difference_changes_version():
    # The version names every byte the snapshot ships: entries, edges,
    # support, scores, domain, behavior, provenance and row order.
    def build(*triples):
        return build_snapshot({"q": "answer."}, triples).version

    base = build_snapshot({"q": "answer."})
    entry_diff = build_snapshot({"q": "other answer."})
    one = _triple()
    second = one._replace(tail="hiking")
    versions = [base.version, entry_diff.version, build(one),
                build(_triple(support=2)),
                build(one._replace(plausibility=0.1)),
                build(one._replace(domain="Home")),
                build(one._replace(behavior="co-buy")),
                build(one._replace(head_ids=("p1",))),
                build(one, second), build(second, one)]
    assert len(set(versions)) == len(versions)


def test_parent_version_is_part_of_identity():
    root = build_snapshot({"q": "answer."})
    child = build_snapshot({"q": "answer."}, parent=root)
    assert child.version != root.version
    assert child.parent == root.version


def test_note_is_not_hashed():
    plain = build_snapshot({"q": "answer."})
    noted = build_snapshot({"q": "answer."}, note="annotated after the fact")
    assert plain.version == noted.version
    assert noted.manifest.note == "annotated after the fact"


def test_version_format_and_manifest_counts():
    snap = build_snapshot({"a": "x.", "b": "y."}, [_triple()])
    assert snap.version.startswith("v-")
    assert len(snap.version) == 14  # "v-" + 12 hex chars
    assert snap.manifest.entry_count == 2
    assert snap.manifest.triple_count == 1
    assert len(snap) == 2


def test_identity_is_read_off_the_merged_graph():
    # Two rows that merge into one edge with support 2 are the same
    # knowledge as that edge given once, so they are the same snapshot,
    # and the manifest counts what the health report counts.
    twice = build_snapshot({"q": "answer."}, [_triple(), _triple()])
    merged = build_snapshot({"q": "answer."}, [_triple(support=2)])
    assert twice.version == merged.version
    assert twice.manifest == merged.manifest
    assert twice.manifest.triple_count == snapshot_health(twice).triples == 1


def test_insertion_and_intern_order_enter_the_version():
    edges = [_triple(tail=f"intent {k:02d}", support=1 + k % 3)
             for k in range(12)]
    edges.append(KnowledgeTriple(
        head="intent 03", relation=Relation.X_WANT, tail="camping tent",
        domain="Home", behavior="co-buy", plausibility=0.5, typicality=0.5))
    forward = build_snapshot({"q": "answer."}, edges)
    backward = build_snapshot({"q": "answer."}, edges[::-1])
    # The same knowledge ...
    assert (sorted(map(repr, KnowledgeGraph.from_columns(forward.columns).triples()))
            == sorted(map(repr, KnowledgeGraph.from_columns(backward.columns).triples())))
    # ... in physically different columns, which ship as different versions.
    assert forward.columns["nodes"] != backward.columns["nodes"]
    assert forward.columns["relations"] != backward.columns["relations"]
    assert forward.manifest.columnar_digest != backward.manifest.columnar_digest
    assert forward.version != backward.version
    assert build_snapshot({"q": "answer."}, edges).version == forward.version


def test_what_a_snapshot_ships_rebuilds_its_version():
    # A swap-time check recomputes the version from the parent, the
    # entries and the columns; a tampered entry or column must not pass.
    parent, child, _ = _lineage(
        lambda entries, triples, parent: build_snapshot(entries, triples,
                                                        parent=parent))

    def rebuilt(entries, columns):
        return build_snapshot(entries, parent=parent,
                              graph=KnowledgeGraph.from_columns(columns)).version

    assert rebuilt(child.entries, child.columns) == child.version
    assert rebuilt({**child.entries, "q": "tampered."},
                   child.columns) != child.version
    support = child.columns["support"].copy()
    support[0] += 1
    assert rebuilt(child.entries,
                   {**child.columns, "support": support}) != child.version


def test_entry_order_does_not_enter_the_version():
    one = build_snapshot({"a": "x.", "b": "y."}, [_triple()])
    two = build_snapshot({"b": "y.", "a": "x."}, [_triple()])
    assert one.version == two.version
    assert build_snapshot({"a": "y.", "b": "x."}, [_triple()]).version != one.version


def test_edge_endpoints_are_not_interchangeable():
    # Swapping which string is the head and which the tail, or renaming
    # one endpoint, must be a different version.
    def edge(head, tail):
        return KnowledgeTriple(
            head=head, relation=Relation.USED_WITH, tail=tail, domain="Home",
            behavior="co-buy", plausibility=0.5, typicality=0.5)
    one = build_snapshot({}, [edge("a", "b"), edge("c", "a")])
    two = build_snapshot({}, [edge("b", "a"), edge("c", "a")])
    renamed = build_snapshot({}, [edge("a", "b"), edge("d", "a")])
    assert len({one.version, two.version, renamed.version}) == 3


#: What ``_lineage`` freezes.  The versions were re-pinned twice: when
#: the old logical checksum moved from a sorted JSON of string tuples to
#: sorted string ranks, and when the version came to hash the physical
#: digest below instead of that checksum.  The physical digest was
#: re-pinned once, when provenance became two of the hashed columns
#: (flat ids + lengths) instead of a JSON of nested tuples.
PARENT_VERSION, CHILD_VERSION = "v-0f6afb2d12fb", "v-9a8ac5e7c80d"
CHILD_DIGEST = "c448ff56d3051a1b585620b1643449c1"


def _lineage(build):
    """The same parent/child pair, frozen by ``build(entries, triples,
    parent)``, with the gate's verdict on the child."""
    base = [_triple(tail=f"intent {k:02d}", support=1 + k % 3) for k in range(30)]
    grown = base + [_triple(tail=f"intent {k:02d}") for k in range(30, 36)]
    parent = build({"q": "old."}, base, None)
    child = build({"q": "new.", "r": "added."}, grown, parent)
    store = SnapshotStore()
    store.add(parent)
    store.add(child)
    return parent, child, SnapshotQualityGate(store).assess(child)


def test_triples_and_graph_inputs_build_the_same_snapshots():
    def from_triples(entries, triples, parent):
        return build_snapshot(entries, triples, parent=parent)

    def from_graph(entries, triples, parent):
        graph = KnowledgeGraph()
        graph.extend(triples)
        return build_snapshot(entries, parent=parent, graph=graph)

    by_triples, by_graph = _lineage(from_triples), _lineage(from_graph)
    for one, two in zip(by_triples[:2], by_graph[:2]):
        assert one.manifest == two.manifest
        assert snapshot_health(one).as_dict() == snapshot_health(two).as_dict()
    assert by_triples[2].drift.as_dict() == by_graph[2].drift.as_dict()
    parent, child, _ = by_graph
    assert (parent.version, child.version) == (PARENT_VERSION, CHILD_VERSION)
    assert child.manifest.columnar_digest == CHILD_DIGEST


# -- immutability ----------------------------------------------------------
def test_columns_are_frozen_apart_from_the_source_graph():
    graph = KnowledgeGraph()
    graph.extend([_triple(), _triple(tail="hiking")])
    snap = build_snapshot({"q": "answer."}, graph=graph)
    digest = snap.manifest.columnar_digest
    assert digest == columnar_digest(graph)

    graph.add(_triple(support=4))          # merges into a frozen row
    graph.add(_triple(tail="sailing"))     # a new edge
    assert columnar_digest(graph) != digest
    assert snap.columns["support"].tolist() == [1, 1]
    assert len(snap.columns["head"]) == snap.manifest.triple_count == 2
    assert columnar_digest(KnowledgeGraph.from_columns(snap.columns)) == digest

    with pytest.raises(ValueError, match="read-only"):
        snap.columns["support"][0] = 9
    with pytest.raises(TypeError):
        snap.columns["support"] = None  # type: ignore[index]


def test_direct_construction_requires_builder_token():
    manifest = SnapshotManifest(version="v-0", parent=None, columnar_digest="0",
                                entry_count=0, triple_count=0)
    with pytest.raises(TypeError, match="build_snapshot"):
        KgSnapshot(manifest, {}, ())


def test_entries_view_is_read_only():
    snap = build_snapshot({"q": "answer."})
    with pytest.raises(TypeError):
        snap.entries["q"] = "tampered."  # type: ignore[index]


def test_entries_copied_from_caller_mapping():
    source = {"q": "answer."}
    snap = build_snapshot(source)
    source["q"] = "mutated."
    assert snap.entries["q"] == "answer."


# -- store -----------------------------------------------------------------
def test_store_add_get_and_lineage():
    root = build_snapshot({"q": "old."})
    child = build_snapshot({"q": "new."}, parent=root)
    store = SnapshotStore()
    store.add(root)
    store.add(child)
    assert store.get(child.version) is child
    assert store.get(child.version).parent == root.version
    assert store.get(root.version).parent is None
    assert child.version in store
    assert [s.version for s in store.snapshots()] == [root.version, child.version]
    assert len(store) == 2


def test_store_readd_is_noop_and_returns_existing():
    snap = build_snapshot({"q": "answer."})
    twin = build_snapshot({"q": "answer."})
    store = SnapshotStore()
    assert store.add(snap) is snap
    assert store.add(twin) is snap  # same version → same content
    assert len(store) == 1


def test_store_rejects_orphan_lineage():
    root = build_snapshot({"q": "old."})
    child = build_snapshot({"q": "new."}, parent=root)
    store = SnapshotStore()
    with pytest.raises(KeyError, match="oldest-first"):
        store.add(child)


def test_store_unknown_version_raises():
    with pytest.raises(KeyError, match="unknown snapshot"):
        SnapshotStore().get("v-missing")
