"""Knowledge graph container: dedup, stats, and what importing it costs."""

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core.kg import ARRAY_COLUMNS, KnowledgeGraph
from repro.core.kg_io import load_kg_columnar, save_kg_columnar
from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple
from repro.refresh import build_snapshot, columnar_digest


def _triple(head="q ||| p", tail="camping", relation=Relation.USED_FOR_EVE,
            domain="Sports & Outdoors", behavior="search-buy",
            plausibility=0.9, typicality=0.6):
    return KnowledgeTriple(
        head=head, relation=relation, tail=tail, domain=domain,
        behavior=behavior, plausibility=plausibility, typicality=typicality,
    )


def test_add_and_len():
    kg = KnowledgeGraph()
    kg.add(_triple())
    kg.add(_triple(tail="hiking"))
    assert len(kg) == 2


def test_duplicate_merges_support_and_max_scores():
    kg = KnowledgeGraph()
    kg.add(_triple(plausibility=0.6, typicality=0.2))
    kg.add(_triple(plausibility=0.9, typicality=0.1))
    assert len(kg) == 1
    merged = kg.triples()[0]
    assert merged.support == 2
    assert merged.plausibility == 0.9
    assert merged.typicality == 0.2


def test_edges_for_counts_unique_edges():
    kg = KnowledgeGraph()
    kg.add(_triple())
    kg.add(_triple())  # duplicate: not a new edge
    kg.add(_triple(tail="hiking"))
    assert kg.edges_for("Sports & Outdoors", "search-buy") == 2
    assert kg.edges_for("Sports & Outdoors", "co-buy") == 0


def test_stats():
    kg = KnowledgeGraph()
    kg.add(_triple())
    kg.add(_triple(head="q2 ||| p2", tail="hiking", relation=Relation.X_WANT,
                   domain="Electronics", behavior="co-buy"))
    stats = kg.stats()
    assert stats.edges == 2
    assert stats.nodes == 4
    assert stats.relations == 2
    assert stats.domains == 2


def test_relation_and_domain_lookup():
    kg = KnowledgeGraph()
    kg.add(_triple())
    kg.add(_triple(tail="hiking", relation=Relation.X_WANT))
    assert [t.tail for t in kg.triples() if t.relation is Relation.X_WANT] == ["hiking"]
    assert len(kg.for_domain("Sports & Outdoors")) == 2
    assert sorted({t.tail for t in kg.triples()}) == ["camping", "hiking"]


def test_serving_and_knowledge_planes_import_no_graph_library():
    """A fresh interpreter that imports the serving, refresh and KG modules
    must not have paid for ``networkx`` (a quarter of a replica's RSS)."""
    probe = ("import sys, repro.serving, repro.refresh, repro.core.kg; "
             "sys.exit('networkx' in sys.modules)")
    src = Path(__file__).resolve().parents[2] / "src"
    assert subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(src)}).returncode == 0


def test_pipeline_kg_invariants(pipeline_result):
    kg = pipeline_result.kg
    stats = kg.stats()
    assert stats.edges == len(kg)
    assert stats.domains == 18
    assert stats.relations >= 10
    for triple in kg.triples()[:100]:
        assert triple.plausibility > 0.5  # critic threshold applied


def test_reads_of_unseen_strings_never_intern():
    """The intern tables number whatever ``_ids[x]`` is asked for, so every
    read must go through ``.get``: a lookup of a string the graph has
    never seen returns nothing and leaves the graph byte-identical."""
    def state(graph):
        columns = graph.columns()
        return (graph.stats(), columnar_digest(graph),
                {name: value.tobytes() if hasattr(value, "tobytes") else value
                 for name, value in columns.items()})

    built = KnowledgeGraph()
    built.extend([_triple(), _triple(tail="hiking")])
    for kg in (built, KnowledgeGraph.from_columns(built.columns())):
        before = state(kg)
        assert kg.neighbors("never seen") == []
        assert kg.for_domain("never seen") == []
        assert kg.edges_for("never seen", "search-buy") == 0
        assert kg.edges_for("Sports & Outdoors", "never seen") == 0
        for table in (kg._nodes, kg._relations, kg._domains, kg._behaviors):
            assert table.id_of("never seen") is None
            assert len(table) == len(table.values()) == len(table._ids)
        assert state(kg) == before
        # ... and the next write still numbers from the table's length.
        kg.add(_triple(head="never seen", domain="never seen"))
        assert kg.stats().nodes == before[0].nodes + 1
        assert kg.columns()["nodes"][-1] == "never seen"
        assert kg.columns()["domains"] == ("Sports & Outdoors", "never seen")
        assert [t.tail for t in kg.neighbors("never seen")] == ["camping"]


def _dense_batch() -> list[KnowledgeTriple]:
    """2**15 distinct edges over 64 nodes and 8 relations."""
    nodes = [f"node {i:02d}" for i in range(64)]
    batch = [_triple(head=head, tail=tail, relation=relation)
             for head in nodes for tail in nodes
             for relation in list(Relation)[:8]]
    assert len(batch) == 1 << 15
    return batch


def _retained(build):
    """What ``build()`` returns and the bytes it left allocated."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        built = build()
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return built, after - before


def _ingest(batch) -> KnowledgeGraph:
    kg = KnowledgeGraph()
    kg.extend(batch)
    return kg


def test_no_per_edge_python_object_survives(tmp_path):
    """What a graph retains after a bulk ingest, and after a load, is its
    columns: nine arrays, 48 B per edge (capacity lands exactly on 2**15
    here), plus a few dozen table strings.  A ``dict[int, int]`` merge
    index alone is ~85 B per edge, so holding one fails this bound."""
    batch = _dense_batch()
    kg, ingested = _retained(lambda: _ingest(batch))
    save_kg_columnar(kg, tmp_path / "kg.npz")
    loaded, read = _retained(lambda: load_kg_columnar(tmp_path / "kg.npz"))
    assert len(kg) == len(loaded) == len(batch)
    assert 48 <= ingested / len(batch) < 64
    assert 48 <= read / len(batch) < 64


def test_a_snapshot_keeps_the_graph_buffers_it_freezes():
    """``build_snapshot(graph=kg)`` adopts the graph's column buffers
    instead of copying them: on the graph above (no spare capacity, so
    nothing to trim) the snapshot keeps under 8 B per edge where nine
    copied columns keep 48.  The buffers are write-locked for the graph
    too, which copies a column before it merges into it."""
    batch = _dense_batch()
    kg = _ingest(batch)
    snapshot, kept = _retained(lambda: build_snapshot({}, graph=kg))
    assert kept / len(batch) < 8
    for name in ARRAY_COLUMNS:
        assert np.shares_memory(snapshot.columns[name], kg.columns()[name])
    with pytest.raises(ValueError, match="read-only"):
        kg.columns()["support"][0] = 9
    kg.add(batch[0])                        # a merge copies the column
    assert kg.columns()["support"][:2].tolist() == [2, 1]
    assert snapshot.columns["support"][:2].tolist() == [1, 1]
    assert not np.shares_memory(snapshot.columns["support"],
                                kg.columns()["support"])
    assert np.shares_memory(snapshot.columns["head"], kg.columns()["head"])
