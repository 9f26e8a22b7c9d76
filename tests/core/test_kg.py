"""Knowledge graph container: dedup, stats, and what importing it costs."""

import os
import subprocess
import sys
from pathlib import Path

from repro.core.kg import KnowledgeGraph
from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple


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
    assert kg.tails() == ["camping", "hiking"]


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
