"""Knowledge-plane health reports: computation and export."""

import json

import pytest

from repro.core.kg import KnowledgeGraph
from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple
from repro.obs import (
    KG_HEALTH_SCHEMA,
    compute_kg_health,
    kg_health_report,
    validate,
)


def _triple(head, relation, tail, domain="Apparel", behavior="search-buy",
            plausibility=0.8, typicality=0.6, support=1):
    return KnowledgeTriple(head=head, relation=relation, tail=tail,
                           domain=domain, behavior=behavior,
                           plausibility=plausibility, typicality=typicality,
                           support=support)


def _graph():
    kg = KnowledgeGraph()
    kg.extend([
        _triple("q0", Relation.USED_FOR_FUNC, "hiking", support=3),
        _triple("q0", Relation.CAPABLE_OF, "warmth", domain="Home"),
        _triple("q1", Relation.USED_FOR_FUNC, "hiking", behavior="co-buy",
                plausibility=0.4, typicality=0.2),
        _triple("q2", Relation.USED_TO, "sleep", plausibility=0.95),
    ])
    return kg


def test_compute_counts_and_distributions():
    report = compute_kg_health(_graph().columns(), version="v-test",
                               parent="v-parent", entries=3)
    assert report.version == "v-test" and report.parent == "v-parent"
    assert report.triples == 4
    assert report.entries == 3
    assert report.relation_edges == {"USED_FOR_FUNC": 2, "CAPABLE_OF": 1,
                                     "USED_TO": 1}
    assert report.domain_edges == {"Apparel": 3, "Home": 1}
    assert report.behavior_edges == {"search-buy": 3, "co-buy": 1}
    # Nodes: 3 heads + 3 distinct tails interned into one table.
    assert report.nodes == 6
    assert report.head_degree.nodes == 3
    assert report.head_degree.max == 2       # q0 has two edges
    assert report.tail_degree.max == 2       # hiking has two edges
    assert report.support_total == 6          # 3 + 1 + 1 + 1
    assert report.merged_edges == 1           # only the support=3 edge
    assert report.dedup_ratio == pytest.approx(6 / 4)


def test_score_histograms_cover_every_triple():
    report = compute_kg_health(_graph().columns())
    assert sum(report.plausibility.counts) == report.triples
    assert sum(report.typicality.counts) == report.triples
    assert report.plausibility.min == pytest.approx(0.4)
    assert report.plausibility.max == pytest.approx(0.95)
    assert 0.4 < report.plausibility.mean < 0.95


def test_degree_buckets_are_cumulative_with_overflow():
    report = compute_kg_health(_graph().columns())
    counts = [count for _bound, count in report.head_degree.buckets]
    assert counts == sorted(counts)                     # non-decreasing
    assert report.head_degree.buckets[-1][0] == float("inf")
    assert counts[-1] == report.head_degree.nodes       # overflow holds all


def test_empty_graph_health_is_well_formed():
    report = compute_kg_health(KnowledgeGraph().columns(), version="v-empty")
    assert report.triples == 0 and report.nodes == 0
    assert report.dedup_ratio == 1.0
    assert report.head_degree.nodes == 0
    assert sum(report.plausibility.counts) == 0
    validate(KG_HEALTH_SCHEMA, kg_health_report([report]))


def test_report_document_is_deterministic_and_validates():
    report = compute_kg_health(_graph().columns(), version="v-doc")
    doc = kg_health_report([report])
    assert doc["schema"] == KG_HEALTH_SCHEMA
    validate(KG_HEALTH_SCHEMA, doc)
    a = json.dumps(kg_health_report([report]), sort_keys=True)
    b = json.dumps(kg_health_report([report]), sort_keys=True)
    assert a == b


@pytest.mark.parametrize("mutate, match", [
    (lambda d: d.update(schema="repro.obs.kg_health/v2"), "schema"),
    (lambda d: d["snapshots"][0].update(triples=5), "sum to 4"),
    (lambda d: d["snapshots"][0]["relation_edges"].update(extra=1), "sum to 5"),
    (lambda d: d["snapshots"][0]["head_degree"]["buckets"].pop(),
     r"\+Inf overflow"),
    (lambda d: d["snapshots"][0]["plausibility"]["counts"].__setitem__(0, 9),
     "bin counts sum"),
    # The deleted funnel member is now an unknown key like any other.
    (lambda d: d["snapshots"][0].update(funnel={}), "unknown key"),
])
def test_validator_rejects_corrupted_documents(mutate, match):
    report = compute_kg_health(_graph().columns(), version="v-bad")
    doc = kg_health_report([report])
    mutate(doc)
    with pytest.raises(ValueError, match=match):
        validate(KG_HEALTH_SCHEMA, doc)


def test_validator_rejects_inconsistent_gate_entries():
    report = compute_kg_health(_graph().columns())
    doc = kg_health_report([report], gates=[
        {"version": "v-x", "parent_version": None, "promote": True,
         "breaches": ["something"]},
    ])
    with pytest.raises(ValueError, match="cannot carry breaches"):
        validate(KG_HEALTH_SCHEMA, doc)
    doc = kg_health_report([report], gates=[
        {"version": "v-x", "parent_version": None, "promote": False,
         "breaches": []},
    ])
    with pytest.raises(ValueError, match="must name its breaches"):
        validate(KG_HEALTH_SCHEMA, doc)
