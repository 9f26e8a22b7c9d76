"""Snapshot quality gate: health adapter, edge identity, gate verdicts."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.kg import ARRAY_COLUMNS, KnowledgeGraph
from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple
from repro.obs import SloEvaluator
from repro.refresh import (
    RolloutController,
    RolloutState,
    SnapshotGenerator,
    SnapshotQualityGate,
    SnapshotStore,
    build_snapshot,
    edge_delta,
    rollout_slo_specs,
    snapshot_health,
)
from repro.serving import ClusterConfig, CosmoCluster

_MIX = (Relation.USED_FOR_FUNC, Relation.CAPABLE_OF, Relation.USED_TO,
        Relation.USED_FOR_AUD)


def _triples(count, offset=0, relations=_MIX, plausibility=0.8):
    return [
        KnowledgeTriple(
            head=f"query {k % 7:02d}",
            relation=relations[k % len(relations)],
            tail=f"intent {k % 11:02d}",
            domain=("Apparel", "Electronics")[k % 2],
            behavior="search-buy" if k % 3 else "co-buy",
            plausibility=plausibility,
            typicality=0.6,
            support=1 + k % 3,
        )
        for k in range(offset, offset + count)
    ]


def _entries(tag, count=12):
    return {f"query {i:02d}": f"it is used for query {i:02d} ({tag})."
            for i in range(count)}


def test_snapshot_health_carries_lineage_and_entry_count():
    blue = build_snapshot(_entries("blue"), triples=_triples(20), note="blue")
    green = build_snapshot(_entries("green"), triples=_triples(24),
                           parent=blue, note="green")
    health = snapshot_health(green)
    assert health.version == green.version
    assert health.parent == blue.version
    assert health.entries == len(green)
    assert health.triples == len({t.key for t in _triples(24)})
    assert health.triples == green.manifest.triple_count
    assert sum(health.relation_edges.values()) == health.triples


def edge_keys(snapshot):
    """Reference model for :func:`edge_delta`: the snapshot's edge
    identity set as string triples (what the gate diffed before the
    integer delta)."""
    cols = snapshot.columns
    nodes, relations = cols["nodes"], cols["relations"]
    return set(zip(map(nodes.__getitem__, cols["head"].tolist()),
                   map(relations.__getitem__, cols["relation"].tolist()),
                   map(nodes.__getitem__, cols["tail"].tolist())))


def _set_delta(parent, child):
    old, new = edge_keys(parent), edge_keys(child)
    return len(new - old), len(old - new)


def test_edge_keys_ignore_scores_and_support():
    base = _triples(10)
    rescored = [
        KnowledgeTriple(head=t.head, relation=t.relation, tail=t.tail,
                        domain=t.domain, behavior=t.behavior,
                        plausibility=t.plausibility / 2,
                        typicality=t.typicality / 2, support=t.support + 5)
        for t in base
    ]
    a = build_snapshot(_entries("a"), triples=base)
    b = build_snapshot(_entries("b"), triples=rescored)
    assert edge_keys(a) == edge_keys(b)
    assert edge_keys(a) == {(t.head, t.relation.value, t.tail) for t in base}
    assert edge_delta(a, b) == edge_delta(b, a) == (0, 0)


def _shuffled(triples):
    """The same edges in another insertion order, so the node and
    relation tables come out permuted."""
    return triples[1::2] + triples[0::2][::-1]


_NOVEL = [
    KnowledgeTriple(head=f"unseen head {k}", relation=Relation.X_WANT,
                    tail=f"unseen tail {k % 2}", domain="Grocery",
                    behavior="co-buy", plausibility=0.7, typicality=0.5)
    for k in range(5)
]


@pytest.mark.parametrize("parent_triples, child_triples, expected", [
    (_triples(40), _triples(40) + _triples(6, offset=40), None),   # growth
    (_triples(40), _triples(25), None),                            # removals
    (_triples(40), _shuffled(_triples(40)), (0, 0)),               # permuted
    (_triples(40), _shuffled(_triples(30) + _NOVEL), None),        # both ways
    (_triples(20), _NOVEL + _triples(20), (5, 0)),   # unseen nodes + relation
    ([], _triples(20), None),                                      # empty parent
    (_triples(20), [], None),                                      # empty child
    (_triples(20), _triples(20), (0, 0)),                          # identical
], ids=["growth", "removed", "permuted", "permuted-mixed", "unseen",
        "empty-parent", "empty-child", "identical"])
def test_edge_delta_matches_the_string_set_model(parent_triples,
                                                 child_triples, expected):
    parent = build_snapshot(_entries("p"), triples=parent_triples)
    child = build_snapshot(_entries("c"), triples=child_triples, parent=parent)
    delta = edge_delta(parent, child)
    assert delta == _set_delta(parent, child)
    assert edge_delta(child, parent) == delta[::-1]
    if expected is not None:
        assert delta == expected


# -- the appended-rows path against the string-set model --------------------

#: Few strings, so draws repeat keys (merges into held rows) and a child
#: that lost rows can still hold every string of its parent's tables.
_words = st.sampled_from(["a", "b", "c d", "e"])
_unseen = st.sampled_from(["unseen f", "unseen g"])


@st.composite
def _edges(draw, words=_words,
           relations=st.sampled_from([Relation.USED_WITH, Relation.X_WANT])):
    return KnowledgeTriple(
        head=draw(words), relation=draw(relations), tail=draw(words),
        domain="Home", behavior="co-buy",
        plausibility=draw(st.floats(0, 1)), typicality=draw(st.floats(0, 1)),
        support=draw(st.integers(1, 5)),
        head_ids=draw(st.lists(st.sampled_from(["p1", "p2"]),
                               max_size=2).map(tuple)))


#: An appended edge: over the parent's strings (often a merge into a held
#: row), over unseen nodes, or under a relation the parent never used.
_appended = st.one_of(
    _edges(), _edges(words=st.one_of(_words, _unseen)),
    _edges(relations=st.sampled_from([Relation.IS_A, Relation.USED_WITH])))


def _edge_on(head, tail):
    return KnowledgeTriple(head=head, relation=Relation.USED_WITH, tail=tail,
                           domain="Home", behavior="co-buy",
                           plausibility=0.5, typicality=0.5)


def _deltas_agree(parent, child):
    assert edge_delta(parent, child) == _set_delta(parent, child)
    assert edge_delta(child, parent) == _set_delta(child, parent)


@given(st.lists(_edges(), max_size=12), st.lists(_appended, max_size=12),
       st.lists(st.tuples(st.integers(0, 11), st.floats(0, 1),
                          st.integers(1, 5)), max_size=6))
@settings(max_examples=150, deadline=None)
def test_edge_delta_of_a_builder_shaped_child_is_the_set_model(
        parent_edges, appended, rescores):
    """A child built as the refresh builder builds one — the parent's
    columns adopted, then one ``extend`` of new edges, of merges into
    held rows and of re-scored, re-supported copies of held edges."""
    parent = build_snapshot(_entries("p"), triples=parent_edges)
    graph = KnowledgeGraph.from_columns(parent.columns)
    held = graph.triples()
    rescored = [replace(held[row % len(held)], plausibility=score,
                        support=support)
                for row, score, support in rescores] if held else []
    graph.extend(appended[::2] + rescored + appended[1::2])
    child = build_snapshot(_entries("c"), parent=parent, graph=graph)
    _deltas_agree(parent, child)


def _reordered(columns, order):
    """``columns`` with the rows in ``order``: the same tables, each
    row's provenance moved with it."""
    rows = KnowledgeGraph.from_columns(columns).triples()
    moved = {name: columns[name][order] for name in ARRAY_COLUMNS}
    return {**columns, **moved, "head_ids_flat": tuple(
        product for row in order for product in rows[row].head_ids)}


@given(st.lists(_edges(), min_size=1, max_size=12),
       st.sampled_from(["shuffled", "removed", "reordered"]),
       st.permutations(range(12)), st.lists(st.booleans(), min_size=12,
                                            max_size=12),
       st.lists(_appended, max_size=4))
@settings(max_examples=150, deadline=None)
@example(  # every string survives the removal: the tables stay equal
    [_edge_on("a", "b"), _edge_on("b", "a"), _edge_on("a", "a")], "removed",
    list(range(12)), [True, True] + [False] * 10, [])
@example(  # the same tables, the rows in another order
    [_edge_on("a", "b"), _edge_on("b", "a")], "reordered",
    [1, 0] + list(range(2, 12)), [True] * 12, [])
def test_edge_delta_of_any_other_child_is_the_set_model(
        parent_edges, shape, order, keep, appended):
    """Children that are not their parent plus appended rows: built in
    another insertion order (tables permuted), with rows removed, or
    with the parent's own tables but its rows in another order."""
    parent = build_snapshot(_entries("p"), triples=parent_edges)
    held = KnowledgeGraph.from_columns(parent.columns).triples()
    order = [row for row in order if row < len(held)]
    if shape == "reordered":
        graph = KnowledgeGraph.from_columns(
            _reordered(parent.columns, np.array(order)))
        child = build_snapshot(_entries("c"), parent=parent, graph=graph)
    else:
        kept = ([held[row] for row in order] + appended if shape == "shuffled"
                else [t for t, stays in zip(held, keep) if stays])
        child = build_snapshot(_entries("c"), triples=kept, parent=parent)
    _deltas_agree(parent, child)


def test_gate_rates_follow_the_delta_on_a_permuted_child():
    # A child built in another insertion order, minus some edges, plus
    # edges on strings the parent never interned: the drift report's
    # rates are the reference model's counts over the parent's sizes.
    base = _triples(40)
    parent = build_snapshot(_entries("p", 12), triples=base)
    child = build_snapshot(_entries("c", 15),
                           triples=_shuffled(base[:32] + _NOVEL), parent=parent)
    store = SnapshotStore()
    store.add(parent)
    store.add(child)
    drift = SnapshotQualityGate(store).assess(child).drift
    added, removed = _set_delta(parent, child)
    edges = parent.manifest.triple_count
    shared = len(parent.columns["nodes"])
    assert parent.columns["nodes"] != child.columns["nodes"][:shared]
    assert (added, removed) != (0, 0)
    assert drift.metrics["added_edge_rate"] == added / edges
    assert drift.metrics["removed_edge_rate"] == removed / edges
    assert drift.metrics["entry_added_rate"] == 3 / 12
    assert drift.metrics["entry_removed_rate"] == 0.0


def test_root_snapshot_promotes_without_drift():
    store = SnapshotStore()
    root = build_snapshot(_entries("root"), triples=_triples(20))
    store.add(root)
    gate = SnapshotQualityGate(store)
    decision = gate.assess(root)
    assert decision.promote
    assert decision.breaches == ()
    assert decision.drift is None and decision.parent_health is None


def test_unregistered_parent_promotes_trivially():
    # The store enforces oldest-first lineage on add(); a candidate can
    # still be assessed before registration, when its parent is unknown.
    store = SnapshotStore()
    blue = build_snapshot(_entries("blue"), triples=_triples(20))
    green = build_snapshot(_entries("green"), triples=_triples(20),
                           parent=blue)
    decision = SnapshotQualityGate(store).assess(green)
    assert decision.promote and decision.drift is None


def test_healthy_child_promotes_with_drift_report():
    store = SnapshotStore()
    blue = build_snapshot(_entries("blue"), triples=_triples(40))
    green = build_snapshot(_entries("green"),
                           triples=_triples(40) + _triples(6, offset=40),
                           parent=blue)
    store.add(blue)
    store.add(green)
    gate = SnapshotQualityGate(store)
    decision = gate.assess(green)
    assert decision.promote
    assert decision.drift is not None and decision.drift.ok
    assert decision.drift.metrics["added_edge_rate"] > 0.0
    assert decision.drift.metrics["removed_edge_rate"] == 0.0
    assert decision.parent_health is not None
    assert decision.parent_health.version == blue.version


def test_poisoned_child_blocks_with_readable_breaches():
    store = SnapshotStore()
    blue = build_snapshot(_entries("blue"), triples=_triples(40))
    poisoned = build_snapshot(
        _entries("green"),
        triples=_triples(40, relations=(Relation.IS_A,), plausibility=0.05),
        parent=blue,
    )
    store.add(blue)
    store.add(poisoned)
    decision = SnapshotQualityGate(store).assess(poisoned)
    assert not decision.promote
    assert decision.breaches  # human-readable "rule: metric=v > t" strings
    assert any(b.startswith("relation-mix-shift:") for b in decision.breaches)
    assert any("plausibility" in b for b in decision.breaches)


def test_a_poisoned_sibling_does_not_borrow_the_healthy_verdict():
    # Two children of one parent with the same entries and the same
    # (head, relation, tail, support) edges: only the scores and domains
    # the gate judges tell them apart, so they must not share a version.
    blue = build_snapshot(_entries("blue"), triples=_triples(40))
    edges = _triples(40) + _triples(6, offset=40)
    healthy = build_snapshot(_entries("green"), triples=edges, parent=blue)
    poisoned = build_snapshot(
        _entries("green"), parent=blue,
        triples=[replace(t, plausibility=0.03, typicality=0.03, domain="Home")
                 for t in edges])
    assert poisoned.version != healthy.version

    store = SnapshotStore()
    for snapshot in (blue, healthy, poisoned):
        assert store.add(snapshot) is snapshot
    assert len(store) == 3

    gate = SnapshotQualityGate(store)
    assert gate.assess(healthy).promote
    decision = gate.assess(poisoned)
    assert not decision.promote and decision.breaches

    cluster = CosmoCluster(lambda i: SnapshotGenerator(blue),
                           config=ClusterConfig(n_replicas=2, seed=3))
    controller = RolloutController(
        cluster, store, poisoned,
        SloEvaluator(cluster.registry, rollout_slo_specs(0.5)),
        quality_gate=gate)
    assert controller.tick(cluster.clock.now()) == "gate-block"
    assert controller.state is RolloutState.BLOCKED


def test_assessments_are_cached_by_version():
    store = SnapshotStore()
    blue = build_snapshot(_entries("blue"), triples=_triples(20))
    green = build_snapshot(_entries("green"), triples=_triples(22),
                           parent=blue)
    store.add(blue)
    store.add(green)
    gate = SnapshotQualityGate(store)
    first = gate.assess(green)
    assert gate.assess(green) is first            # decision cached
    assert gate.health_of(green) is first.health  # health cached


def test_custom_rules_override_defaults():
    store = SnapshotStore()
    blue = build_snapshot(_entries("blue"), triples=_triples(40))
    poisoned = build_snapshot(
        _entries("green"),
        triples=_triples(40, relations=(Relation.IS_A,), plausibility=0.05),
        parent=blue,
    )
    store.add(blue)
    store.add(poisoned)
    gate = SnapshotQualityGate(store, rules=())  # gate with no rules at all
    assert gate.assess(poisoned).promote
