"""Property-based invariants of the knowledge-graph container."""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.kg import KGStats, KnowledgeGraph, pack_edge_keys
from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple
from repro.refresh import build_snapshot, columnar_digest

_relations = st.sampled_from(list(Relation))
_texts = st.text(alphabet="abcde ", min_size=1, max_size=10).map(str.strip).filter(bool)
#: Provenance from real text — non-ASCII, spaces, the same id twice on
#: one edge and on many — 0–4 ids per edge, so empty tuples sit between
#: non-empty ones.
_product_ids = st.one_of(
    st.sampled_from(["p1", "p2", "B00 1Z", " p1", "商品-7", "ünï cödé"]),
    st.text(min_size=1, max_size=6))
_provenance = st.lists(_product_ids, max_size=4).map(tuple)


@st.composite
def triples(draw):
    return KnowledgeTriple(
        head=draw(_texts),
        relation=draw(_relations),
        tail=draw(_texts),
        domain=draw(st.sampled_from(["Electronics", "Pet Supplies"])),
        behavior=draw(st.sampled_from(["co-buy", "search-buy"])),
        plausibility=draw(st.floats(0, 1)),
        typicality=draw(st.floats(0, 1)),
        support=draw(st.integers(1, 5)),
        head_ids=draw(_provenance),
    )


@given(st.lists(triples(), max_size=30))
@settings(max_examples=50, deadline=None)
def test_size_equals_distinct_keys(batch):
    kg = KnowledgeGraph()
    kg.extend(batch)
    assert len(kg) == len({t.key for t in batch})


@given(st.lists(triples(), max_size=30))
@settings(max_examples=50, deadline=None)
def test_support_is_conserved(batch):
    kg = KnowledgeGraph()
    kg.extend(batch)
    assert sum(t.support for t in kg.triples()) == sum(t.support for t in batch)


@given(st.lists(triples(), max_size=30))
@settings(max_examples=50, deadline=None)
def test_merge_keeps_max_scores(batch):
    kg = KnowledgeGraph()
    kg.extend(batch)
    best = {}
    for triple in batch:
        current = best.get(triple.key, 0.0)
        best[triple.key] = max(current, triple.plausibility)
    for triple in kg.triples():
        assert triple.plausibility == best[triple.key]


@given(st.lists(triples(), max_size=30))
@settings(max_examples=50, deadline=None)
def test_insertion_order_invariance(batch):
    forward = KnowledgeGraph()
    forward.extend(batch)
    backward = KnowledgeGraph()
    backward.extend(list(reversed(batch)))
    assert {t.key: (t.support, t.plausibility) for t in forward.triples()} == {
        t.key: (t.support, t.plausibility) for t in backward.triples()
    }


@given(st.lists(triples(), max_size=30))
@settings(max_examples=30, deadline=None)
def test_stats_consistent_with_contents(batch):
    kg = KnowledgeGraph()
    kg.extend(batch)
    stats = kg.stats()
    assert stats.edges == len(kg)
    assert stats.relations == len({t.relation for t in kg.triples()})
    assert stats.domains == len({t.domain for t in kg.triples()})
    per_domain_behavior = sum(
        kg.edges_for(domain, behavior)
        for domain in ("Electronics", "Pet Supplies")
        for behavior in ("co-buy", "search-buy")
    )
    assert per_domain_behavior == stats.edges


# -- bulk ingest ≡ the ``add`` loop -----------------------------------------

_domains = st.sampled_from(["Electronics", "Pet Supplies", "Home", "Grocery"])


@st.composite
def colliding_triples(draw):
    """Triples over so few strings that keys repeat within a batch,
    across batches and against adopted rows, with domains/behaviors that
    differ between the first insert of a key and its duplicates."""
    return KnowledgeTriple(
        head=draw(st.sampled_from(["a", "b", "c d"])),
        relation=draw(st.sampled_from([Relation.USED_WITH, Relation.X_WANT])),
        tail=draw(st.sampled_from(["a", "b", "e"])),
        domain=draw(_domains),
        behavior=draw(st.sampled_from(["co-buy", "search-buy", "view"])),
        plausibility=draw(st.floats(0, 1)),
        typicality=draw(st.floats(0, 1)),
        support=draw(st.integers(1, 5)),
        head_ids=draw(_provenance),
    )


@st.composite
def distinct_batches(draw):
    """Batches whose keys are distinct within and across batches, with
    provenance or without any (the shape a synthetic build feeds): every
    ``extend`` of them, onto an empty graph or a held one, opens a row
    per edge and merges nothing."""
    edges = draw(st.lists(triples(), unique_by=lambda t: t.key, max_size=40))
    if draw(st.booleans()):
        edges = [t._replace(head_ids=()) for t in edges]
    cuts = sorted(draw(st.lists(st.integers(0, len(edges)), max_size=3)))
    return [edges[start:end]
            for start, end in zip([0, *cuts], [*cuts, len(edges)])]


_batches = st.lists(st.lists(st.one_of(triples(), colliding_triples()),
                             max_size=25), max_size=4)


def _by_add(kg, batch):
    for triple in batch:
        kg.add(triple)


def _assert_same_bytes(bulk, reference):
    ours, theirs = bulk.columns(), reference.columns()
    assert ours.keys() == theirs.keys()
    for name, value in theirs.items():
        if isinstance(value, np.ndarray):
            assert ours[name].dtype == value.dtype
            assert ours[name].tobytes() == value.tobytes(), name
        else:
            assert ours[name] == value, name
    assert columnar_digest(bulk) == columnar_digest(reference)


def _assert_identical(bulk, reference):
    _assert_same_bytes(bulk, reference)
    theirs = reference.columns()
    assert bulk.stats() == reference.stats()
    assert ([t.head_ids for t in bulk.triples()]
            == [t.head_ids for t in reference.triples()])
    for domain in theirs["domains"] + ("never seen",):
        for behavior in theirs["behaviors"]:
            assert (bulk.edges_for(domain, behavior)
                    == reference.edges_for(domain, behavior))
    for head in theirs["nodes"]:
        assert bulk.neighbors(head) == reference.neighbors(head)


@given(_batches, st.booleans(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_extend_is_the_add_loop(batches, adopt_first, as_generator):
    _check_extend_is_the_add_loop(batches, adopt_first, as_generator)


@given(distinct_batches(), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_extend_of_distinct_keys_is_the_add_loop(batches, adopt_first,
                                                 as_generator):
    _check_extend_is_the_add_loop(batches, adopt_first, as_generator)


def _check_extend_is_the_add_loop(batches, adopt_first, as_generator):
    bulk, reference = KnowledgeGraph(), KnowledgeGraph()
    for index, batch in enumerate(batches):
        if adopt_first and index == 1:
            # Later batches merge into rows adopted by ``from_columns``.
            bulk = KnowledgeGraph.from_columns(bulk.columns())
            reference = KnowledgeGraph.from_columns(reference.columns())
        bulk.extend(iter(batch) if as_generator else batch)
        _by_add(reference, batch)
        _assert_identical(bulk, reference)
    # Both keep merging into the same rows afterwards.
    inserted = [t for batch in batches for t in batch]
    for triple in inserted[:3]:
        bulk.add(triple)
        reference.add(triple)
    _assert_identical(bulk, reference)
    # A merged duplicate keeps the first insert's provenance.
    first = {}
    for triple in inserted:
        first.setdefault(triple.key, triple.head_ids)
    assert {t.key: t.head_ids for t in bulk.triples()} == first
    # And the columns rebuild both graphs, provenance and digest included.
    adopted = KnowledgeGraph.from_columns(bulk.columns())
    assert adopted.triples() == reference.triples()
    _assert_same_bytes(adopted, reference)


@given(_batches)
@settings(max_examples=60, deadline=None)
def test_edges_for_is_a_count_over_the_triples(batches):
    by_add, by_extend = KnowledgeGraph(), KnowledgeGraph()
    for batch in batches:
        _by_add(by_add, batch)
        by_extend.extend(batch)
    adopted = KnowledgeGraph.from_columns(by_extend.columns())
    adopted.extend(batches[0] if batches else [])     # merges only
    triples = by_add.triples()
    for domain in ["Electronics", "Pet Supplies", "Home", "Grocery", "unseen"]:
        for behavior in ["co-buy", "search-buy", "view", "unseen"]:
            expected = sum(1 for t in triples
                           if (t.domain, t.behavior) == (domain, behavior))
            for kg in (by_add, by_extend, adopted):
                assert kg.edges_for(domain, behavior) == expected


def _edge(head, tail, **fields):
    fields = {"domain": "Home", "behavior": "co-buy", "plausibility": 0.5,
              "typicality": 0.5, **fields}
    return KnowledgeTriple(head=head, relation=Relation.USED_WITH, tail=tail,
                           **fields)


def test_extend_of_nothing_changes_nothing():
    kg = KnowledgeGraph()
    kg.extend([])
    kg.extend(iter(()))
    assert len(kg) == 0 and kg.stats().nodes == 0
    kg.add(_edge("a", "b"))
    before = columnar_digest(kg)
    kg.extend([])
    assert columnar_digest(kg) == before


def test_a_duplicate_does_not_intern_its_domain_or_behavior():
    batch = [_edge("a", "b"),
             _edge("a", "b", domain="Only On The Duplicate", behavior="view",
                   head_ids=("p9",)),
             _edge("b", "a", domain="Grocery")]
    bulk, reference = KnowledgeGraph(), KnowledgeGraph()
    bulk.extend(batch)
    _by_add(reference, batch)
    _assert_identical(bulk, reference)
    assert bulk.columns()["domains"] == ("Home", "Grocery")
    assert bulk.columns()["behaviors"] == ("co-buy",)
    assert bulk.columns()["head_ids_flat"] == ()
    assert [t.head_ids for t in bulk.triples()] == [(), ()]
    assert bulk.edges_for("Only On The Duplicate", "view") == 0


@pytest.mark.parametrize("scores", [
    (float("nan"), 0.9, 0.2),     # a NaN first insert never leaves
    (0.3, float("nan"), 0.2),     # a NaN never enters
    (0.3, float("nan"), 0.8),
    (0.0, -0.0, 0.0),
])
def test_merged_scores_follow_adds_comparison(scores):
    batch = [_edge("a", "b", plausibility=s, typicality=s) for s in scores]
    bulk, reference, split = (KnowledgeGraph(), KnowledgeGraph(),
                              KnowledgeGraph())
    bulk.extend(batch)
    _by_add(reference, batch)
    split.extend(batch[:1])
    split.extend(batch[1:])
    _assert_same_bytes(bulk, reference)     # NaN != NaN, so bytes only
    _assert_same_bytes(split, reference)


def test_packed_key_raises_instead_of_wrapping(monkeypatch):
    ids = np.array([0], dtype=np.int32)
    with pytest.raises(OverflowError, match="28 bits per node"):
        pack_edge_keys(ids, ids, ids, nodes=(1 << 28) + 1, relations=1)
    with pytest.raises(OverflowError, match="7 per relation"):
        pack_edge_keys(ids, ids, ids, nodes=1, relations=(1 << 7) + 1)
    # The largest ids the budget admits still pack without collision.
    top = pack_edge_keys([(1 << 28) - 1], [(1 << 7) - 1], [(1 << 28) - 1],
                         nodes=1 << 28, relations=1 << 7)
    assert top.dtype == np.int64 and int(top[0]) == (1 << 63) - 1

    # Every way into a graph checks the budget: with two bits per node id
    # the fifth node is refused by add, extend and from_columns alike.
    edges = [_edge("a", "b"), _edge("c", "d"), _edge("a", "e")]
    roomy = KnowledgeGraph()
    roomy.extend(edges)
    monkeypatch.setattr("repro.core.kg._NODE_BITS", 2)
    with pytest.raises(OverflowError):
        KnowledgeGraph().extend(edges)
    scalar = KnowledgeGraph()
    scalar.extend(edges[:2])
    with pytest.raises(OverflowError):
        scalar.add(edges[2])
    with pytest.raises(OverflowError):
        KnowledgeGraph.from_columns(roomy.columns())


# -- schedules of writes, round trips and reads ≡ a dict of tuples -----------

class _Model:
    """The graph as a dict: ``(head, relation, tail)`` → ``[domain,
    behavior, plausibility, typicality, support, head_ids]`` in insertion
    order.  Tables, columns and every query are derived from it from
    scratch each time they are asked for."""

    def __init__(self):
        self.rows = {}

    def add(self, triple):
        row = self.rows.setdefault(triple.key, [triple.domain, triple.behavior,
                                                None, None, 0, triple.head_ids])
        for slot, score in ((2, triple.plausibility), (3, triple.typicality)):
            if row[slot] is None or score > row[slot]:
                row[slot] = score
        row[4] += triple.support

    def triples(self, keep=lambda triple: True):
        every = (KnowledgeTriple(head, Relation(relation), tail, *row)
                 for (head, relation, tail), row in self.rows.items())
        return [triple for triple in every if keep(triple)]

    def columns(self):
        flat = [(*key, *row) for key, row in self.rows.items()]
        fields = list(zip(*flat)) or [()] * 9
        tables = {"nodes": [end for row in flat for end in (row[0], row[2])],
                  "relations": fields[1], "domains": fields[3],
                  "behaviors": fields[4]}
        tables = {name: tuple(dict.fromkeys(values))
                  for name, values in tables.items()}

        def ids(field, table):
            return np.array([tables[table].index(value)
                             for value in fields[field]], dtype="<i4")
        return {"head": ids(0, "nodes"), "relation": ids(1, "relations"),
                "tail": ids(2, "nodes"), "domain": ids(3, "domains"),
                "behavior": ids(4, "behaviors"),
                "plausibility": np.array(fields[5], dtype="<f8"),
                "typicality": np.array(fields[6], dtype="<f8"),
                "support": np.array(fields[7], dtype="<i8"),
                "head_ids_len": np.array(list(map(len, fields[8])), dtype="<i4"),
                **tables, "head_ids_flat": sum(fields[8], ())}


def _assert_is_the_model(kg, model):
    expected, ours = model.columns(), kg.columns()
    assert list(ours) == list(expected)
    digest = hashlib.blake2b(digest_size=16)
    for name, value in expected.items():
        digest.update(name.encode("utf-8"))
        if isinstance(value, np.ndarray):
            assert ours[name].dtype == value.dtype, name
            assert ours[name].tobytes() == value.tobytes(), name
            digest.update(value.tobytes())
        else:
            assert ours[name] == value, name
            digest.update("\x00".join(value).encode("utf-8"))
    assert columnar_digest(kg) == digest.hexdigest()
    assert kg.stats() == KGStats(
        nodes=len(expected["nodes"]), edges=len(model.rows),
        relations=len(expected["relations"]), domains=len(expected["domains"]))
    # NaN scores compare unequal to themselves, so triples compare by repr.
    assert repr(kg.triples()) == repr(model.triples())
    for head in expected["nodes"] + ("never seen",):
        assert repr(kg.neighbors(head)) == repr(
            model.triples(lambda triple: triple.head == head))
    cells = Counter((row[0], row[1]) for row in model.rows.values())
    for domain in expected["domains"] + ("never seen",):
        for behavior in expected["behaviors"] + ("never seen",):
            assert kg.edges_for(domain, behavior) == cells[domain, behavior]


_scores = st.one_of(st.floats(0, 1), st.just(float("nan")))
_scheduled = st.one_of(triples(), st.builds(
    lambda triple, plausibility, typicality: triple._replace(
        plausibility=plausibility, typicality=typicality),
    colliding_triples(), _scores, _scores))
_batch = st.lists(_scheduled, max_size=12)
_steps = st.one_of(
    st.tuples(st.just("add"), _scheduled),
    st.tuples(st.sampled_from(["extend", "extend a generator"]), _batch),
    st.tuples(st.just("from_columns"), st.none()),
    # A string the graph may or may not hold, read every way there is.
    st.tuples(st.just("read"), st.one_of(_texts, _domains)))
_A, _B, _C = (_edge("a", tail, head_ids=("p1",)) for tail in "abc")


@given(st.lists(_steps, max_size=10))
@example([("extend", [_A, _B]), ("add", _A), ("extend", [_B, _C, _A]),
          ("add", _C), ("add", _B)])
@example([("extend", [_A]), ("from_columns", None), ("add", _A), ("add", _B)])
@example([("add", _A), ("extend", []), ("extend a generator", [_A, _A, _B]),
          ("from_columns", None), ("extend", [_C, _B]), ("add", _C)])
@settings(max_examples=150, deadline=None)
def test_any_schedule_is_the_dict_model_after_every_step(schedule):
    """``add``'s merge index is derived from the columns and dropped by
    ``extend``, and ``from_columns`` builds none: every interleaving of
    the three must leave exactly what a dict of tuples holds."""
    kg, model = KnowledgeGraph(), _Model()
    for step, argument in schedule:
        if step == "add":
            kg.add(argument)
            model.add(argument)
        elif step.startswith("extend"):
            kg.extend(iter(argument) if "generator" in step else argument)
            for triple in argument:
                model.add(triple)
        elif step == "from_columns":
            kg = KnowledgeGraph.from_columns(kg.columns())
        else:
            assert repr(kg.neighbors(argument)) == repr(
                model.triples(lambda triple: triple.head == argument))
            assert repr(kg.for_domain(argument)) == repr(
                model.triples(lambda triple: triple.domain == argument))
            assert kg.edges_for(argument, "co-buy") == len(model.triples(
                lambda triple: (triple.domain, triple.behavior)
                == (argument, "co-buy")))
        _assert_is_the_model(kg, model)


# -- a snapshot freezes the graph's buffers; the graph copies on write -------

_program = st.lists(st.one_of(
    st.tuples(st.just("add"), _scheduled),
    st.tuples(st.just("extend"), _batch),
    st.tuples(st.just("snapshot"), st.none())), max_size=12)


def _copied(columns):
    return {name: value.copy() if isinstance(value, np.ndarray) else value
            for name, value in columns.items()}


@given(_program)
@example([("extend", [_A, _B]), ("snapshot", None), ("add", _A),
          ("extend", [_B, _C]), ("snapshot", None), ("extend", [_C, _A]),
          ("snapshot", None), ("add", _C)])
@settings(max_examples=120, deadline=None)
def test_snapshots_keep_their_bytes_while_the_graph_copies_on_write(program):
    """``build_snapshot(graph=kg)`` keeps the graph's own buffers, and the
    graph copies a frozen column before it writes into it: after every
    step of any program of adds, extends (repeated keys, NaN scores) and
    snapshots, each snapshot still holds the bytes it was built with,
    which still hash to its manifest's digest, and the graph is still
    what the ``add`` loop builds."""
    kg, reference = KnowledgeGraph(), KnowledgeGraph()
    built = []
    for step, argument in program:
        if step == "add":
            kg.add(argument)
            reference.add(argument)
        elif step == "extend":
            kg.extend(argument)
            _by_add(reference, argument)
        else:
            snapshot = build_snapshot({}, graph=kg)
            built.append((snapshot, _copied(snapshot.columns)))
        _assert_same_bytes(kg, reference)   # NaN != NaN, so bytes and reprs
        assert repr(kg.triples()) == repr(reference.triples())
        for snapshot, at_build in built:
            assert (columnar_digest(KnowledgeGraph.from_columns(snapshot.columns))
                    == snapshot.manifest.columnar_digest)
            for name, value in at_build.items():
                held = snapshot.columns[name]
                if isinstance(value, np.ndarray):
                    assert not held.flags.writeable, name
                    assert held.tobytes() == value.tobytes(), name
                else:
                    assert held == value, name
