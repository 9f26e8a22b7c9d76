"""Columnar KG internals: intern tables, CSR neighbor queries, the
``columns()``/``from_columns()`` boundary, the ``.npz`` round-trip and
the snapshot column digest.

Golden contract of the columnar refactor: the interned/array-backed
:class:`KnowledgeGraph` is behaviorally identical to the reference
dict-of-triples semantics — same dedup/merge rules, same ``triples()``
order, same stats — while queries run off id tables and CSR slices
instead of full scans.
"""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kg import KnowledgeGraph
from repro.core.kg_io import load_kg_columnar, save_kg_columnar
from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple
from repro.refresh import build_snapshot, columnar_digest

_relations = st.sampled_from(list(Relation))
_texts = st.text(alphabet="abcde ", min_size=1, max_size=10).map(str.strip).filter(bool)
#: Provenance from real text — non-ASCII, spaces, the same id twice on
#: one edge and on many — 0–4 ids per edge, so empty tuples sit between
#: non-empty ones.  (A trailing NUL is the one thing an archive refuses.)
_product_ids = st.one_of(
    st.sampled_from(["p1", "p2", "B00 1Z", " p1", "商品-7", "ünï cödé"]),
    st.text(min_size=1, max_size=6).filter(lambda s: not s.endswith("\x00")))
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


def _triple(head="q ||| p", tail="camping", relation=Relation.USED_FOR_EVE,
            domain="Sports & Outdoors", behavior="search-buy",
            plausibility=0.9, typicality=0.6, support=1, head_ids=()):
    return KnowledgeTriple(
        head=head, relation=relation, tail=tail, domain=domain,
        behavior=behavior, plausibility=plausibility, typicality=typicality,
        support=support, head_ids=head_ids,
    )


# -- column layout ----------------------------------------------------------


def test_columns_expose_trimmed_typed_arrays():
    kg = KnowledgeGraph()
    kg.add(_triple())
    kg.add(_triple(tail="hiking", plausibility=0.7))
    cols = kg.columns()
    assert cols["head"].dtype == cols["head_ids_len"].dtype == np.int32
    assert cols["plausibility"].dtype == np.float64
    assert cols["support"].dtype == np.int64
    assert len(cols["head"]) == len(kg) == 2
    assert cols["nodes"][cols["head"][0]] == "q ||| p"
    assert cols["nodes"][cols["tail"][0]] == "camping"
    assert list(cols["plausibility"]) == [0.9, 0.7]


def test_columns_grow_past_initial_capacity():
    kg = KnowledgeGraph()
    kg.extend([_triple(tail=f"tail {i:03d}") for i in range(100)])
    assert len(kg) == 100
    cols = kg.columns()
    assert len(cols["tail"]) == 100
    assert [t.tail for t in kg.triples()] == [f"tail {i:03d}" for i in range(100)]


def test_duplicate_merge_keeps_columns_compact():
    kg = KnowledgeGraph()
    kg.add(_triple(plausibility=0.5, typicality=0.4))
    kg.add(_triple(plausibility=0.8, typicality=0.1))
    cols = kg.columns()
    assert len(cols["head"]) == 1
    assert cols["plausibility"][0] == 0.8
    assert cols["typicality"][0] == 0.4
    assert cols["support"][0] == 2


def test_nodes_interned_across_heads_and_tails():
    kg = KnowledgeGraph()
    # The same string as a head of one edge and tail of another should
    # intern to a single node id (stats count it once).
    kg.add(_triple(head="camping", tail="warmth"))
    kg.add(_triple(head="boots", tail="camping"))
    assert kg.stats().nodes == 3


# -- CSR neighbor queries ---------------------------------------------------


def test_neighbors_returns_triples_for_one_head():
    kg = KnowledgeGraph()
    kg.add(_triple(head="h1", tail="a"))
    kg.add(_triple(head="h2", tail="b"))
    kg.add(_triple(head="h1", tail="c", relation=Relation.X_WANT))
    neighbors = kg.neighbors("h1")
    assert {t.tail for t in neighbors} == {"a", "c"}
    assert all(t.head == "h1" for t in neighbors)
    assert kg.neighbors("missing") == []


def test_neighbors_keep_every_relation_of_a_repeated_tail():
    kg = KnowledgeGraph()
    kg.add(_triple(head="h", tail="zebra"))
    kg.add(_triple(head="h", tail="apple", relation=Relation.X_WANT))
    kg.add(_triple(head="h", tail="apple", relation=Relation.CAPABLE_OF))
    assert [(t.tail, t.relation) for t in kg.neighbors("h")] == [
        ("zebra", Relation.USED_FOR_EVE), ("apple", Relation.X_WANT),
        ("apple", Relation.CAPABLE_OF)]


def test_csr_rebuilds_after_new_edges():
    kg = KnowledgeGraph()
    kg.add(_triple(head="h", tail="a"))
    assert [t.tail for t in kg.neighbors("h")] == ["a"]
    kg.add(_triple(head="h", tail="b", relation=Relation.X_WANT))
    assert [t.tail for t in kg.neighbors("h")] == ["a", "b"]


def test_reads_build_only_the_index_they_need():
    kg = KnowledgeGraph()
    kg.extend([_triple(head="h", tail="a", head_ids=("p1",)),
               _triple(head="g", tail="b", head_ids=("p2", "p3"))])
    # Whole-graph and per-domain reads need the provenance ends only.
    assert [t.head_ids for t in kg.triples()] == [("p1",), ("p2", "p3")]
    assert len(kg.for_domain("Sports & Outdoors")) == 2
    assert kg._head_ids_end is not None and kg._head_index is None
    assert [t.tail for t in kg.neighbors("h")] == ["a"]
    assert kg._head_index is not None
    # Each write drops the head index; the next lookup sees the new edge.
    kg.extend([_triple(head="h", tail="c", head_ids=("p4",))])
    assert [(t.tail, t.head_ids) for t in kg.neighbors("h")] == [
        ("a", ("p1",)), ("c", ("p4",))]
    kg.add(_triple(head="h", tail="d", relation=Relation.X_WANT,
                   head_ids=("p5",)))
    assert [(t.tail, t.head_ids) for t in kg.neighbors("h")] == [
        ("a", ("p1",)), ("c", ("p4",)), ("d", ("p5",))]
    # A merge rewrites a row's scores in place, and the copy follows.
    kg.add(_triple(head="h", tail="a", plausibility=0.95, support=2))
    first = kg.neighbors("h")[0]
    assert (first.plausibility, first.support) == (0.95, 3)


@given(st.lists(st.tuples(triples(), st.sampled_from(["h1", "h 2", "商品"]),
                          _provenance.filter(bool)), max_size=40))
@settings(max_examples=40, deadline=None)
def test_csr_neighbors_match_linear_scan(drawn):
    # Three heads, so each owns many rows that the head sort must keep
    # in insertion order, and every other edge surely has provenance.
    batch = [triple._replace(head=head,
                             head_ids=head_ids if i % 2 else triple.head_ids)
             for i, (triple, head, head_ids) in enumerate(drawn)]
    kg = KnowledgeGraph()
    kg.extend(batch)
    reference = kg.triples()
    for head in ["h1", "h 2", "商品", "never seen"]:
        # The same records, fields and insertion order, by ``repr``.
        assert repr(kg.neighbors(head)) == repr(
            [t for t in reference if t.head == head])


@given(st.lists(triples(), max_size=40))
@settings(max_examples=40, deadline=None)
def test_intern_tables_round_trip_every_string(batch):
    kg = KnowledgeGraph()
    kg.extend(batch)
    cols = kg.columns()
    nodes, relations = cols["nodes"], cols["relations"]
    domains, behaviors = cols["domains"], cols["behaviors"]
    for row, triple in enumerate(kg.triples()):
        assert nodes[cols["head"][row]] == triple.head
        assert nodes[cols["tail"][row]] == triple.tail
        assert relations[cols["relation"][row]] == triple.relation.value
        assert domains[cols["domain"][row]] == triple.domain
        assert behaviors[cols["behavior"][row]] == triple.behavior
    # Interning is bijective: no dangling or duplicated table entries.
    assert len(set(nodes)) == len(nodes)
    assert len(set(relations)) == len(relations)


# -- columns() / from_columns() boundary ------------------------------------


def _assert_same_graph(adopted, kg):
    assert adopted.triples() == kg.triples()
    assert adopted.stats() == kg.stats()
    assert columnar_digest(adopted) == columnar_digest(kg)
    reference = kg.triples()
    for head in {t.head for t in reference}:
        assert adopted.neighbors(head) == kg.neighbors(head)
    for domain, behavior in {(t.domain, t.behavior) for t in reference}:
        assert adopted.edges_for(domain, behavior) == kg.edges_for(domain, behavior)


@given(st.lists(triples(), max_size=40), st.lists(triples(), max_size=40))
@settings(max_examples=40, deadline=None)
def test_from_columns_is_the_inverse_of_columns(batch, more):
    kg = KnowledgeGraph()
    kg.extend(batch)
    adopted = KnowledgeGraph.from_columns(kg.columns())
    _assert_same_graph(adopted, kg)
    # The adopted graph keeps behaving like the original: a merge into an
    # adopted row, and enough new edges to outgrow the adopted arrays.
    further = batch[:1] + more + [
        _triple(head=f"fresh head {i:02d}") for i in range(len(batch) + 17)]
    kg.extend(further)
    adopted.extend(further)
    _assert_same_graph(adopted, kg)


def test_from_columns_copies_the_arrays():
    kg = KnowledgeGraph()
    kg.add(_triple(plausibility=0.5))
    adopted = KnowledgeGraph.from_columns(kg.columns())
    adopted.add(_triple(plausibility=0.9))   # merges into the adopted row
    assert kg.triples()[0].plausibility == 0.5
    assert kg.triples()[0].support == 1
    for name in ("head", "plausibility", "support"):
        assert adopted.columns()[name].dtype == kg.columns()[name].dtype


@pytest.mark.parametrize("override, message", [
    ({"tail": np.zeros(1, dtype=np.int32)}, "'tail' has 1 values for 2 edges"),
    ({"head_ids_len": np.zeros(1, dtype=np.int32)},
     "'head_ids_len' has 1 values for 2 edges"),
    ({"domain": np.array([0, 7], dtype=np.int32)},
     "'domain' has ids outside the 'domains' table"),
    ({"head": np.array([0.0, 0.5])}, "'head' is float64, not int32"),
    ({"nodes": ("q ||| p", "camping", "camping")}, "'nodes' repeats 'camping'"),
    ({"relations": ("USED_FOR_EVE", "madeUp")}, "'madeUp', which is not a Relation"),
    ({"tail": np.array([1, 1], dtype=np.int32),
      "relation": np.array([0, 0], dtype=np.int32)},
     "repeat the .head, relation, tail. key"),
    # A table string no row references: ``add`` never leaves one, the node
    # count is the table's length and the snapshot version ranks the table.
    ({"nodes": ("q ||| p", "camping", "hiking", "left over")},
     "table 'nodes' holds 'left over', which no row references"),
    ({"relations": ("USED_FOR_EVE", "xWant", "IS_A")},
     "table 'relations' holds 'IS_A', which no row references"),
    ({"domains": ("Sports & Outdoors", "Home")},
     "table 'domains' holds 'Home', which no row references"),
    ({"behaviors": ("search-buy", "co-buy")},
     "table 'behaviors' holds 'co-buy', which no row references"),
    ({name: np.zeros(0, dtype=np.int32) for name in
      ("head", "relation", "tail", "domain", "behavior")}
     | {name: np.zeros(0) for name in ("plausibility", "typicality")}
     | {"support": np.zeros(0, dtype=np.int64),
        "head_ids_len": np.zeros(0, dtype=np.int32)},
     "table 'nodes' holds 'q ... p', which no row references"),
    # Provenance: one non-negative integer length per edge, summing to
    # the flat id count — or a row would read another row's ids.
    ({"head_ids_len": np.array([1, 0], dtype=np.int32)},
     "'head_ids_flat' has 0 values: head_ids lengths disagree"),
    ({"head_ids_flat": ("p1",)}, "lengths disagree with flat values"),
    ({"head_ids_len": np.array([-1, 1], dtype=np.int32)}, "negative lengths"),
    ({"head_ids_len": np.array([0.0, 0.0])},
     "'head_ids_len' is float64, not int32"),
    ({"head_ids_len": np.zeros((2, 1), dtype=np.int32)},
     "'head_ids_len' has 2 values for 2 edges .shape .2, 1.."),
    ({"head": np.array(0, dtype=np.int32)},
     "'head' has 1 values for 1 edges .shape ..."),
])
def test_from_columns_rejects_what_add_could_not_have_built(override, message):
    columns = dict(_graph().columns(), **override)
    with pytest.raises(ValueError, match=message):
        KnowledgeGraph.from_columns(columns)


# -- columnar (de)serialization --------------------------------------------


def test_columnar_npz_round_trip(tmp_path):
    kg = KnowledgeGraph()
    kg.add(_triple())
    kg.add(KnowledgeTriple(
        head="q2 ||| boots", relation=Relation.X_WANT, tail="warm feet",
        domain="Electronics", behavior="co-buy", plausibility=0.75,
        typicality=0.5, support=3, head_ids=("p1", "p2"),
    ))
    path = tmp_path / "kg.npz"
    written = save_kg_columnar(kg, path)
    assert written == 2
    restored = load_kg_columnar(path)
    assert restored.triples() == kg.triples()
    assert restored.stats() == kg.stats()


@given(st.lists(triples(), max_size=30))
@settings(max_examples=25, deadline=None)
def test_columnar_round_trip_any_graph(tmp_path_factory, batch):
    kg = KnowledgeGraph()
    kg.extend(batch)
    path = tmp_path_factory.mktemp("kgcol") / "kg.npz"
    save_kg_columnar(kg, path)
    restored = load_kg_columnar(path)
    assert restored.triples() == kg.triples()
    assert columnar_digest(restored) == columnar_digest(kg)


def test_columnar_load_rejects_foreign_npz(tmp_path):
    path = tmp_path / "other.npz"
    np.savez_compressed(path, data=np.arange(3))
    with pytest.raises(ValueError):
        load_kg_columnar(path)


# -- snapshot column digest -------------------------------------------------


def _graph():
    kg = KnowledgeGraph()
    kg.add(_triple())
    kg.add(_triple(tail="hiking", relation=Relation.X_WANT))
    return kg


def test_columnar_digest_is_deterministic_and_content_sensitive():
    digest_a = columnar_digest(_graph())
    digest_b = columnar_digest(_graph())
    assert digest_a == digest_b

    changed = _graph()
    changed.add(_triple(tail="sailing"))
    assert columnar_digest(changed) != digest_a


def test_build_snapshot_stamps_digest_without_changing_version():
    graph = _graph()
    entries = {"q": "knowledge"}
    from_graph = build_snapshot(entries, graph=graph)
    from_triples = build_snapshot(entries, graph.triples())
    # The digest is an integrity witness, not part of snapshot identity:
    # the same content hashes to the same version either way, and every
    # manifest carries the digest of the columns it froze.
    assert from_graph.manifest.version == from_triples.manifest.version
    assert from_graph.manifest.columnar_digest == columnar_digest(graph)
    assert from_triples.manifest.columnar_digest == columnar_digest(graph)
    assert from_graph.manifest.columnar_digest != ""
    with pytest.raises(ValueError, match="not both"):
        build_snapshot(entries, graph.triples(), graph=graph)


# -- the row reader ---------------------------------------------------------


def _reference_row(kg, row):
    """The per-row body the column-at-a-time reader replaced, kept as the
    oracle: nine ``item`` reads, an enum call and a keyword constructor."""
    head_ids = ()
    count = kg._head_ids_len_col.item(row)
    if count:
        end = kg._ends().item(row)
        head_ids = tuple(kg._head_ids_flat[end - count:end])
    return KnowledgeTriple(
        head=kg._nodes.value(kg._head_col.item(row)),
        relation=Relation(kg._relations.value(kg._rel_col.item(row))),
        tail=kg._nodes.value(kg._tail_col.item(row)),
        domain=kg._domains.value(kg._domain_col.item(row)),
        behavior=kg._behaviors.value(kg._behavior_col.item(row)),
        plausibility=kg._plaus_col.item(row),
        typicality=kg._typ_col.item(row),
        support=kg._support_col.item(row),
        head_ids=head_ids,
    )


def _same_rows(got, want):
    """Equal records in the same order, with the same ``repr``.  A NaN
    score never equals itself, so those fields compare by ``isnan``."""
    assert repr(got) == repr(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        nan = {name for name in ("plausibility", "typicality")
               if math.isnan(getattr(b, name))}
        assert all(math.isnan(getattr(a, name)) for name in nan)
        assert (a._replace(**dict.fromkeys(nan, 0.0))
                == b._replace(**dict.fromkeys(nan, 0.0)))


def _assert_reads_match_reference(kg):
    rows = range(len(kg))
    _same_rows(kg.triples(), [_reference_row(kg, row) for row in rows])
    for domain in [*kg.domains(), "No Such Domain"]:
        domain_id = kg._domains.id_of(domain)
        _same_rows(kg.for_domain(domain),
                   [_reference_row(kg, row) for row in rows
                    if kg._domain_col[row] == domain_id])
    heads = {kg._nodes.value(kg._head_col.item(row)) for row in rows}
    for head in [*sorted(heads), "no such head"]:
        head_id = kg._nodes.id_of(head)
        _same_rows(kg.neighbors(head),
                   [_reference_row(kg, row) for row in rows
                    if kg._head_col[row] == head_id])


_scores = st.one_of(st.floats(0, 1), st.just(math.nan))


@st.composite
def _edges(draw, provenance):
    return _triple(
        head=draw(st.sampled_from(["h1", "h2", "h3"])),
        relation=draw(st.sampled_from(list(Relation)[:3])),
        tail=draw(st.sampled_from(["t1", "t2", "t3"])),
        domain=draw(st.sampled_from(["Electronics", "Pet Supplies", "Toys"])),
        behavior=draw(st.sampled_from(["co-buy", "search-buy"])),
        plausibility=draw(_scores), typicality=draw(_scores),
        support=draw(st.integers(1, 5)), head_ids=draw(provenance))


@pytest.mark.parametrize("provenance", [
    st.just(()),                # no row has any: the shared-empty branch
    _provenance,                # mixed: empty runs between non-empty ones
    st.lists(_product_ids, min_size=1, max_size=3).map(tuple),
], ids=["none", "mixed", "every-row"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_row_reader_matches_the_per_row_body(provenance, data):
    # 27 possible keys, so batches of up to 40 edges merge rows often.
    kg = KnowledgeGraph()
    kg.extend(data.draw(st.lists(_edges(provenance), max_size=40)))
    _assert_reads_match_reference(kg)
    # Rows added after a read: the lazy indexes are rebuilt first.
    kg.extend(data.draw(st.lists(_edges(provenance), max_size=10)))
    kg.add(data.draw(_edges(provenance)))
    _assert_reads_match_reference(kg)
    # A graph adopted from columns has never built its indexes.
    _assert_reads_match_reference(KnowledgeGraph.from_columns(kg.columns()))


@given(st.lists(triples(), max_size=40))
@settings(max_examples=30, deadline=None)
def test_row_reader_matches_the_per_row_body_on_real_text(batch):
    kg = KnowledgeGraph()
    kg.extend(batch)
    _assert_reads_match_reference(kg)


def test_row_reader_keeps_nan_scores_and_merged_rows():
    kg = KnowledgeGraph()
    kg.extend([
        _triple(plausibility=math.nan, head_ids=("p1",)),
        _triple(plausibility=0.4, typicality=0.8, support=2,
                head_ids=("p2",)),
        _triple(tail="hiking", typicality=math.nan),
    ])
    first, second = kg.triples()
    assert math.isnan(first.plausibility)   # a NaN first insert sticks
    assert (first.typicality, first.support, first.head_ids) == (
        0.8, 3, ("p1",))
    assert math.isnan(second.typicality) and second.head_ids == ()
    _assert_reads_match_reference(kg)


def test_row_reader_returns_plain_python_values():
    kg = KnowledgeGraph()
    kg.add(_triple(support=3, head_ids=("p1", "p2")))
    (triple,) = kg.neighbors("q ||| p")
    assert [type(getattr(triple, name)) for name in (
        "head", "relation", "plausibility", "support", "head_ids")] == [
        str, Relation, float, int, tuple]
    assert triple.relation is Relation.USED_FOR_EVE
    assert kg.for_domain("No Such Domain") == []
    assert kg.neighbors("no such head") == []
    assert KnowledgeGraph().triples() == []


# -- the KnowledgeTriple record ---------------------------------------------


def test_triple_is_a_read_only_named_tuple():
    triple = _triple(head_ids=("p1",))
    assert not hasattr(triple, "__dict__")
    with pytest.raises(AttributeError):
        triple.plausibility = 0.1
    with pytest.raises(AttributeError):
        triple.head_ids = ()
    with pytest.raises(AttributeError):
        triple.note = "not a field"
    assert isinstance(triple, tuple)
    assert triple == tuple(getattr(triple, name) for name in triple._fields)


def test_triple_hashes_and_compares_with_provenance():
    a = _triple(head_ids=("p1",))
    b = _triple(head_ids=("p2", "p3"))
    assert a != b
    assert a == _triple(head_ids=("p1",))
    assert hash(a) == hash(_triple(head_ids=("p1",)))
    assert len({a, b, _triple(head_ids=("p1",))}) == 2


def test_triple_round_trips_through_pickle_copy_and_replace():
    triple = _triple(support=4, head_ids=("p1", "商品-7"))
    assert pickle.loads(pickle.dumps(triple)) == triple
    assert copy.deepcopy(triple) == triple
    assert copy.copy(triple) == triple
    moved = triple._replace(tail="hiking")
    assert (moved.tail, moved.head_ids, moved.support) == (
        "hiking", ("p1", "商品-7"), 4)
    assert triple._replace() == triple
