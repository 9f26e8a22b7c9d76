"""The contract of the two per-read records, :class:`KnowledgeTriple` and
:class:`Generation`: named tuples that the graph's readers build in C.

A graph read (``triples()``, ``for_domain()``, ``neighbors()``) returns
records of exactly :class:`KnowledgeTriple`, each equal to the one built
by keyword from the graph's columns, field for field in column order.
Every record round-trips through ``_replace``, ``pickle``, ``copy`` and
``deepcopy``; equal records hash alike; and no field, nor any other
attribute, can be set or deleted.
"""

import copy
import inspect
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kg import ARRAY_COLUMNS, KnowledgeGraph
from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple
from repro.llm.interface import Generation, GenerationTruth

#: Few distinct values per field, so two drawn records are often equal
#: (or equal but for one field), and a graph's heads, domains and keys
#: repeat.
_text = st.sampled_from(["", "a", "b", "商品 7"])
_float = st.sampled_from([0.0, 0.5, 1.0, float("inf")])
_int = st.integers(0, 2)

FIELDS = {
    KnowledgeTriple: {
        "head": _text,
        "relation": st.sampled_from([Relation.USED_WITH, Relation.X_WANT]),
        "tail": _text,
        "domain": _text,
        "behavior": _text,
        "plausibility": _float,
        "typicality": _float,
        "support": _int,
        "head_ids": st.sampled_from([(), ("p1",), ("p1", "p2")]),
    },
    Generation: {
        "text": _text,
        "tokens": _int,
        "latency_s": _float,
        "truth": st.sampled_from([None, GenerationTruth("typical"),
                                  GenerationTruth("generic", "i1")]),
    },
}
CLASSES = list(FIELDS)


def _values(draw, cls) -> dict:
    return {name: draw(strategy) for name, strategy in FIELDS[cls].items()}


_triples = st.fixed_dictionaries(FIELDS[KnowledgeTriple]).map(
    lambda values: KnowledgeTriple(**values))


def _column_rows(kg: KnowledgeGraph) -> list[tuple]:
    """Every row of ``kg`` read straight off :meth:`~KnowledgeGraph.columns`,
    one value per column in column order, ids resolved through their
    tables and the provenance length into its run of ids."""
    cols = kg.columns()
    nodes, domains, behaviors = cols["nodes"], cols["domains"], cols["behaviors"]
    relations = [Relation(value) for value in cols["relations"]]
    ends = np.cumsum(cols["head_ids_len"]).tolist()
    return [(nodes[head], relations[relation], nodes[tail], domains[domain],
             behaviors[behavior], plausibility, typicality, support,
             cols["head_ids_flat"][end - count:end])
            for head, relation, tail, domain, behavior, plausibility,
            typicality, support, count, end in zip(
                *(cols[name].tolist() for name in ARRAY_COLUMNS), ends)]


def test_fields_follow_the_graph_columns():
    assert KnowledgeTriple._fields == (*ARRAY_COLUMNS[:-1], "head_ids")
    assert ARRAY_COLUMNS[-1] == "head_ids_len"


@settings(max_examples=100, deadline=None)
@given(batch=st.lists(_triples, max_size=12), probe=_text)
def test_every_read_returns_keyword_built_records_in_column_order(batch, probe):
    kg = KnowledgeGraph()
    kg.extend(batch)
    rows = _column_rows(kg)
    expected = [KnowledgeTriple(**dict(zip(KnowledgeTriple._fields, row)))
                for row in rows]
    reads = {
        "triples": (kg.triples(), expected),
        "for_domain": (kg.for_domain(probe),
                       [t for t in expected if t.domain == probe]),
        "neighbors": (kg.neighbors(probe),
                      [t for t in expected if t.head == probe]),
    }
    for name, (records, wanted) in reads.items():
        assert [type(record) for record in records] == (
            [KnowledgeTriple] * len(wanted)), name
        assert records == wanted, name
    assert [tuple(record) for record in kg.triples()] == rows


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_replace_pickle_and_copies_round_trip(cls, data):
    values = _values(data.draw, cls)
    changed = {name: value for name, value in _values(data.draw, cls).items()
               if data.draw(st.booleans())}
    record = cls(**values)
    moved = record._replace(**changed)
    assert type(moved) is cls
    assert moved._asdict() == {**values, **changed}
    assert record._replace() == record
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls
        assert clone == record
        assert hash(clone) == hash(record)
        assert repr(clone) == repr(record)
    with pytest.raises(ValueError):
        record._replace(unknown=1)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_equal_records_hash_alike(cls, data):
    one, two = (cls(**_values(data.draw, cls)) for _ in range(2))
    assert (one == two) is (one._asdict() == two._asdict())
    assert (one != two) is not (one == two)
    if one == two:
        assert hash(one) == hash(two)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_no_field_or_other_attribute_can_be_set(cls, data):
    values = _values(data.draw, cls)
    record = cls(**values)
    for name in (*values, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, values.get(name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record._asdict() == values
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_positional_keyword_and_default_construction_agree(cls, data):
    values = _values(data.draw, cls)
    assert cls(*values.values()) == cls(**values)
    required = {name: value for name, value in values.items()
                if name not in cls._field_defaults}
    assert cls(**required) == cls(**required, **cls._field_defaults)
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls(**dict(values, unknown=1))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_signature_follows_the_field_list(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert tuple(p.name for p in params) == cls._fields == tuple(FIELDS[cls])
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    assert {p.name: p.default for p in params
            if p.default is not inspect.Parameter.empty} == cls._field_defaults
    assert cls.__match_args__ == cls._fields
