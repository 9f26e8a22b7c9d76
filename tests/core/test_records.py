"""The hand-written ``__init__`` of the two per-read records against the
frozen dataclass it stands in for.

:class:`KnowledgeTriple` and :class:`Generation` write each field through
its slot's setter instead of the generated ``object.__setattr__`` per
field.  Each is diffed here against a reference that
``dataclasses.make_dataclass(..., frozen=True, slots=True)`` builds from
the same ``fields()``: the field values, ``==``, ``hash`` and ``repr``;
positional, keyword and default construction; ``replace``, ``pickle``,
``copy`` and ``deepcopy``; ``FrozenInstanceError``; and the
constructor's signature.
"""

import copy
import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple
from repro.llm.interface import Generation, GenerationTruth


def _reference(cls):
    """A frozen dataclass with ``cls``'s name and fields, and the
    ``__init__`` the dataclass machinery generates."""
    specs = []
    for f in dataclasses.fields(cls):
        kwargs = {"hash": f.hash, "compare": f.compare, "repr": f.repr}
        if f.default is not dataclasses.MISSING:
            kwargs["default"] = f.default
        specs.append((f.name, f.type, dataclasses.field(**kwargs)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True,
                                      slots=True)


_texts = st.text(max_size=8)
_floats = st.floats(allow_nan=True, allow_infinity=True)
#: Few distinct values per field, so two drawn records are often equal
#: (or equal but for the unhashed provenance).
_small = {
    "text": st.sampled_from(["", "a", "b"]),
    "float": st.sampled_from([0.0, 0.5, 1.0]),
    "int": st.integers(0, 2),
}

FIELDS = {
    KnowledgeTriple: {
        "head": (_texts, _small["text"]),
        "relation": (st.sampled_from(list(Relation)),) * 2,
        "tail": (_texts, _small["text"]),
        "domain": (_texts, _small["text"]),
        "behavior": (_texts, _small["text"]),
        "plausibility": (_floats, _small["float"]),
        "typicality": (_floats, _small["float"]),
        "support": (st.integers(), _small["int"]),
        "head_ids": (st.lists(_texts, max_size=3).map(tuple),
                     st.sampled_from([(), ("p1",), ("p1", "p2")])),
    },
    Generation: {
        "text": (_texts, _small["text"]),
        "tokens": (st.integers(), _small["int"]),
        "latency_s": (_floats, _small["float"]),
        "truth": (st.none() | st.builds(GenerationTruth, _texts,
                                        st.none() | _texts),
                  st.sampled_from([None, GenerationTruth("typical")])),
    },
}
CLASSES = list(FIELDS)
REFERENCES = {cls: _reference(cls) for cls in CLASSES}


def _values(draw, cls, small=False):
    return {name: draw(strategies[small])
            for name, strategies in FIELDS[cls].items()}


def _fields(record) -> tuple:
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


def _same_fields(record, other) -> bool:
    """Field by field, each the same object (a NaN included)."""
    return all(a is b for a, b in zip(_fields(record), _fields(other),
                                      strict=True))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fields_eq_hash_and_repr_match_the_reference(cls, data):
    reference = REFERENCES[cls]
    small = data.draw(st.booleans())
    one = _values(data.draw, cls, small)
    two = _values(data.draw, cls, small)
    record, ref = cls(**one), reference(**one)
    assert _same_fields(record, ref)
    assert all(value is one[name] for name, value in
               zip(one, _fields(record), strict=True))
    assert hash(record) == hash(ref)
    assert repr(record) == repr(ref)
    other, ref_other = cls(**two), reference(**two)
    assert (record == other) is (ref == ref_other)
    assert (record != other) is (ref != ref_other)
    assert record == cls(**one)
    assert (record == ref) is False


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_positional_keyword_and_default_construction_agree(cls, data):
    reference = REFERENCES[cls]
    values = _values(data.draw, cls)
    assert _same_fields(cls(*values.values()), reference(**values))
    required = {f.name: values[f.name] for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING}
    assert _same_fields(cls(**required), reference(**required))
    assert _same_fields(cls(*required.values()), reference(**required))
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls(**dict(values, unknown=1))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_replace_pickle_and_copies_match_the_reference(cls, data):
    reference = REFERENCES[cls]
    values = _values(data.draw, cls)
    changed = {name: value for name, value in _values(data.draw, cls).items()
               if data.draw(st.booleans())}
    record, ref = cls(**values), reference(**values)
    moved = dataclasses.replace(record, **changed)
    assert type(moved) is cls
    assert _same_fields(moved, dataclasses.replace(ref, **changed))
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls
        assert repr(clone) == repr(ref)
        assert hash(clone) == hash(reference(*_fields(clone)))
    assert _same_fields(copy.copy(record), record)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_field_is_frozen_like_the_reference(cls, data):
    values = _values(data.draw, cls)
    refused = []
    for record in (cls(**values), REFERENCES[cls](**values)):
        for name in values:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, values[name])
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
        # A name that is no field: whatever the frozen slotted dataclass
        # raises (the interpreter's own version decides which), both do.
        with pytest.raises(Exception) as caught:
            record.unknown = 1
        refused.append(caught.type)
        assert all(a is b for a, b in zip(_fields(record), values.values(),
                                          strict=True))
    assert refused[0] is refused[1]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_signature_and_slots_follow_the_field_list(cls):
    names = [f.name for f in dataclasses.fields(cls)]
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == names
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    assert [p.default for p in params] == [
        inspect.Parameter.empty if f.default is dataclasses.MISSING
        else f.default for f in dataclasses.fields(cls)]
    reference = inspect.signature(REFERENCES[cls]).parameters.values()
    assert ([(p.name, p.kind, p.default) for p in params]
            == [(p.name, p.kind, p.default) for p in reference])
    assert cls.__slots__ == tuple(names)
    assert cls.__match_args__ == tuple(names)
    assert dataclasses.is_dataclass(cls)
    assert cls.__dataclass_params__.frozen
    assert not cls.__dataclass_params__.init
