"""Lazy feature records and the window-level write (``put_many``).

A record is structured on first read of a structured field, so the old
eager ``FeatureStore.structure`` body lives on here as the reference the
lazy record is diffed against, ``put_many`` is diffed against the ``put``
loop it replaces in ``CosmoService._install``, and a counting wrapper
around ``parse_predicate`` pins that the serve path never parses.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relations import (
    RELATION_SPECS,
    Relation,
    parse_predicate,
    verbalize,
)
from repro.llm.interface import Generation, GenerationBatch, LatencyModel
from repro.serving import BatchCostModel, CosmoService, ServeRequest, SimClock
from repro.serving import feature_store as feature_store_module
from repro.serving.chaos import ScriptedGenerator
from repro.serving.feature_store import FeatureStore

_ATTRIBUTES = ("key", "knowledge_text", "relation", "tail", "tail_type",
               "strong_intent", "refreshed_day", "extras")


def _eager_structure(key, knowledge_text, refreshed_day, extras=None) -> dict:
    """``FeatureStore.structure`` as it was when every ``put`` parsed."""
    parsed = parse_predicate(knowledge_text)
    relation_name = tail = tail_type = None
    strong = False
    if parsed is not None:
        relation, tail = parsed
        relation_name = relation.value
        tail_type = RELATION_SPECS[relation].tail_type.value
        strong = relation in (
            Relation.USED_FOR_EVE, Relation.X_WANT, Relation.USED_FOR_FUNC,
            Relation.CAPABLE_OF, Relation.USED_TO,
        )
    return dict(
        key=key,
        knowledge_text=knowledge_text,
        relation=relation_name,
        tail=tail,
        tail_type=tail_type,
        strong_intent=strong,
        refreshed_day=refreshed_day,
        extras=extras or {},
    )


# -- (i) lazy record == eager structure ---------------------------------------
_CASINGS = (str, str.upper, str.lower, str.title, str.swapcase)
_tails = st.one_of(
    st.sampled_from(["", " ", "camping", "walk the dog", "Dry Face.", "a. b"]),
    st.text(alphabet="abc XYZ.-'é", max_size=12),
)


@st.composite
def _responses(draw):
    if draw(st.integers(0, 5)) == 0:  # unparseable noise
        return draw(st.text(max_size=30))
    spec = RELATION_SPECS[draw(st.sampled_from(sorted(RELATION_SPECS)))]
    text = draw(st.sampled_from(_CASINGS))(spec.template.format(draw(_tails)))
    padding = st.sampled_from(["", " ", "  ", "\t", "\n"])
    dots = draw(st.sampled_from(["", ".", "..", " .", ". "]))
    return draw(padding) + text + dots + draw(padding)


@pytest.mark.parametrize("relation", sorted(RELATION_SPECS))
def test_each_of_the_fifteen_templates_structures_like_the_eager_body(relation):
    assert len(RELATION_SPECS) == 15
    text = f"  {verbalize(relation, RELATION_SPECS[relation].example).title()}. "
    record = FeatureStore.structure("k", text, 3)
    assert record.relation == relation.value
    assert {name: getattr(record, name) for name in _ATTRIBUTES} == (
        _eager_structure("k", text, 3))


@given(text=_responses(), day=st.integers(0, 400),
       extras=st.one_of(st.none(), st.dictionaries(st.text(max_size=3),
                                                   st.text(max_size=3),
                                                   max_size=2)),
       read_order=st.permutations(_ATTRIBUTES))
@settings(max_examples=400, deadline=None)
def test_lazy_record_equals_eager_structure(text, day, extras, read_order):
    reference = _eager_structure("k", text, day, extras)
    record = FeatureStore.structure("k", text, day, extras)
    for name in read_order:  # whichever structured field is read first
        assert getattr(record, name) == reference[name], name
    assert record == FeatureStore.structure("k", text, day, extras)


def test_record_surface_is_the_eight_attributes_and_immutable():
    record = FeatureStore.structure("tent", "it is used for camping.", 0)
    assert record.__slots__ == _ATTRIBUTES
    for name in _ATTRIBUTES:
        with pytest.raises(AttributeError):
            setattr(record, name, "x")
    with pytest.raises(AttributeError):
        record.parsed
    assert "relation='USED_FOR_FUNC'" in repr(record)


# -- (ii) put_many == the put loop --------------------------------------------
def _store():
    return FeatureStore(SimClock())


def _stored(store):
    return [(r.key, r.knowledge_text, r.refreshed_day, r.extras)
            for r in map(store.get, store._records)]


_pairs = st.lists(st.tuples(st.sampled_from("abcdef"),
                            st.sampled_from(["it is used for x.", "noise", ""])),
                  max_size=8)


@given(windows=st.lists(st.tuples(_pairs, st.integers(0, 2)), max_size=6))
@settings(max_examples=200, deadline=None)
def test_put_many_equals_the_put_loop(windows):
    looped, bulk = _store(), _store()
    for pairs, days in windows:
        for store in (looped, bulk):
            store._clock.advance_days(days)
        for key, text in pairs:
            looped.put(key, text)
        bulk.put_many(pairs)
        # Same records in the same order (stale_keys order feeds prompts).
        assert _stored(bulk) == _stored(looped)
        assert bulk.stale_keys() == looped.stale_keys()


def test_put_many_repeated_key_last_wins_and_every_pair_counts():
    store = _store()
    store.put_many([("a", "first"), ("b", "it is used for y."), ("a", "last")])
    assert store.get("a").knowledge_text == "last"
    assert _stored(store) == [("a", "last", 0, {}), ("b", "it is used for y.", 0, {})]


def test_put_many_empty_window_touches_nothing():
    store = _store()
    store.put("a", "it is used for x.")
    before = _stored(store)
    store._clock = None  # no clock read either: it would raise here
    store.put_many([])
    assert _stored(store) == before


# -- (iv) the store's entries against a dict model ------------------------------
_texts = st.one_of(st.sampled_from(["it is used for x.", "noise", ""]),
                   st.sampled_from([None, b"it is used for x.", 7]))
_extras = st.one_of(st.none(), st.dictionaries(st.sampled_from("uv"),
                                               st.sampled_from("xy"), max_size=2))
_store_ops = st.lists(st.one_of(
    st.tuples(st.just("put"), st.sampled_from("abcd"), _texts, _extras),
    st.tuples(st.just("put_many"),
              st.lists(st.tuples(st.sampled_from("abcd"), _texts), max_size=5)),
    st.tuples(st.just("day"), st.integers(1, 2)),
), max_size=20)


@given(ops=_store_ops)
@settings(max_examples=200, deadline=None)
def test_entries_match_a_dict_of_text_day_and_extras(ops):
    store, model = _store(), {}  # model: key -> (text, day, extras)
    for op, *args in ops:
        day = store._clock.day
        if op == "day":
            store._clock.advance_days(args[0])
        elif op == "put":
            key, text, extras = args
            if not isinstance(text, str):
                with pytest.raises(TypeError):
                    store.put(key, text, extras)
                continue
            record = store.put(key, text, extras)
            model[key] = (text, day, dict(extras or {}))
            assert record == FeatureStore.structure(key, *model[key])
        else:
            (pairs,) = args
            if not all(isinstance(text, str) for _, text in pairs):
                with pytest.raises(TypeError):
                    store.put_many(pairs)
                continue  # a window with one non-str text stores nothing
            store.put_many(pairs)
            model.update({key: (text, day, {}) for key, text in pairs})
        assert len(store) == len(model)
        for key in "abcde":
            if key not in model:
                assert key not in store
                assert store.get(key) is None and store.text(key) is None
                continue
            record = store.get(key)
            assert record == FeatureStore.structure(key, *model[key])
            assert store.text(key) == record.knowledge_text == model[key][0]
        today = store._clock.day
        assert store.stale_keys() == [
            key for key, (_, day, _) in model.items() if today - day > 1]


# -- a bad response fails at the write ----------------------------------------
@pytest.mark.parametrize("bad", [None, b"it is used for x.", 7])
def test_put_rejects_non_str_text_before_storing(bad):
    store = _store()
    with pytest.raises(TypeError, match="'k2'"):
        store.put("k2", bad)
    assert len(store) == 0 and store.stale_keys() == []


def test_put_many_with_one_bad_pair_stores_none_of_them():
    store = _store()
    store.put("kept", "it is used for x.")
    with pytest.raises(TypeError, match="'k2'"):
        store.put_many([("k1", "it is used for y."), ("k2", None),
                        ("kept", "overwritten")])
    assert _stored(store) == [("kept", "it is used for x.", 0, {})]


# -- (iii) the serve path never parses ----------------------------------------
@pytest.fixture
def parse_calls(monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return parse_predicate(text)

    monkeypatch.setattr(feature_store_module, "parse_predicate", counting)
    return calls


@pytest.fixture
def record_builds(monkeypatch):
    built = []
    record = feature_store_module.FeatureRecord

    def counting(key, *fields):
        built.append(key)
        return record(key, *fields)

    monkeypatch.setattr(feature_store_module, "FeatureRecord", counting)
    return built


@pytest.mark.parametrize("batch_costs", [None, BatchCostModel()])
def test_serve_path_never_parses_and_a_reader_parses_once(parse_calls, record_builds,
                                                          batch_costs):
    service = CosmoService(ScriptedGenerator(), clock=SimClock(), seed=3,
                           batch_costs=batch_costs)
    queries = [f"query {i}" for i in range(8)]
    misses = service.serve_batch([ServeRequest(query=q) for q in queries])
    assert {r.source for r in misses} == {"fallback"}
    assert service.run_batch() == len(queries)
    service.clock.advance_days(1)  # daily layer expires; features survive
    degraded = service.serve_batch([ServeRequest(query=q) for q in queries])
    assert {r.source for r in degraded} == {"feature_store"}
    assert [r.text for r in degraded] == [
        ScriptedGenerator.knowledge_for(q) for q in queries]
    direct = service.serve(ServeRequest(query="direct one", direct=True))
    assert direct.source == "direct" and "direct one" in service.features
    assert list(service.features._records) == queries + ["direct one"]
    assert parse_calls == []
    # A miss, a flush, a degraded serve and a direct request build no record.
    assert record_builds == []

    record = service.features.get("query 3")
    assert record_builds == ["query 3"]
    assert record.relation == "USED_FOR_FUNC"
    assert record.tail == "query 3"
    assert record.strong_intent
    assert parse_calls == ["it is used for query 3."]


# -- one "remember these answers" step ----------------------------------------
class _FailsFor:
    """Answers every prompt except the ones in ``failing``, whose answers
    come back empty (the service's validator rejects them)."""

    parameter_count = 1_000_000

    def __init__(self):
        self.latency = LatencyModel()
        self.failing: set[str] = set()
        self.version = 1

    def generate_batch(self, prompts):
        return GenerationBatch(generations=[
            Generation(
                text="" if prompt in self.failing
                else f"it is used for {prompt} v{self.version}.", tokens=8,
                latency_s=self.latency.charge(self.parameter_count, 8))
            for prompt in prompts
        ])


def test_stale_refresh_is_one_window_and_a_failed_generation_keeps_its_record(
        monkeypatch):
    generator = _FailsFor()
    service = CosmoService(generator, clock=SimClock())
    for query in ("a", "b", "c"):
        service.serve(ServeRequest(query=query))
    assert service.run_batch() == 3
    old_b = service.features.get("b")
    service.clock.advance_days(2)  # all three features are stale now
    generator.failing, generator.version = {"b"}, 2
    windows, cache_writes = [], []
    put_many = service.features.put_many
    monkeypatch.setattr(service.features, "put_many",
                        lambda pairs: (windows.append(list(pairs)), put_many(pairs)))
    monkeypatch.setattr(service.cache, "apply_batch", cache_writes.append)
    report = service.daily_refresh()
    assert report["refreshed"] == 2  # the non-None generations
    assert windows == [[("a", "it is used for a v2."), ("c", "it is used for c v2.")]]
    assert cache_writes == []  # a stale refresh does not touch the cache
    assert list(service.features._records) == ["a", "b", "c"]
    assert service.features.get("b") == old_b  # stale beats nothing
    assert [service.features.get(q).refreshed_day for q in "abc"] == [2, 0, 2]
    assert service.features.stale_keys() == ["b"]
