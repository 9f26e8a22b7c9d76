"""The feature store's window-level write (``put_many``) and its reads.

The store's entries are diffed against a ``key -> (text, day)`` dict
model, a bad response is rejected before anything of its window is
stored, and a counting wrapper around every loaded ``parse_predicate``
pins that the serve path never parses a stored response.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relations import parse_predicate
from repro.llm.interface import Generation, GenerationBatch, LatencyModel
from repro.serving import BatchCostModel, CosmoService, ServeRequest, SimClock
from repro.serving.chaos import ScriptedGenerator
from repro.serving.feature_store import FeatureStore


def _store():
    return FeatureStore(SimClock())


def _stored(store):
    return [(key, text, day) for key, (text, day) in store._records.items()]


def test_put_many_repeated_key_last_wins_and_every_pair_counts():
    store = _store()
    store.put_many([("a", "first"), ("b", "it is used for y."), ("a", "last")])
    assert store.text("a") == "last"
    assert _stored(store) == [("a", "last", 0), ("b", "it is used for y.", 0)]


def test_put_many_empty_window_touches_nothing():
    store = _store()
    store.put_many([("a", "it is used for x.")])
    before = _stored(store)
    store._clock = None  # no clock read either: it would raise here
    store.put_many([])
    assert _stored(store) == before


# -- the store's entries against a dict model ---------------------------------
_texts = st.one_of(st.sampled_from(["it is used for x.", "noise", ""]),
                   st.sampled_from([None, b"it is used for x.", 7]))
_store_ops = st.lists(st.one_of(
    st.tuples(st.just("put_many"),
              st.lists(st.tuples(st.sampled_from("abcd"), _texts), max_size=5)),
    st.tuples(st.just("day"), st.integers(1, 2)),
), max_size=20)


@given(ops=_store_ops)
@settings(max_examples=200, deadline=None)
def test_entries_match_a_dict_of_text_and_day(ops):
    store, model = _store(), {}  # model: key -> (text, day)
    for op, arg in ops:
        day = store._clock.day
        if op == "day":
            store._clock.advance_days(arg)
        elif not all(isinstance(text, str) for _, text in arg):
            with pytest.raises(TypeError):
                store.put_many(arg)
            # a window with one non-str text stores nothing
        else:
            store.put_many(arg)
            model.update({key: (text, day) for key, text in arg})
        assert len(store) == len(model)
        assert store._records == model
        # Same entries in the same order (stale_keys order feeds prompts).
        assert list(store._records) == list(model)
        for key in "abcde":
            assert store.text(key) == (model[key][0] if key in model else None)
        today = store._clock.day
        assert store.stale_keys() == [
            key for key, (_, day) in model.items() if today - day > 1]


# -- a bad response fails at the write ----------------------------------------
@pytest.mark.parametrize("bad", [None, b"it is used for x.", 7])
def test_put_rejects_non_str_text_before_storing(bad):
    store = _store()
    with pytest.raises(TypeError, match="'k2'"):
        store.put_many([("k2", bad)])
    assert len(store) == 0 and store.stale_keys() == []


def test_put_many_with_one_bad_pair_stores_none_of_them():
    store = _store()
    store.put_many([("kept", "it is used for x.")])
    with pytest.raises(TypeError, match="'k2'"):
        store.put_many([("k1", "it is used for y."), ("k2", None),
                        ("kept", "overwritten")])
    assert _stored(store) == [("kept", "it is used for x.", 0)]


# -- the serve path never parses ----------------------------------------------
@pytest.fixture
def parse_calls(monkeypatch):
    calls, original = [], parse_predicate

    def counting(text):
        calls.append(text)
        return original(text)

    holders = [module for module in list(sys.modules.values())
               if getattr(module, "parse_predicate", None) is original]
    assert holders  # at least repro.core.relations itself
    for module in holders:
        monkeypatch.setattr(module, "parse_predicate", counting)
    return calls


@pytest.mark.parametrize("batch_costs", [None, BatchCostModel()])
def test_serve_path_never_parses(parse_calls, batch_costs):
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
    assert direct.source == "direct"
    assert service.features.text("direct one") == direct.text
    assert list(service.features._records) == queries + ["direct one"]
    # A miss, a flush, a degraded serve and a direct request parse nothing.
    assert parse_calls == []


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
    old_b = service.features._records["b"]
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
    assert service.features._records["b"] == old_b  # stale beats nothing
    assert [service.features._records[q][1] for q in "abc"] == [2, 0, 2]
    assert service.features.stale_keys() == ["b"]
