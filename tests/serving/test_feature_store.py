"""FeatureStore: structuring, versioning, and staleness observability."""

from repro.serving.clock import SimClock
from repro.serving.feature_store import FeatureStore


def test_structure_parses_relation_tail_and_strong_intent():
    record = FeatureStore.structure("tent", "it is used for camping.", refreshed_day=0)
    assert record.relation == "USED_FOR_FUNC"
    assert record.tail == "camping"
    assert record.tail_type
    assert record.strong_intent
    assert record.refreshed_day == 0


def test_structure_handles_unparseable_text():
    record = FeatureStore.structure("x", "complete gibberish", refreshed_day=2)
    assert record.relation is None and record.tail is None
    assert not record.strong_intent
    assert record.knowledge_text == "complete gibberish"


def test_put_get_roundtrip_and_containment():
    store = FeatureStore(SimClock())
    record = store.put("tent", "it is used for camping.", extras={"src": "lm"})
    assert store.get("tent") == record
    assert "tent" in store and "other" not in store
    assert len(store) == 1
    assert record.extras == {"src": "lm"}
    assert store.get("missing") is None


def test_stored_extras_survive_mutating_the_callers_dict_and_any_view():
    store = FeatureStore(SimClock())
    extras = {"src": "lm"}
    record = store.put("tent", "it is used for camping.", extras=extras)
    extras["src"] = "edited after the write"
    extras["new"] = "x"
    assert store.get("tent").extras == {"src": "lm"}
    record.extras["src"] = "edited through the returned view"
    store.get("tent").extras.clear()
    assert store.get("tent").extras == {"src": "lm"}
    assert store.get("tent").extras is not store.get("tent").extras


def test_records_version_by_refresh_day():
    clock = SimClock()
    store = FeatureStore(clock)
    store.put("a", "it is used for x.")
    clock.advance_days(3)
    store.put("a", "it is used for z.")  # refresh overwrites the version
    assert store.get("a").refreshed_day == 3


def test_stale_keys_follow_refreshes():
    clock = SimClock()
    store = FeatureStore(clock)
    store.put("old", "it is used for x.")
    clock.advance_days(2)
    store.put("fresh", "it is used for y.")

    assert store.stale_keys() == ["old"]
    # A refresh clears the staleness.
    store.put("old", "it is used for x.")
    assert store.stale_keys() == []


def test_boundary_age_is_not_stale():
    clock = SimClock()
    store = FeatureStore(clock)
    store.put("edge", "it is used for x.")
    clock.advance_days(1)
    assert store.stale_keys() == []  # age == max is still fresh
    clock.advance_days(1)
    assert store.stale_keys() == ["edge"]
