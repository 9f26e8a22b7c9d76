"""FeatureStore: stored text, refresh-day versioning, and staleness."""

from repro.serving.clock import SimClock
from repro.serving.feature_store import FeatureStore


def test_put_get_roundtrip_and_containment():
    store = FeatureStore(SimClock())
    store.put_many([("tent", "it is used for camping.")])
    assert store.text("tent") == "it is used for camping."
    assert store.text("other") is None
    assert len(store) == 1


def test_records_version_by_refresh_day():
    clock = SimClock()
    store = FeatureStore(clock)
    store.put_many([("a", "it is used for x.")])
    clock.advance_days(3)
    store.put_many([("a", "it is used for z.")])  # refresh overwrites the version
    assert store._records["a"] == ("it is used for z.", 3)
    assert store.stale_keys() == []


def test_stale_keys_follow_refreshes():
    clock = SimClock()
    store = FeatureStore(clock)
    store.put_many([("old", "it is used for x.")])
    clock.advance_days(2)
    store.put_many([("fresh", "it is used for y.")])

    assert store.stale_keys() == ["old"]
    # A refresh clears the staleness.
    store.put_many([("old", "it is used for x.")])
    assert store.stale_keys() == []


def test_boundary_age_is_not_stale():
    clock = SimClock()
    store = FeatureStore(clock)
    store.put_many([("edge", "it is used for x.")])
    clock.advance_days(1)
    assert store.stale_keys() == []  # age == max is still fresh
    clock.advance_days(1)
    assert store.stale_keys() == ["edge"]
