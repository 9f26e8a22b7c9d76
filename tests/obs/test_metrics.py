"""Metrics primitives: counters, streaming histograms, registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Histogram,
    MetricsRegistry,
)


# -- counter ------------------------------------------------------------


def test_counter_increments_and_rejects_decrease():
    counter = Counter()
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram(())
    with pytest.raises(ValueError):
        Histogram((1.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        Histogram((2.0, 1.0))


def test_histogram_exact_aggregates_without_sample_storage():
    hist = Histogram((0.01, 0.1, 1.0))
    for value in (0.002, 0.002, 0.05, 0.5, 3.0):
        hist.observe(value)
    assert hist.count == 5
    assert hist.sum == pytest.approx(3.554)
    assert hist.min == 0.002
    assert hist.max == 3.0
    # Cumulative le-buckets plus the +Inf overflow bucket.
    assert hist.bucket_counts() == [
        (0.01, 2), (0.1, 3), (1.0, 4), (float("inf"), 5),
    ]


def test_histogram_le_semantics_at_bucket_boundary():
    hist = Histogram((1.0, 2.0))
    hist.observe(1.0)  # le=1.0 bucket, not the (1, 2] one
    assert hist.bucket_counts()[0] == (1.0, 1)


def test_histogram_percentile_exact_for_repeated_value():
    hist = Histogram(DEFAULT_LATENCY_BUCKETS_S)
    for _ in range(500):
        hist.observe(0.002)
    for q in (0, 1, 50, 99, 100):
        assert hist.percentile(q) == 0.002


def test_histogram_percentile_monotone_and_clamped():
    hist = Histogram(DEFAULT_LATENCY_BUCKETS_S)
    for value in (0.001, 0.003, 0.02, 0.4, 7.0, 90.0, 300.0):
        hist.observe(value)
    previous = hist.percentile(0)
    for q in range(0, 101, 5):
        current = hist.percentile(q)
        assert current >= previous
        assert hist.min <= current <= hist.max
        previous = current
    assert hist.percentile(0) == hist.min
    assert hist.percentile(100) == hist.max  # exact even above the last bound


def test_histogram_percentile_edge_cases():
    hist = Histogram((1.0,))
    assert hist.percentile(50) == 0.0  # empty
    hist.observe(0.5)
    assert hist.percentile(50) == 0.5
    with pytest.raises(ValueError):
        hist.percentile(101)
    with pytest.raises(ValueError):
        hist.percentile(-1)


def test_histogram_empty_percentile_and_aggregates():
    hist = Histogram(DEFAULT_LATENCY_BUCKETS_S)
    assert hist.count == 0
    assert hist.sum == 0.0
    for q in (0, 50, 99, 100):
        assert hist.percentile(q) == 0.0
    assert hist.bucket_counts()[-1] == (float("inf"), 0)


def test_histogram_samples_above_top_bucket_bound():
    hist = Histogram((0.1, 1.0))
    for value in (5.0, 9.0, 300.0):
        hist.observe(value)
    # Everything lands in the +Inf overflow bucket...
    assert hist.bucket_counts() == [(0.1, 0), (1.0, 0), (float("inf"), 3)]
    # ...yet percentiles stay clamped to the exact observed range, never
    # to a bucket bound.
    assert hist.percentile(0) == 5.0
    assert hist.percentile(100) == 300.0
    assert 5.0 <= hist.percentile(50) <= 300.0


def test_histogram_exemplars_latest_wins_per_bucket():
    hist = Histogram((0.1, 1.0))
    hist.observe(0.05, exemplar="trace-a")
    hist.observe(0.07, exemplar="trace-b")  # same bucket: replaces a
    hist.observe(0.5)                       # no exemplar: bucket stays bare
    hist.observe(5.0, exemplar="trace-c")   # overflow bucket
    assert hist.exemplars() == [
        (0.1, "trace-b", 0.07),
        (float("inf"), "trace-c", 5.0),
    ]


def test_histogram_merge_carries_exemplars():
    a = Histogram((0.1, 1.0))
    b = Histogram((0.1, 1.0))
    a.observe(0.05, exemplar="old")
    b.observe(0.06, exemplar="new")
    b.observe(0.5, exemplar="mid")
    merged = Histogram(a.bounds).merge(a).merge(b)
    assert merged.exemplars() == [(0.1, "new", 0.06), (1.0, "mid", 0.5)]


def test_histogram_merge_adds_exactly_and_rejects_bound_mismatch():
    a = Histogram((0.1, 1.0))
    b = Histogram((0.1, 1.0))
    for value in (0.05, 0.5):
        a.observe(value)
    for value in (0.02, 7.0):
        b.observe(value)
    merged = Histogram(a.bounds).merge(a).merge(b)
    assert merged.count == 4
    assert merged.sum == pytest.approx(7.57)
    assert merged.min == 0.02
    assert merged.max == 7.0
    assert merged.bucket_counts() == [(0.1, 2), (1.0, 3), (float("inf"), 4)]
    # The copy idiom left the source untouched.
    assert a.count == 2
    with pytest.raises(ValueError):
        a.merge(Histogram((0.5, 2.0)))


def test_histogram_delta_recovers_the_window():
    hist = Histogram((0.1, 1.0))
    hist.observe(0.05)
    before = Histogram(hist.bounds).merge(hist)
    hist.observe(0.5)
    hist.observe(0.7)
    window = hist.delta(before)
    assert window.count == 2
    assert window.sum == pytest.approx(1.2)
    # Window min/max are bucket-resolution estimates bracketing the
    # true windowed samples.
    assert window.min <= 0.5 and window.max >= 0.7
    assert window.percentile(50) <= window.percentile(99)


def test_histogram_delta_empty_window_and_shrunk_counts():
    hist = Histogram((0.1, 1.0))
    hist.observe(0.05)
    snapshot = Histogram(hist.bounds).merge(hist)
    window = hist.delta(snapshot)
    assert window.count == 0
    assert window.sum == 0.0
    assert window.percentile(99) == 0.0
    with pytest.raises(ValueError):
        snapshot.delta(hist.merge(Histogram(hist.bounds).merge(hist)))
    with pytest.raises(ValueError):
        hist.delta(Histogram((0.5,)))


# -- families and registry ----------------------------------------------


def test_family_labels_validated_and_children_cached():
    registry = MetricsRegistry()
    family = registry.counter("requests_total", "requests", ("service",))
    child = family.labels(service="a")
    child.inc()
    assert family.labels(service="a") is child
    assert family.labels(service="b").value == 0
    with pytest.raises(ValueError):
        family.labels(wrong="a")
    with pytest.raises(ValueError):
        family.labels()


def test_unlabeled_family_convenience_methods():
    registry = MetricsRegistry()  # an unlabeled family's one child is labels()
    registry.counter("jobs_total").labels().inc(3)
    registry.histogram("latency_s", buckets=(1.0, 2.0)).labels().observe(1.5)
    assert registry.get("jobs_total").labels().value == 3
    assert registry.get("latency_s").labels().percentile(50) == 1.5


def test_registry_get_or_create_and_schema_conflicts():
    registry = MetricsRegistry()
    first = registry.counter("hits_total", "h", ("store",))
    assert registry.counter("hits_total", "h", ("store",)) is first
    with pytest.raises(ValueError):
        registry.histogram("hits_total", "h", ("store",))
    with pytest.raises(ValueError):
        registry.counter("hits_total", "h", ("other",))
    registry.histogram("lat", buckets=(1.0, 2.0))
    with pytest.raises(ValueError):
        registry.histogram("lat", buckets=(1.0, 3.0))


def test_registry_rejects_invalid_names():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("1bad")
    with pytest.raises(ValueError):
        registry.counter("ok_name", labelnames=("bad-label",))


def test_families_sorted_by_name():
    registry = MetricsRegistry()
    registry.counter("zeta_total")
    registry.counter("alpha_total")
    assert [f.name for f in registry.families()] == ["alpha_total", "zeta_total"]


def test_empty_registry_is_still_a_valid_shared_registry():
    """A freshly created registry is falsy under len(); components must
    not silently replace it with a private one."""
    from repro.serving import AsyncCacheStore, SimClock

    registry = MetricsRegistry()
    assert len(registry) == 0 and not registry  # the trap
    cache = AsyncCacheStore(SimClock(), registry=registry)
    assert cache.stats.registry is registry
    assert "cache_requests_total" in registry


def test_counter_attributes_are_read_only_and_add_is_the_one_increment():
    from repro.serving import CacheStats, ServingMetrics

    for owner, attr in ((ServingMetrics(), "served_fresh"),
                        (CacheStats(), "layer1_hits")):
        owner.add(attr, 2)
        assert getattr(owner, attr) == 2
        with pytest.raises(AttributeError):
            setattr(owner, attr, 3)     # what a stray ``owner.attr += 1`` does
        assert getattr(owner, attr) == 2


def test_histogram_bare_observe_keeps_existing_bucket_exemplar():
    """Latest-wins means latest *exemplar*: an observation without one
    must not clear the bucket's remembered trace."""
    hist = Histogram((0.1, 1.0))
    hist.observe(0.05, exemplar="trace-a")
    hist.observe(0.07)                       # same bucket, no exemplar
    assert hist.exemplars() == [(0.1, "trace-a", 0.05)]
    hist.observe(0.06, exemplar="trace-b")   # a real exemplar replaces
    assert hist.exemplars() == [(0.1, "trace-b", 0.06)]


def test_histogram_merge_exemplar_replacement_order_is_merge_order():
    """Per bucket, the most recently merged histogram's exemplar wins;
    a merged histogram with a bare bucket leaves the target's intact."""
    target = Histogram((0.1, 1.0))
    first = Histogram((0.1, 1.0))
    second = Histogram((0.1, 1.0))
    bare = Histogram((0.1, 1.0))
    first.observe(0.05, exemplar="first")
    second.observe(0.06, exemplar="second")
    bare.observe(0.07)                       # same bucket, no exemplar
    target.merge(first).merge(second).merge(bare)
    assert target.exemplars() == [(0.1, "second", 0.06)]
    # Reversed merge order flips the winner — order is the only rule.
    reverse = Histogram((0.1, 1.0))
    reverse.merge(second).merge(first)
    assert reverse.exemplars() == [(0.1, "first", 0.05)]


# -- observe(value, count=n) == n single observes, bit for bit ------------
_values = st.floats(min_value=0.0, max_value=200.0, allow_nan=False)


def _histogram_state(hist: Histogram) -> tuple:
    return (hist._counts, hist.count, hist.sum, hist.sum.hex(), hist.min,
            hist.max, hist.bucket_counts(), hist.exemplars(),
            [hist.percentile(q) for q in (0, 1, 25, 50, 90, 99, 99.9, 100)])


@given(
    st.lists(_values, max_size=12),
    _values,
    st.integers(1, 64),
    st.sampled_from([None, "trace-x"]),
    st.lists(_values, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_observe_count_equals_repeated_single_observes(prior, value, count,
                                                       exemplar, later):
    grouped, single = Histogram(), Histogram()
    for hist in (grouped, single):
        for earlier in prior:
            hist.observe(earlier, exemplar="trace-prior")
    grouped.observe(value, exemplar=exemplar, count=count)
    for _ in range(count):
        single.observe(value, exemplar=exemplar)
    assert _histogram_state(grouped) == _histogram_state(single)
    # ...and the two stay identical under whatever is observed next.
    for hist in (grouped, single):
        for after in later:
            hist.observe(after)
    assert _histogram_state(grouped) == _histogram_state(single)


def test_observe_count_sum_is_repeated_addition_not_a_product():
    """``16 * 0.0052`` and sixteen additions of ``0.0052`` differ in the
    last bit; the exported sum must be the additions'."""
    value, count = 0.0052, 16
    hist = Histogram()
    hist.observe(value, count=count)
    expected = 0.0
    for _ in range(count):
        expected += value
    assert expected != count * value
    assert hist.sum == expected and hist.sum.hex() == expected.hex()


@pytest.mark.parametrize("count", [0, -1])
def test_observe_rejects_a_count_below_one(count):
    hist = Histogram()
    with pytest.raises(ValueError):
        hist.observe(0.1, count=count)
    assert hist.count == 0 and hist.bucket_counts()[-1][1] == 0


def test_family_observe_passes_count_through():
    family = MetricsRegistry().histogram("window_seconds")
    family.labels().observe(0.01, count=5)
    assert family.labels().count == 5
