"""Time-series scrape loop: grid alignment, rates, windowed percentiles."""

import pytest

from repro.obs import (
    TIMELINE_SCHEMA,
    MetricsRegistry,
    Series,
    TimeSeriesCollector,
    timeline,
    validate,
)


def test_series_ring_buffer_bounds_and_drops():
    series = Series("k", "rate", capacity=3)
    for i in range(5):
        series.append(float(i), float(i * 10))
    assert len(series) == 3
    assert series.dropped == 2
    assert series.points() == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
    with pytest.raises(ValueError):
        Series("k", "bogus", capacity=3)


def test_maybe_scrape_performs_every_due_grid_point():
    registry = MetricsRegistry()
    counter = registry.counter("jobs_total", "jobs").labels()
    collector = TimeSeriesCollector(registry, interval_s=0.5)
    assert collector.maybe_scrape(0.4) == []
    counter.inc(3)
    # A big time jump performs all intervening grid scrapes, in order.
    assert collector.maybe_scrape(1.6) == [0.5, 1.0, 1.5]
    assert collector.maybe_scrape(1.6) == []  # idempotent at the same time
    assert collector.get("jobs_total:rate").points() == [
        (0.5, 6.0), (1.0, 0.0), (1.5, 0.0)]


def test_counter_becomes_rate_per_elapsed_interval():
    registry = MetricsRegistry()
    counter = registry.counter("reqs_total", "requests", ("svc",)).labels(svc="a")
    collector = TimeSeriesCollector(registry, interval_s=1.0)
    counter.inc(10)
    collector.maybe_scrape(1.0)
    counter.inc(4)
    collector.maybe_scrape(3.0)  # two grid points: rate then zero
    points = collector.get('reqs_total{svc="a"}:rate').points()
    assert points == [(1.0, 10.0), (2.0, 4.0), (3.0, 0.0)]


def test_histogram_yields_windowed_percentiles_and_rate():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", "latency", buckets=(0.1, 1.0)).labels()
    collector = TimeSeriesCollector(registry, interval_s=1.0)
    hist.observe(0.05)
    collector.maybe_scrape(1.0)
    hist.observe(0.5)
    hist.observe(0.5)
    collector.maybe_scrape(2.0)
    p50 = collector.get("lat:p50").points()
    # Second window contains only the two 0.5s samples, not the 0.05.
    assert p50[1][1] == pytest.approx(0.5, abs=0.5)
    assert p50[1][1] > p50[0][1]
    rate = collector.get("lat:rate").points()
    assert rate == [(1.0, 1.0), (2.0, 2.0)]


def test_timeline_export_round_trips_through_validator():
    registry = MetricsRegistry()
    registry.counter("a_total", "a").labels().inc()
    registry.counter("b_total", "b").labels().inc(2)
    collector = TimeSeriesCollector(registry, interval_s=0.25)
    collector.maybe_scrape(0.5)
    payload = timeline(collector)
    validate(TIMELINE_SCHEMA, payload)
    assert payload["scrapes"] == 2
    assert [s["key"] for s in payload["series"]] == ["a_total:rate", "b_total:rate"]


def test_validate_timeline_rejects_unsorted_series_and_bad_points():
    registry = MetricsRegistry()
    registry.counter("g_total", "g").labels().inc()
    collector = TimeSeriesCollector(registry, interval_s=1.0)
    collector.maybe_scrape(1.0)
    payload = timeline(collector)
    broken = dict(payload, series=payload["series"] * 2)  # duplicate key
    with pytest.raises(ValueError):
        validate(TIMELINE_SCHEMA, broken)
    broken = dict(payload, schema="nope/v0")
    with pytest.raises(ValueError):
        validate(TIMELINE_SCHEMA, broken)
    bad_points = [dict(payload["series"][0], points=[[1.0, 1.0], [1.0, 2.0]])]
    with pytest.raises(ValueError):
        validate(TIMELINE_SCHEMA, dict(payload, series=bad_points))
    # ``true`` is not an integer.
    with pytest.raises(ValueError, match="scrapes"):
        validate(TIMELINE_SCHEMA, dict(payload, scrapes=True))
    with pytest.raises(ValueError, match=r"series\[0\].dropped"):
        validate(TIMELINE_SCHEMA, dict(
            payload, series=[dict(payload["series"][0], dropped=True)]))


def test_scrape_timestamps_must_increase():
    registry = MetricsRegistry()
    collector = TimeSeriesCollector(registry, interval_s=1.0)
    collector.scrape(1.0)
    with pytest.raises(ValueError):
        collector.scrape(1.0)
