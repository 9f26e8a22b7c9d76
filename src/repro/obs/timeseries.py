"""Deterministic time-series telemetry scraped from a metrics registry.

The metrics snapshot (:mod:`repro.obs.export`) is an end-of-run
aggregate; continuous monitoring needs the *trajectory*.  A
:class:`TimeSeriesCollector` samples a shared
:class:`~repro.obs.metrics.MetricsRegistry` on a fixed simulated-time
grid and keeps the result in bounded ring-buffer :class:`Series`:

* **counters** become per-interval *rates* (``<key>:rate``, delta over
  elapsed grid time);
* **histograms** become *windowed* percentiles and rates
  (``<key>:p50``/``:p99``/``:rate``) — each scrape diffs the cumulative
  histogram against the previous scrape's state via
  :meth:`~repro.obs.metrics.Histogram.delta`, so the percentile reflects
  only the samples of the last interval, which is what a burn-rate
  latency SLO needs.

The scrape loop is *pull-based and driven by the caller's clock*: the
cluster driver calls :meth:`TimeSeriesCollector.maybe_scrape` with the
current simulated time and the collector performs every grid-aligned
scrape that has come due (timestamps ``k * interval_s``).  Nothing here
reads the wall clock, so the exported timeline (schema id
``repro.obs.timeseries/v1``) replays byte-identically for a fixed seed.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Mapping

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.schema import (
    COUNT, NAME, NUMBER, POSITIVE, ListOf, Obj, Pair, Schema, fail, one_of,
)

__all__ = [
    "SCHEMA",
    "TIMELINE_SCHEMA",
    "Series",
    "TimeSeriesCollector",
    "timeline",
]

TIMELINE_SCHEMA = "repro.obs.timeseries/v1"

_KINDS = ("rate", "percentile")
_PERCENTILES = (50.0, 99.0)


class Series:
    """One bounded ring buffer of ``(ts, value)`` points."""

    __slots__ = ("key", "kind", "capacity", "dropped", "_points")

    def __init__(self, key: str, kind: str, capacity: int):
        if kind not in _KINDS:
            raise ValueError(f"unknown series kind {kind!r}")
        if capacity < 1:
            raise ValueError("series capacity must be at least 1")
        self.key = key
        self.kind = kind
        self.capacity = capacity
        self.dropped = 0
        self._points: deque[tuple[float, float]] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._points)

    def append(self, ts: float, value: float) -> None:
        if len(self._points) >= self.capacity:
            self.dropped += 1
        self._points.append((float(ts), float(value)))

    def points(self) -> list[tuple[float, float]]:
        return list(self._points)


def _series_key(name: str, labels: Mapping[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels.items())
    return f"{name}{{{inner}}}"


class TimeSeriesCollector:
    """Grid-aligned scraper of one registry into bounded series.

    ``interval_s`` sets the scrape grid (``k * interval_s`` timestamps);
    ``capacity`` bounds every series' retained points; each histogram
    child yields its windowed p50 and p99.  Metric
    children that appear mid-run simply start their series at the next
    scrape; a counter's first rate point treats its pre-monitoring value
    as having accrued over one interval.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        interval_s: float,
        capacity: int = 720,
    ):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.registry = registry
        self.interval_s = float(interval_s)
        self.capacity = capacity
        self.scrapes = 0
        self.last_scrape_ts: float | None = None
        self._series: dict[str, Series] = {}
        self._prev_counters: dict[str, float] = {}
        self._prev_histograms: dict[str, Histogram] = {}
        self._grid_index = 0  # last performed scrape's grid multiple

    # ------------------------------------------------------------------
    def maybe_scrape(self, now: float) -> list[float]:
        """Perform every grid scrape due at or before ``now``.

        Returns the grid timestamps scraped (empty when none were due).
        Driving this after every request keeps the grid exact no matter
        how unevenly simulated time advances.
        """
        due = math.floor(now / self.interval_s + 1e-9)
        performed: list[float] = []
        while self._grid_index < due:
            self._grid_index += 1
            ts = self._grid_index * self.interval_s
            self.scrape(ts)
            performed.append(ts)
        return performed

    def scrape(self, ts: float) -> None:
        """Sample every registered family at timestamp ``ts``."""
        ts = float(ts)
        elapsed = (self.interval_s if self.last_scrape_ts is None
                   else ts - self.last_scrape_ts)
        if elapsed <= 0:
            raise ValueError(f"scrape timestamps must increase, got {ts}")
        for family in self.registry.families():
            for labels, child in family.samples():
                key = _series_key(family.name, labels)
                if family.kind == "counter":
                    previous = self._prev_counters.get(key, 0.0)
                    value = child.value
                    self._record(f"{key}:rate", "rate", ts,
                                 (value - previous) / elapsed)
                    self._prev_counters[key] = value
                else:
                    previous_h = self._prev_histograms.get(key)
                    window = (child.delta(previous_h) if previous_h is not None
                              else child)
                    for q in _PERCENTILES:
                        self._record(f"{key}:p{q:g}", "percentile", ts,
                                     window.percentile(q))
                    self._record(f"{key}:rate", "rate", ts,
                                 window.count / elapsed)
                    self._prev_histograms[key] = Histogram(child.bounds).merge(child)
        self.scrapes += 1
        self.last_scrape_ts = ts

    def _record(self, key: str, kind: str, ts: float, value: float) -> None:
        series = self._series.get(key)
        if series is None:
            series = Series(key, kind, self.capacity)
            self._series[key] = series
        series.append(ts, value)

    # ------------------------------------------------------------------
    def series(self) -> list[Series]:
        """All series sorted by key (deterministic exports)."""
        return [self._series[key] for key in sorted(self._series)]

    def get(self, key: str) -> Series:
        return self._series[key]

    def __contains__(self, key: str) -> bool:
        return key in self._series


def timeline(collector: TimeSeriesCollector) -> dict:
    """Deterministic JSON-able export of every series."""
    return {
        "schema": TIMELINE_SCHEMA,
        "interval_s": collector.interval_s,
        "scrapes": collector.scrapes,
        "series": [
            {
                "key": series.key,
                "kind": series.kind,
                "dropped": series.dropped,
                "points": [[ts, value] for ts, value in series.points()],
            }
            for series in collector.series()
        ],
    }


_TABLE = Obj({
    "schema": one_of(TIMELINE_SCHEMA),
    "interval_s": POSITIVE,
    "scrapes": COUNT,
    "series": ListOf(Obj({
        "key": NAME, "kind": one_of(*_KINDS), "dropped": COUNT,
        "points": ListOf(Pair(NUMBER, NUMBER)),
    })),
})


def _cross_check(payload: Mapping) -> None:
    previous_key = ""
    for index, entry in enumerate(payload["series"]):
        where = f"series[{index}]"
        if entry["key"] <= previous_key:
            fail(f"{where}.key", "series must be sorted by key, without duplicates")
        previous_key = entry["key"]
        previous_ts = float("-inf")
        for p_index, (ts, _value) in enumerate(entry["points"]):
            if ts <= previous_ts:
                fail(f"{where}.points[{p_index}][0]",
                     "timestamps must be strictly increasing")
            previous_ts = ts


SCHEMA = Schema(TIMELINE_SCHEMA, "timeline", _TABLE, _cross_check)
