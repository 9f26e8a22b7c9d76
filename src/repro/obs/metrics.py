"""Dependency-free metrics primitives: counters and histograms.

A :class:`MetricsRegistry` holds named metric families; a family fans
out into labeled children (one instrument per label-value combination),
the Prometheus data model; :mod:`repro.obs.export` renders it.

The :class:`Histogram` is a *streaming* fixed-bucket estimator: it keeps
one integer per bucket plus exact ``count``/``sum``/``min``/``max`` and
never stores individual samples, so metric memory stays O(buckets)
regardless of traffic volume — the fix for the unbounded
``request_latencies_s`` list the serving layer used to grow.  Percentile
estimates interpolate linearly inside the bucket that contains the
requested rank, clamped to the observed ``[min, max]`` range, which
keeps them exact when a bucket holds a single repeated value (the common
case for the fixed cache/degraded latencies).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Iterable, Iterator

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "Counter",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "counter_attribute",
]

#: Log-ish spaced latency buckets (seconds) spanning cache lookups
#: (~2 ms) through direct 30B-parameter model calls (whole minutes).
DEFAULT_LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.0005, 0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064,
    0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 120.0,
)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """A monotonically increasing value (requests, retries, ...)."""

    kind = "counter"
    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        self._value += amount


def counter_attribute(attr: str) -> property:
    """Expose ``self._counters[attr]`` (a bound :class:`Counter`) as a
    read-only integer attribute — how the serving layers keep their
    pre-registry ``stats.hits`` reads over registry-backed counters.
    Writes go through the owner's ``add(attr, n)``; ``stats.hits += 1``
    is an :class:`AttributeError`."""
    return property(lambda self: int(self._counters[attr].value))


class Histogram:
    """Fixed-bucket streaming distribution with percentile estimates.

    ``bounds`` are strictly increasing bucket upper bounds with ``le``
    (less-or-equal) semantics; one implicit overflow bucket catches
    everything above the last bound.  Memory is O(len(bounds)) forever.
    """

    kind = "histogram"
    __slots__ = ("bounds", "_counts", "count", "sum", "_min", "_max",
                 "_exemplars")

    def __init__(self, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_S):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self.count = 0
        self.sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        #: per-bucket representative observation: (trace_id, value).
        self._exemplars: list[tuple[str, float] | None] = \
            [None] * (len(bounds) + 1)

    @property
    def min(self) -> float:
        return 0.0 if self._min is None else self._min

    @property
    def max(self) -> float:
        return 0.0 if self._max is None else self._max

    def observe(self, value: float, exemplar: str | None = None,
                count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (a serving window
        whose items all complete together observes once, not per item).

        The state afterwards is exactly that of ``count`` single
        observes: ``sum`` is accumulated by repeated addition, not
        ``count * value``, so the exported float does not depend on how
        the observations were grouped.
        """
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        value = float(value)
        index = bisect_left(self.bounds, value)
        self._counts[index] += count
        self.count += count
        if count == 1:
            self.sum += value
        else:
            total = self.sum
            for _ in range(count):
                total += value
            self.sum = total
        # Comparisons, not min()/max(): same result, no call per observe.
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if exemplar is not None:
            # Latest-wins per bucket: each bucket remembers one concrete
            # trace id an operator can pull up for "what does a request
            # in this latency band look like".
            self._exemplars[index] = (exemplar, value)

    def exemplars(self) -> list[tuple[float, str, float]]:
        """``(bucket upper bound, trace_id, value)`` for occupied buckets."""
        out: list[tuple[float, str, float]] = []
        for index, entry in enumerate(self._exemplars):
            if entry is None:
                continue
            bound = (self.bounds[index] if index < len(self.bounds)
                     else float("inf"))
            out.append((bound, entry[0], entry[1]))
        return out

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram's samples into this one, in place.

        Both histograms must share identical bucket bounds; counts and
        sums add exactly, min/max stay exact.  Returns ``self`` so a
        fresh copy reads ``Histogram(h.bounds).merge(h)`` — a drive uses
        exactly that to remember the cumulative state at a phase start.
        """
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{len(self.bounds)} vs {len(other.bounds)} buckets"
            )
        for index, bucket in enumerate(other._counts):
            self._counts[index] += bucket
            if other._exemplars[index] is not None:
                self._exemplars[index] = other._exemplars[index]
        self.count += other.count
        self.sum += other.sum
        if other._min is not None:
            self._min = other._min if self._min is None else min(self._min, other._min)
        if other._max is not None:
            self._max = other._max if self._max is None else max(self._max, other._max)
        return self

    def delta(self, earlier: "Histogram") -> "Histogram":
        """The window of samples observed since ``earlier`` was captured.

        ``earlier`` must be a previous state of this histogram (same
        bounds, per-bucket counts no larger than the current ones);
        counts and sum subtract exactly.  The window's min/max cannot be
        recovered exactly from cumulative state, so they are estimated
        at bucket resolution: min is the tightest known lower bound of
        the lowest occupied bucket, max the tightest known upper bound
        of the highest — :meth:`percentile` on the window stays monotone
        and clamped to a range that contains every windowed sample.
        """
        if earlier.bounds != self.bounds:
            raise ValueError(
                f"cannot diff histograms with different bounds: "
                f"{len(self.bounds)} vs {len(earlier.bounds)} buckets"
            )
        window = Histogram(self.bounds)
        for index, bucket in enumerate(earlier._counts):
            diff = self._counts[index] - bucket
            if diff < 0:
                raise ValueError(
                    "delta() needs an earlier state of the same histogram; "
                    f"bucket {index} shrank from {bucket} to {self._counts[index]}"
                )
            window._counts[index] = diff
        window.count = self.count - earlier.count
        window.sum = self.sum - earlier.sum
        occupied = [i for i, c in enumerate(window._counts) if c > 0]
        if occupied:
            lo, hi = occupied[0], occupied[-1]
            low_bound = self.min if lo == 0 else max(self.min, self.bounds[lo - 1])
            high_bound = self.max if hi == len(self.bounds) else min(self.max, self.bounds[hi])
            window._min = low_bound
            window._max = max(high_bound, low_bound)
        else:
            window.sum = 0.0
        return window

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs; the overflow bucket
        is reported with ``float('inf')`` as its bound."""
        cumulative = 0
        out: list[tuple[float, int]] = []
        for bound, bucket in zip((*self.bounds, float("inf")), self._counts):
            cumulative += bucket
            out.append((bound, cumulative))
        return out

    def percentile(self, q: float) -> float:
        """Streaming estimate of the ``q``-th percentile (``q`` in [0, 100]).

        Exact at the extremes (``min``/``max`` are tracked exactly);
        inside a bucket the estimate interpolates linearly between the
        bucket's effective bounds.  Monotone in ``q`` by construction.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        if q <= 0.0 or self._min == self._max:
            return self.min
        if q >= 100.0:
            return self.max
        rank = q / 100.0 * self.count
        cumulative = 0
        for index, bucket in enumerate(self._counts):
            if bucket == 0:
                continue
            if cumulative + bucket >= rank:
                raw_lo = self.bounds[index - 1] if index > 0 else self.min
                raw_hi = self.bounds[index] if index < len(self.bounds) else self.max
                lo = max(raw_lo, self.min)
                hi = max(min(raw_hi, self.max), lo)
                fraction = (rank - cumulative) / bucket
                return lo + fraction * (hi - lo)
            cumulative += bucket
        return self.max


_KINDS = ("counter", "histogram")


class MetricFamily:
    """One named metric with a fixed label schema and per-label children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
    ):
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = buckets
        self._children: dict[tuple[str, ...], Counter | Histogram] = {}

    def labels(self, **labels: str) -> Counter | Histogram:
        """The child instrument for one label-value combination."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {sorted(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = (Histogram(self.buckets or DEFAULT_LATENCY_BUCKETS_S)
                     if self.kind == "histogram" else Counter())
            self._children[key] = child
        return child

    def samples(self) -> Iterator[tuple[dict[str, str], Counter | Histogram]]:
        """``(labels, child)`` pairs in deterministic label order."""
        for key in sorted(self._children):
            yield dict(zip(self.labelnames, key)), self._children[key]


class MetricsRegistry:
    """Named metric families with get-or-create registration.

    Re-registering an existing name returns the existing family after
    validating that kind, label schema and buckets agree — so components
    sharing a registry (e.g. two :class:`CosmoService` instances in one
    bench) converge on one family and differ only by label values.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def counter(self, name: str, help: str = "",
                labelnames: tuple[str, ...] = ()) -> MetricFamily:
        return self._register(name, "counter", help, labelnames, None)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> MetricFamily:
        return self._register(name, "histogram", help, labelnames, tuple(buckets))

    def get(self, name: str) -> MetricFamily:
        return self._families[name]

    def families(self) -> list[MetricFamily]:
        """Registered families sorted by name (deterministic exports)."""
        return [self._families[name] for name in sorted(self._families)]

    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] | None,
    ) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"cannot re-register as {kind}"
                )
            if existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.labelnames}, got {tuple(labelnames)}"
                )
            if kind == "histogram" and buckets is not None and existing.buckets != buckets:
                raise ValueError(f"metric {name!r} already registered with other buckets")
            return existing
        family = MetricFamily(name, kind, help, tuple(labelnames), buckets)
        self._families[name] = family
        return family
