"""Exporter: the JSON snapshot schema."""

import json

import pytest

from repro.obs import validate
from repro.obs.export import SNAPSHOT_SCHEMA, snapshot
from repro.obs.metrics import MetricsRegistry


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    requests = registry.counter("requests_total", "requests", ("service",))
    requests.labels(service="a").inc(3)
    requests.labels(service="b").inc(1)
    registry.counter("jobs_total", "work done").labels().inc(4)
    latency = registry.histogram("latency_s", "latency",
                                 buckets=(0.01, 0.1, 1.0)).labels()
    for value in (0.005, 0.05, 0.05, 2.0):
        latency.observe(value)
    return registry


def test_snapshot_roundtrips_through_its_own_validator():
    snap = snapshot(_populated_registry())
    assert snap["schema"] == SNAPSHOT_SCHEMA
    validate(SNAPSHOT_SCHEMA, snap)
    # ...and survives a JSON round trip (what the CI smoke step checks).
    validate(SNAPSHOT_SCHEMA, json.loads(json.dumps(snap)))


def test_snapshot_histogram_sample_shape():
    snap = snapshot(_populated_registry())
    (latency,) = [m for m in snap["metrics"] if m["name"] == "latency_s"]
    (sample,) = latency["samples"]
    assert sample["count"] == 4
    assert sample["min"] == 0.005 and sample["max"] == 2.0
    assert sample["buckets"] == [
        {"le": 0.01, "count": 1},
        {"le": 0.1, "count": 3},
        {"le": 1.0, "count": 3},
        {"le": "+Inf", "count": 4},
    ]


def test_snapshot_is_deterministic_and_sorted():
    first = json.dumps(snapshot(_populated_registry()), sort_keys=True)
    second = json.dumps(snapshot(_populated_registry()), sort_keys=True)
    assert first == second
    names = [m["name"] for m in snapshot(_populated_registry())["metrics"]]
    assert names == sorted(names)


def test_snapshot_carries_bucket_exemplars():
    registry = MetricsRegistry()
    latency = registry.histogram("latency_s", buckets=(0.01, 0.1)).labels()
    latency.observe(0.005, exemplar="00000001deadbeef")
    latency.observe(0.5)
    snap = snapshot(registry)
    validate(SNAPSHOT_SCHEMA, snap)
    buckets = snap["metrics"][0]["samples"][0]["buckets"]
    assert buckets[0]["exemplar"] == {"trace_id": "00000001deadbeef",
                                      "value": 0.005}
    assert "exemplar" not in buckets[1]  # untagged bucket stays bare
    assert "exemplar" not in buckets[2]


def _valid_histogram_snapshot() -> dict:
    registry = MetricsRegistry()
    registry.histogram("h", buckets=(1.0,)).labels().observe(0.5)
    return snapshot(registry)


@pytest.mark.parametrize("mutate, message", [
    (lambda s: s.update(schema="other/v9"), "schema"),
    (lambda s: s.update(metrics={}), "expected a list"),
    (lambda s: s["metrics"][0].update(kind="summary"), "kind"),
    (lambda s: s["metrics"][0]["samples"][0].update(count=-1), "count"),
    (lambda s: s["metrics"][0]["samples"][0]["buckets"].pop(), r"\+Inf"),
    (lambda s: s["metrics"][0]["samples"][0]["buckets"].insert(
        0, {"le": 0.5, "count": 99}), "non-decreasing"),
    (lambda s: s["metrics"][0]["samples"][0].update(count=7), "must equal"),
    # A mixed-type list used to reach sorted() and escape as TypeError.
    (lambda s: s["metrics"][0].update(labelnames=["a", 1]), r"labelnames\[1\]"),
    (lambda s: s["metrics"][0].pop("help"), r"metrics\[0\].help"),
    (lambda s: s["metrics"][0]["samples"][0].update(value=1), "unknown key"),
])
def test_validate_snapshot_rejects_malformed(mutate, message):
    snap = _valid_histogram_snapshot()
    mutate(snap)
    with pytest.raises(ValueError, match=message):
        validate(SNAPSHOT_SCHEMA, snap)


def test_validate_snapshot_rejects_label_key_mismatch():
    snap = snapshot(_populated_registry())
    (requests,) = [m for m in snap["metrics"] if m["name"] == "requests_total"]
    requests["samples"][0]["labels"] = {"other": "a"}
    with pytest.raises(ValueError, match="labelnames"):
        validate(SNAPSHOT_SCHEMA, snap)
