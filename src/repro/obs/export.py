"""Registry exporter: the JSON snapshot.

The JSON snapshot is the machine-readable contract (schema id
``repro.obs.metrics/v1``, table and cross-field checks in
:data:`SCHEMA`) the CI obs-smoke step and the benchmark conftest
validate against; it is fully deterministic for deterministic metric
values (families sorted by name, samples sorted by label values, no
timestamps).
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.schema import (
    BUCKET_BOUND, COUNT, NAME, NUMBER, STRING, ListOf, MapOf, Obj, Schema,
    Tagged, check_buckets, fail, one_of,
)

__all__ = [
    "SCHEMA",
    "SNAPSHOT_SCHEMA",
    "snapshot",
]

SNAPSHOT_SCHEMA = "repro.obs.metrics/v1"


def _bound_repr(bound: float) -> str | float:
    return "+Inf" if math.isinf(bound) else bound


def snapshot(registry: MetricsRegistry) -> dict:
    """Deterministic JSON-able snapshot of every family and sample."""
    metrics = []
    for family in registry.families():
        samples = []
        for labels, child in family.samples():
            sample: dict = {"labels": labels}
            if isinstance(child, Histogram):
                exemplars = {
                    _bound_repr(bound): {"trace_id": trace_id, "value": value}
                    for bound, trace_id, value in child.exemplars()
                }
                buckets = []
                for bound, count in child.bucket_counts():
                    bucket: dict = {"le": _bound_repr(bound), "count": count}
                    exemplar = exemplars.get(bucket["le"])
                    if exemplar is not None:
                        bucket["exemplar"] = exemplar
                    buckets.append(bucket)
                sample.update(
                    count=child.count,
                    sum=child.sum,
                    min=child.min,
                    max=child.max,
                    p50=child.percentile(50),
                    p99=child.percentile(99),
                    buckets=buckets,
                )
            else:
                sample["value"] = child.value
            samples.append(sample)
        metrics.append({
            "name": family.name,
            "kind": family.kind,
            "help": family.help,
            "labelnames": list(family.labelnames),
            "samples": samples,
        })
    return {"schema": SNAPSHOT_SCHEMA, "metrics": metrics}


_BUCKET = Obj({"le": BUCKET_BOUND, "count": COUNT},
              optional={"exemplar": Obj({"trace_id": NAME, "value": NUMBER})})
_VALUE_SAMPLE = Obj({"labels": MapOf(STRING), "value": NUMBER})
_HISTOGRAM_SAMPLE = Obj({
    "labels": MapOf(STRING), "count": COUNT, "sum": NUMBER, "min": NUMBER,
    "max": NUMBER, "p50": NUMBER, "p99": NUMBER,
    "buckets": ListOf(_BUCKET, min_len=1),
})


def _family(kind: str, sample: Obj) -> Obj:
    return Obj({"name": NAME, "kind": one_of(kind), "help": STRING,
                "labelnames": ListOf(NAME), "samples": ListOf(sample)})


_TABLE = Obj({
    "schema": one_of(SNAPSHOT_SCHEMA),
    "metrics": ListOf(Tagged("kind", {
        "counter": _family("counter", _VALUE_SAMPLE),
        "histogram": _family("histogram", _HISTOGRAM_SAMPLE),
    })),
})


def _cross_check(payload: Mapping) -> None:
    for m_index, metric in enumerate(payload["metrics"]):
        for s_index, sample in enumerate(metric["samples"]):
            where = f"metrics[{m_index}].samples[{s_index}]"
            if sorted(sample["labels"]) != sorted(metric["labelnames"]):
                fail(f"{where}.labels", "label keys must match labelnames")
            if metric["kind"] == "histogram":
                check_buckets(f"{where}.buckets", sample["buckets"],
                              sample["count"])


SCHEMA = Schema(SNAPSHOT_SCHEMA, "metrics snapshot", _TABLE, _cross_check)
