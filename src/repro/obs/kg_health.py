"""Knowledge-plane health: per-snapshot KG quality metrics.

The serving plane answers "are requests fast and successful"; this
module answers "is the *knowledge* itself healthy".  A
:class:`KgHealthReport` is computed in one vectorized pass directly off
a knowledge graph's columnar arrays (the ``columns()`` surface of
:class:`~repro.core.kg.KnowledgeGraph` — id columns, intern tables and
the lazy CSR ordering all reduce to ``np.bincount``/``np.histogram``
calls here):

* triple counts and per-relation / per-domain / per-behavior edge
  distributions (the relation-mix a drifting refresh corrupts first);
* head/tail degree distributions (hub collapse or explosion);
* critic-score histograms for plausibility and typicality (the Table 4
  quality signal — a snapshot whose scores collapsed is poisoned even
  if it serves fast);
* dedup accounting (support mass vs distinct edges).

Reports export as a byte-deterministic ``repro.obs.kg_health/v1``
document (:func:`kg_health_report`, checked against :data:`SCHEMA`),
the same renderer + table pairing every other obs artifact uses; the
drift rules and the quality gate read the report objects directly.

Layering: this module is pure observation — it consumes a plain
``columns()`` mapping and never imports the core or refresh packages
(``obs`` depends only on ``utils``).  The adapter that walks snapshots
and stores lives in :mod:`repro.refresh.quality`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.obs.schema import (
    BOOL, BUCKET_BOUND, COUNT, NAME, NUMBER, STRING, ListOf, MapOf, Obj,
    Schema, check_buckets, fail, nullable, one_of,
)

__all__ = [
    "SCHEMA",
    "KG_HEALTH_SCHEMA",
    "SCORE_BUCKET_EDGES",
    "DEGREE_BUCKETS",
    "DegreeSummary",
    "ScoreHistogram",
    "KgHealthReport",
    "compute_kg_health",
    "kg_health_report",
]

KG_HEALTH_SCHEMA = "repro.obs.kg_health/v1"

#: Critic scores live in [0, 1]; ten equal-width bins.
SCORE_BUCKET_EDGES: tuple[float, ...] = tuple(round(i / 10.0, 1) for i in range(11))

#: Power-of-two degree bucket upper bounds; one implicit +Inf overflow.
DEGREE_BUCKETS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclass(frozen=True)
class DegreeSummary:
    """Degree distribution of one endpoint column (heads or tails).

    ``buckets`` are cumulative node counts at the :data:`DEGREE_BUCKETS`
    bounds plus a final ``+Inf`` overflow — the Prometheus histogram
    shape, so the schema shares :func:`~repro.obs.schema.check_buckets`.
    """

    nodes: int
    max: int
    mean: float
    buckets: tuple[tuple[float, int], ...]

    def as_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "max": self.max,
            "mean": self.mean,
            "buckets": [
                {"le": "+Inf" if bound == float("inf") else bound, "count": count}
                for bound, count in self.buckets
            ],
        }


@dataclass(frozen=True)
class ScoreHistogram:
    """Fixed ten-bin histogram of one critic score column."""

    counts: tuple[int, ...]
    mean: float
    min: float
    max: float

    def as_dict(self) -> dict:
        return {
            "edges": list(SCORE_BUCKET_EDGES),
            "counts": list(self.counts),
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


@dataclass(frozen=True)
class KgHealthReport:
    """One snapshot's knowledge-plane health, fully JSON-able."""

    version: str
    parent: str | None
    triples: int
    nodes: int
    entries: int
    relation_edges: Mapping[str, int]
    domain_edges: Mapping[str, int]
    behavior_edges: Mapping[str, int]
    head_degree: DegreeSummary
    tail_degree: DegreeSummary
    plausibility: ScoreHistogram
    typicality: ScoreHistogram
    support_total: int
    merged_edges: int
    dedup_ratio: float

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "parent": self.parent,
            "triples": self.triples,
            "nodes": self.nodes,
            "entries": self.entries,
            "relation_edges": dict(sorted(self.relation_edges.items())),
            "domain_edges": dict(sorted(self.domain_edges.items())),
            "behavior_edges": dict(sorted(self.behavior_edges.items())),
            "head_degree": self.head_degree.as_dict(),
            "tail_degree": self.tail_degree.as_dict(),
            "plausibility": self.plausibility.as_dict(),
            "typicality": self.typicality.as_dict(),
            "support_total": self.support_total,
            "merged_edges": self.merged_edges,
            "dedup_ratio": self.dedup_ratio,
        }


def _labeled_counts(ids: np.ndarray, table: Sequence[str]) -> dict[str, int]:
    """Per-label edge counts via one bincount over an id column."""
    if len(ids) == 0:
        return {}
    counts = np.bincount(ids, minlength=len(table))
    return {table[i]: int(counts[i]) for i in np.nonzero(counts)[0]}


def _degree_summary(ids: np.ndarray, n_nodes: int) -> DegreeSummary:
    """Degree distribution of one endpoint column via bincount."""
    if len(ids) == 0:
        buckets = tuple((float(b), 0) for b in DEGREE_BUCKETS) + ((float("inf"), 0),)
        return DegreeSummary(nodes=0, max=0, mean=0.0, buckets=buckets)
    degrees = np.bincount(ids, minlength=n_nodes)
    active = degrees[degrees > 0]
    bounds = np.array(DEGREE_BUCKETS, dtype=np.float64)
    cumulative = np.searchsorted(np.sort(active), bounds, side="right")
    buckets = tuple(
        (float(b), int(c)) for b, c in zip(DEGREE_BUCKETS, cumulative)
    ) + ((float("inf"), int(active.size)),)
    return DegreeSummary(
        nodes=int(active.size),
        max=int(active.max()),
        mean=float(active.mean()),
        buckets=buckets,
    )


def _score_histogram(values: np.ndarray) -> ScoreHistogram:
    if len(values) == 0:
        return ScoreHistogram(counts=(0,) * (len(SCORE_BUCKET_EDGES) - 1),
                              mean=0.0, min=0.0, max=0.0)
    clipped = np.clip(values, 0.0, 1.0)
    counts, _ = np.histogram(clipped, bins=np.asarray(SCORE_BUCKET_EDGES))
    return ScoreHistogram(
        counts=tuple(int(c) for c in counts),
        mean=float(clipped.mean()),
        min=float(clipped.min()),
        max=float(clipped.max()),
    )


def compute_kg_health(
    columns: Mapping[str, Any],
    *,
    version: str = "",
    parent: str | None = None,
    entries: int = 0,
) -> KgHealthReport:
    """One vectorized pass over a graph's ``columns()`` mapping.

    ``columns`` is the surface :meth:`repro.core.kg.KnowledgeGraph.columns`
    returns: parallel numpy id/score columns plus intern-table string
    tuples.  Everything here is bincount/histogram work — no per-edge
    Python loop — so health stays cheap next to snapshot building
    (``bench_kg_health_overhead`` pins the ratio).
    """
    heads = np.asarray(columns["head"])
    tails = np.asarray(columns["tail"])
    support = np.asarray(columns["support"])
    nodes = columns["nodes"]
    n_edges = int(len(heads))
    support_total = int(support.sum()) if n_edges else 0
    merged = int(np.count_nonzero(support > 1)) if n_edges else 0
    return KgHealthReport(
        version=version,
        parent=parent,
        triples=n_edges,
        nodes=len(nodes),
        entries=int(entries),
        relation_edges=_labeled_counts(np.asarray(columns["relation"]),
                                       columns["relations"]),
        domain_edges=_labeled_counts(np.asarray(columns["domain"]),
                                     columns["domains"]),
        behavior_edges=_labeled_counts(np.asarray(columns["behavior"]),
                                       columns["behaviors"]),
        head_degree=_degree_summary(heads, len(nodes)),
        tail_degree=_degree_summary(tails, len(nodes)),
        plausibility=_score_histogram(np.asarray(columns["plausibility"])),
        typicality=_score_histogram(np.asarray(columns["typicality"])),
        support_total=support_total,
        merged_edges=merged,
        dedup_ratio=(support_total / n_edges) if n_edges else 1.0,
    )


def _payload(item: Any) -> Mapping[str, Any]:
    return item.as_dict() if hasattr(item, "as_dict") else item


def kg_health_report(
    reports: Sequence[KgHealthReport],
    drift: Sequence[Any] = (),
    gates: Sequence[Any] = (),
) -> dict:
    """The ``repro.obs.kg_health/v1`` document: snapshot health reports
    in lineage order, plus any drift reports and gate decisions.

    ``drift`` / ``gates`` items may be dataclasses with ``as_dict`` (the
    shapes from :mod:`repro.obs.drift` and
    :mod:`repro.refresh.quality`) or already-rendered mappings.  Fully
    deterministic for deterministic inputs — no timestamps, no ids.
    """
    return {
        "schema": KG_HEALTH_SCHEMA,
        "snapshots": [report.as_dict() for report in reports],
        "drift": [dict(_payload(item)) for item in drift],
        "gates": [dict(_payload(item)) for item in gates],
    }


_DEGREE = Obj({
    "nodes": COUNT, "max": COUNT, "mean": NUMBER,
    "buckets": ListOf(Obj({"le": BUCKET_BOUND, "count": COUNT}), min_len=1),
})
_SCORES = Obj({"edges": ListOf(NUMBER, min_len=2), "counts": ListOf(COUNT),
               "mean": NUMBER, "min": NUMBER, "max": NUMBER})
_SNAPSHOT = Obj({
    "version": STRING, "parent": nullable(STRING), "triples": COUNT,
    "nodes": COUNT, "entries": COUNT,
    "relation_edges": MapOf(COUNT), "domain_edges": MapOf(COUNT),
    "behavior_edges": MapOf(COUNT),
    "head_degree": _DEGREE, "tail_degree": _DEGREE,
    "plausibility": _SCORES, "typicality": _SCORES,
    "support_total": COUNT, "merged_edges": COUNT, "dedup_ratio": NUMBER,
})
_DRIFT = Obj({
    "parent_version": STRING, "child_version": STRING,
    "metrics": MapOf(NUMBER, min_len=1),
    "breaches": ListOf(Obj({
        "breach_id": NAME, "rule": NAME, "metric": NAME, "value": NUMBER,
        "threshold": NUMBER, "state": one_of("firing"),
    })),
})
_GATE = Obj({"version": STRING, "parent_version": nullable(STRING),
             "promote": BOOL, "breaches": ListOf(STRING)})
_TABLE = Obj({"schema": one_of(KG_HEALTH_SCHEMA), "snapshots": ListOf(_SNAPSHOT),
              "drift": ListOf(_DRIFT), "gates": ListOf(_GATE)})


def _cross_check_snapshot(where: str, snap: Mapping[str, Any]) -> None:
    triples = snap["triples"]
    for key in ("relation_edges", "domain_edges", "behavior_edges"):
        total = sum(snap[key].values())
        if total != triples:
            fail(f"{where}.{key}", f"edge counts sum to {total}, "
                 f"snapshot has {triples} triples")
    for key in ("head_degree", "tail_degree"):
        check_buckets(f"{where}.{key}.buckets", snap[key]["buckets"],
                      snap[key]["nodes"])
    for key in ("plausibility", "typicality"):
        counts = snap[key]["counts"]
        if len(counts) != len(snap[key]["edges"]) - 1:
            fail(f"{where}.{key}.counts", "expected one count per bin")
        if sum(counts) != triples:
            fail(f"{where}.{key}.counts", f"bin counts sum to {sum(counts)}, "
                 f"snapshot has {triples} triples")


def _cross_check(payload: Mapping[str, Any]) -> None:
    for index, snap in enumerate(payload["snapshots"]):
        _cross_check_snapshot(f"snapshots[{index}]", snap)
    for d_index, item in enumerate(payload["drift"]):
        for b_index, breach in enumerate(item["breaches"]):
            if breach["metric"] not in item["metrics"]:
                fail(f"drift[{d_index}].breaches[{b_index}].metric",
                     f"breached metric {breach['metric']!r} missing from metrics")
    for index, gate in enumerate(payload["gates"]):
        if gate["promote"] and gate["breaches"]:
            fail(f"gates[{index}].promote",
                 "a promoting decision cannot carry breaches")
        if not gate["promote"] and not gate["breaches"]:
            fail(f"gates[{index}].promote",
                 "a blocking decision must name its breaches")


SCHEMA = Schema(KG_HEALTH_SCHEMA, "kg health report", _TABLE, _cross_check)
