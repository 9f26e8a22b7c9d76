"""Snapshot drift detection: parent→child knowledge distribution shift.

A refresh that silently corrupts the knowledge graph — relation mix
collapsing onto one relation, critic scores cratering, half the edges
vanishing — is invisible to serving SLOs as long as requests stay fast.
This module compares two :class:`~repro.obs.kg_health.KgHealthReport`
objects along a snapshot lineage edge and scores the shift:

* Jensen–Shannon divergence (base 2, in ``[0, 1]``) on the relation and
  domain edge distributions;
* JS divergence on the critic-score histograms plus the raw drop in
  mean plausibility (a divergence can be large while quality *improves*;
  the mean-drop metric is directional);
* added/removed edge and entry rates relative to the parent.

Thresholds are declared as :class:`DriftRule` objects — the same
spec-shape discipline as :class:`~repro.obs.slo.SloSpec` — and a breach
materializes as a :class:`DriftBreach` mirroring the
:class:`~repro.obs.slo.Alert` surface (stable id, state, as_dict), so
the rollout controller can treat "knowledge drifted" exactly like "SLO
burned".  Everything here is pure python over plain report data: no
numpy, no clock, no registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.obs.kg_health import KgHealthReport

__all__ = [
    "js_divergence",
    "DriftRule",
    "DriftBreach",
    "DriftReport",
    "default_drift_rules",
    "evaluate_drift",
]


def js_divergence(p: Mapping[str, float] | Sequence[float],
                  q: Mapping[str, float] | Sequence[float]) -> float:
    """Jensen–Shannon divergence between two count distributions.

    Base-2, so the result is in ``[0, 1]``: 0 for identical mixes, 1
    for disjoint support.  Inputs are raw (unnormalized) counts, either
    as label→count mappings (aligned by key) or as parallel sequences
    (aligned by index).  Two empty distributions are identical (0.0);
    one empty against one populated is maximal (1.0).
    """
    if isinstance(p, Mapping) or isinstance(q, Mapping):
        p_map = dict(p) if isinstance(p, Mapping) else dict(enumerate(p))
        q_map = dict(q) if isinstance(q, Mapping) else dict(enumerate(q))
        keys = sorted(set(p_map) | set(q_map), key=str)
        p_counts = [float(p_map.get(key, 0.0)) for key in keys]
        q_counts = [float(q_map.get(key, 0.0)) for key in keys]
    else:
        width = max(len(p), len(q))
        p_counts = [float(v) for v in p] + [0.0] * (width - len(p))
        q_counts = [float(v) for v in q] + [0.0] * (width - len(q))
    p_total = sum(p_counts)
    q_total = sum(q_counts)
    if p_total <= 0.0 and q_total <= 0.0:
        return 0.0
    if p_total <= 0.0 or q_total <= 0.0:
        return 1.0

    def _kl_to_mixture(counts: list[float], total: float) -> float:
        acc = 0.0
        for c_self, c_p, c_q in zip(counts, p_counts, q_counts):
            if c_self <= 0.0:
                continue
            prob = c_self / total
            mix = 0.5 * (c_p / p_total + c_q / q_total)
            acc += prob * math.log2(prob / mix)
        return acc

    value = 0.5 * _kl_to_mixture(p_counts, p_total) \
        + 0.5 * _kl_to_mixture(q_counts, q_total)
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class DriftRule:
    """One thresholded drift metric, declared like an SLO spec.

    ``metric`` names a key in the :class:`DriftReport` metrics mapping;
    the rule breaches when the observed value exceeds ``max_value``.
    """

    name: str
    description: str
    metric: str
    max_value: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("drift rule needs a name")
        if not self.metric:
            raise ValueError(f"drift rule {self.name!r} needs a metric")
        if not math.isfinite(self.max_value) or self.max_value < 0.0:
            raise ValueError(
                f"drift rule {self.name!r} needs a finite non-negative "
                f"max_value, got {self.max_value!r}"
            )


@dataclass(frozen=True)
class DriftBreach:
    """A drift rule exceeded its threshold — the knowledge-plane analogue
    of a firing :class:`~repro.obs.slo.Alert`."""

    breach_id: str
    rule: str
    metric: str
    value: float
    threshold: float
    state: str = field(default="firing", init=False)

    def as_dict(self) -> dict:
        return {
            "breach_id": self.breach_id,
            "rule": self.rule,
            "metric": self.metric,
            "value": self.value,
            "threshold": self.threshold,
            "state": self.state,
        }


@dataclass(frozen=True)
class DriftReport:
    """All drift metrics for one parent→child lineage edge."""

    parent_version: str
    child_version: str
    metrics: Mapping[str, float]
    breaches: tuple[DriftBreach, ...]

    @property
    def ok(self) -> bool:
        return not self.breaches

    def as_dict(self) -> dict:
        return {
            "parent_version": self.parent_version,
            "child_version": self.child_version,
            "metrics": dict(sorted(self.metrics.items())),
            "breaches": [breach.as_dict() for breach in self.breaches],
        }


def default_drift_rules() -> tuple[DriftRule, ...]:
    """The stock knowledge-quality gate.

    Mix-shift thresholds (0.35 bits) allow healthy growth — adding a
    relation or rebalancing domains moves JS divergence by well under
    0.1 — while a collapse onto a single relation scores near 1.0.
    Edge-rate bounds catch mass deletion (>25% of parent edges gone)
    and runaway growth (child more than 5× parent).  Entry rates are
    *measured* but unruled: an empty serving table is the serving
    guard's failure to catch, and ruling on it here would double-fire.
    """
    return (
        DriftRule(
            name="relation-mix-shift",
            description="relation edge distribution diverged from parent",
            metric="relation_js",
            max_value=0.35,
        ),
        DriftRule(
            name="domain-mix-shift",
            description="domain edge distribution diverged from parent",
            metric="domain_js",
            max_value=0.35,
        ),
        DriftRule(
            name="critic-plausibility-shift",
            description="plausibility score histogram diverged from parent",
            metric="plausibility_js",
            max_value=0.35,
        ),
        DriftRule(
            name="critic-typicality-shift",
            description="typicality score histogram diverged from parent",
            metric="typicality_js",
            max_value=0.35,
        ),
        DriftRule(
            name="critic-plausibility-collapse",
            description="mean plausibility dropped versus parent",
            metric="plausibility_mean_drop",
            max_value=0.2,
        ),
        DriftRule(
            name="edge-removal-rate",
            description="edges present in parent vanished from child",
            metric="removed_edge_rate",
            max_value=0.25,
        ),
        DriftRule(
            name="edge-growth-rate",
            description="child added edges far beyond parent volume",
            metric="added_edge_rate",
            max_value=4.0,
        ),
    )


def evaluate_drift(
    parent: KgHealthReport,
    child: KgHealthReport,
    *,
    added_edges: int = 0,
    removed_edges: int = 0,
    entries_added: int = 0,
    entries_removed: int = 0,
    rules: Sequence[DriftRule] | None = None,
) -> DriftReport:
    """Score a parent→child snapshot edge against drift rules.

    The distributional metrics come straight off the two health
    reports; the add/remove rates need the caller to diff the edge and
    entry sets (the reports only carry aggregates) — see
    :func:`repro.refresh.quality.snapshot_health` for the adapter that
    does both.
    """
    if rules is None:
        rules = default_drift_rules()
    parent_edges = max(parent.triples, 1)
    parent_entries = max(parent.entries, 1)
    metrics: dict[str, float] = {
        "relation_js": js_divergence(parent.relation_edges, child.relation_edges),
        "domain_js": js_divergence(parent.domain_edges, child.domain_edges),
        "plausibility_js": js_divergence(parent.plausibility.counts,
                                         child.plausibility.counts),
        "typicality_js": js_divergence(parent.typicality.counts,
                                       child.typicality.counts),
        "plausibility_mean_drop": max(
            0.0, parent.plausibility.mean - child.plausibility.mean),
        "typicality_mean_drop": max(
            0.0, parent.typicality.mean - child.typicality.mean),
        "added_edge_rate": added_edges / parent_edges,
        "removed_edge_rate": removed_edges / parent_edges,
        "entry_added_rate": entries_added / parent_entries,
        "entry_removed_rate": entries_removed / parent_entries,
    }
    breaches = []
    for rule in rules:
        value = metrics.get(rule.metric)
        if value is None:
            raise ValueError(
                f"drift rule {rule.name!r} references unknown metric "
                f"{rule.metric!r}"
            )
        if value > rule.max_value:
            breaches.append(DriftBreach(
                breach_id=f"{rule.name}#1",
                rule=rule.name,
                metric=rule.metric,
                value=value,
                threshold=rule.max_value,
            ))
    return DriftReport(
        parent_version=parent.version,
        child_version=child.version,
        metrics=metrics,
        breaches=tuple(breaches),
    )
