"""Unified observability layer: metrics, tracing, and profiling.

Three dependency-free parts (DESIGN.md §9):

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labeled
  counters and fixed-bucket streaming histograms (bounded memory,
  percentile estimates without sample lists);
* :mod:`repro.obs.tracing` — a :class:`Tracer` of nested spans timed on
  an *injectable clock callable*, exporting Chrome trace-event JSON;
* :mod:`repro.obs.timebase` — the sole sanctioned wall-clock call site,
  for the benchmarks' real-time measurements only.

Continuous monitoring (DESIGN.md §11) builds on those parts:

* :mod:`repro.obs.timeseries` — the :class:`ScrapeGrid` of simulated
  timestamps that paces SLO evaluation and rollout ticks;
* :mod:`repro.obs.events` — a bounded, byte-deterministic structured
  event log for operational transitions (``repro.obs.events/v1``);
* :mod:`repro.obs.slo` — declarative SLO objectives with multi-window
  burn-rate rules and a pending→firing→resolved alert state machine
  that cross-references event ids.

Knowledge-plane observability (DESIGN.md §14) extends the same
discipline to the data the system serves:

* :mod:`repro.obs.kg_health` — per-snapshot :class:`KgHealthReport`
  computed in one vectorized pass over the KG's columnar arrays, with a
  ``repro.obs.kg_health/v1`` export;
* :mod:`repro.obs.drift` — parent→child distribution-shift scoring
  (Jensen–Shannon mixes, critic-score shift, edge churn) under
  declarative :class:`DriftRule` thresholds.

The metrics exporter lives in :mod:`repro.obs.export` (JSON snapshot).
Every versioned artifact's shape is one declared table beside its
renderer, checked by the single walker in
:mod:`repro.obs.schema`; :mod:`repro.obs.artifacts` is the registry
(:func:`validate` for a known schema id, :func:`dispatch` for a file of
unknown kind).
"""

from repro.obs.artifacts import SCHEMAS, dispatch, validate
from repro.obs.drift import (
    DriftBreach,
    DriftReport,
    DriftRule,
    default_drift_rules,
    evaluate_drift,
    js_divergence,
)
from repro.obs.events import (
    EVENTS_SCHEMA,
    Event,
    EventLog,
    render_events,
)
from repro.obs.export import (
    SNAPSHOT_SCHEMA,
    snapshot,
)
from repro.obs.kg_health import (
    KG_HEALTH_SCHEMA,
    DegreeSummary,
    KgHealthReport,
    ScoreHistogram,
    compute_kg_health,
    kg_health_report,
)
from repro.obs.slo import (
    ALERTS_SCHEMA,
    Alert,
    BurnRateRule,
    MetricSum,
    SloEvaluator,
    SloSpec,
    alert_report,
)
from repro.obs.timeseries import ScrapeGrid
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.sampling import TailSampler
from repro.obs.timebase import wall_now
from repro.obs.trace_query import (
    TRACES_SCHEMA,
    PathStep,
    TraceAnalyzer,
    TraceNode,
    stage_for,
    trace_summary,
)
from repro.obs.tracing import (
    CHROME_TRACE_SCHEMA,
    TRACE_ID_ATTR,
    Span,
    TraceContext,
    Tracer,
    chrome_trace,
    make_trace_id,
)

__all__ = [
    "SCHEMAS",
    "dispatch",
    "validate",
    "CHROME_TRACE_SCHEMA",
    "DEFAULT_LATENCY_BUCKETS_S",
    "Counter",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Span",
    "TRACE_ID_ATTR",
    "TraceContext",
    "Tracer",
    "chrome_trace",
    "make_trace_id",
    "TailSampler",
    "TRACES_SCHEMA",
    "PathStep",
    "TraceAnalyzer",
    "TraceNode",
    "stage_for",
    "trace_summary",
    "SNAPSHOT_SCHEMA",
    "snapshot",
    "wall_now",
    "EVENTS_SCHEMA",
    "Event",
    "EventLog",
    "render_events",
    "ScrapeGrid",
    "ALERTS_SCHEMA",
    "Alert",
    "BurnRateRule",
    "MetricSum",
    "SloSpec",
    "SloEvaluator",
    "alert_report",
    "KG_HEALTH_SCHEMA",
    "DegreeSummary",
    "ScoreHistogram",
    "KgHealthReport",
    "compute_kg_health",
    "kg_health_report",
    "DriftRule",
    "DriftBreach",
    "DriftReport",
    "default_drift_rules",
    "evaluate_drift",
    "js_divergence",
]
