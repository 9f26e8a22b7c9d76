"""Cross-tracer trace assembly, critical-path and stage analysis.

The serving stack traces one request across several tracers: the cluster
times arrival/queueing on the arrival clock, each replica times its
serve/batch work on its own clock (the clocks share an epoch, so the
timelines compose).  :class:`TraceAnalyzer` reassembles those fragments
by trace id — same-tracer parentage via ``parent_id``, cross-tracer
parentage via ``remote_parent`` refs — into one tree per trace, then
answers the questions latency work needs:

* :meth:`TraceAnalyzer.critical_path` — the chain of spans that carried
  the request's latency, each step with its *self time* (duration minus
  time covered by its children, clipped to its ancestors' window);
* :meth:`TraceAnalyzer.stage_breakdown` — self time bucketed into
  serving stages (queueing / cache / generation / retry / degradation /
  batch / other).  Because spans nest and children are clipped to their
  parents, the stage totals sum to the root span's duration — i.e. to
  the latency the request was actually charged.  Post-request async work
  (batch flushes the request triggered) is attributed to the trace but
  clips to zero inside the charged window;
* :meth:`TraceAnalyzer.aggregate` — per-stage totals across traces, the
  "where do the milliseconds go" table.

:func:`trace_summary` renders the analysis as a deterministic JSON
payload (schema ``repro.obs.traces/v1``); :data:`SCHEMA` is its table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.obs.schema import (
    BOOL, COUNT, NON_NEGATIVE, NUMBER, POSITIVE_INT, STRING, ListOf, MapOf,
    Obj, Schema, fail, one_of,
)
from repro.obs.tracing import Span, Tracer

__all__ = [
    "SCHEMA",
    "TRACES_SCHEMA",
    "PathStep",
    "TraceAnalyzer",
    "TraceNode",
    "stage_for",
    "trace_summary",
]

TRACES_SCHEMA = "repro.obs.traces/v1"

#: Span-name prefix → serving stage, first match wins.
_STAGE_PREFIXES: tuple[tuple[str, str], ...] = (
    ("cluster.queueing", "queueing"),
    ("cluster.flush", "batch"),
    ("serving.run_batch", "batch"),
    ("serving.cache", "cache"),
    ("serving.degraded", "degradation"),
    ("serving.fallback", "degradation"),
    ("resilience.backoff", "retry"),
    ("resilience.attempt", "generation"),
)


def stage_for(name: str) -> str:
    """The serving stage a span name belongs to (``"other"`` if none)."""
    for prefix, stage in _STAGE_PREFIXES:
        if name.startswith(prefix):
            return stage
    return "other"


@dataclass
class TraceNode:
    """One span placed in its trace's tree."""

    process: str
    ref: str
    span: Span
    children: list["TraceNode"] = field(default_factory=list, init=False)

    @property
    def name(self) -> str:
        return self.span.name

    @property
    def start_s(self) -> float:
        return self.span.start_s

    @property
    def end_s(self) -> float:
        return self.span.end_s if self.span.end_s is not None else self.span.start_s


@dataclass(frozen=True)
class PathStep:
    """One hop on a trace's critical path."""

    ref: str
    name: str
    process: str
    start_s: float
    duration_s: float
    self_s: float
    stage: str


class TraceAnalyzer:
    """Assembled view over the traces retained by a set of tracers.

    ``tracers`` are ``(process_name, tracer)`` pairs exactly as passed
    to :func:`~repro.obs.tracing.chrome_trace`; tracer names must be
    unique because cross-tracer refs resolve through them.
    """

    def __init__(self, tracers: Sequence[tuple[str, Tracer]]):
        names = [tracer.name for _, tracer in tracers]
        if len(set(names)) != len(names):
            raise ValueError(f"tracer names must be unique, got {names}")
        self._traces: dict[str, list[TraceNode]] = {}
        nodes_by_ref: dict[str, TraceNode] = {}
        for process, tracer in tracers:
            for span in tracer.spans():
                if span.trace_id is None or span.end_s is None:
                    continue
                node = TraceNode(process=process, ref=tracer.ref(span),
                                 span=span)
                nodes_by_ref[node.ref] = node
                self._traces.setdefault(span.trace_id, []).append(node)
        self._roots: dict[str, list[TraceNode]] = {}
        for trace_id, nodes in self._traces.items():
            in_trace = {node.ref for node in nodes}
            for node in nodes:
                parent_ref = node.span.remote_parent
                if parent_ref is None and node.span.parent_id is not None:
                    tracer_name = node.ref.rsplit(":", 1)[0]
                    parent_ref = f"{tracer_name}:{node.span.parent_id}"
                if parent_ref is not None and parent_ref in in_trace:
                    nodes_by_ref[parent_ref].children.append(node)
                else:
                    self._roots.setdefault(trace_id, []).append(node)
            for node in nodes:
                node.children.sort(key=lambda c: (c.start_s, c.ref))
            self._roots[trace_id].sort(key=lambda n: (n.start_s, n.ref))

    # ------------------------------------------------------------------
    def trace_ids(self) -> list[str]:
        """Retained trace ids, ordered by root start time then id."""
        return sorted(self._traces,
                      key=lambda t: (self._roots[t][0].start_s, t))

    def spans_for(self, trace_id: str) -> list[TraceNode]:
        return list(self._traces[trace_id])

    def is_connected(self, trace_id: str) -> bool:
        """True when every span hangs off one single root."""
        return len(self._roots[trace_id]) == 1

    def root(self, trace_id: str) -> TraceNode:
        return self._roots[trace_id][0]

    # ------------------------------------------------------------------
    def _walk(self, node: TraceNode, window: tuple[float, float],
              stages: dict[str, float] | None,
              path: list[PathStep] | None) -> float:
        """Clipped duration of ``node``; accumulates self-times.

        ``window`` is the enclosing ancestors' interval; every span is
        clipped to it so async overhang (batch work charged after the
        request's latency window) never inflates the breakdown.
        """
        lo = max(node.start_s, window[0])
        hi = max(min(node.end_s, window[1]), lo)
        clipped = hi - lo
        covered = 0.0
        best: TraceNode | None = None
        best_duration = -1.0
        for child in node.children:
            child_clipped = self._walk(child, (lo, hi), stages, None)
            covered += child_clipped
            if child_clipped > best_duration:
                best, best_duration = child, child_clipped
        self_s = max(clipped - covered, 0.0)
        if stages is not None:
            stages[stage_for(node.name)] = (
                stages.get(stage_for(node.name), 0.0) + self_s)
        if path is not None:
            path.append(PathStep(
                ref=node.ref, name=node.name, process=node.process,
                start_s=lo, duration_s=clipped, self_s=self_s,
                stage=stage_for(node.name),
            ))
            if best is not None and best_duration > 0.0:
                self._walk(best, (lo, hi), None, path)
        return clipped

    def duration_s(self, trace_id: str) -> float:
        """The charged window: the (first) root span's duration."""
        root = self.root(trace_id)
        return root.end_s - root.start_s

    def stage_breakdown(self, trace_id: str) -> dict[str, float]:
        """Self time per stage; sums to :meth:`duration_s` for a
        connected trace (children clip to their parents' window)."""
        stages: dict[str, float] = {}
        for root in self._roots[trace_id]:
            self._walk(root, (root.start_s, root.end_s), stages, None)
        return stages

    def critical_path(self, trace_id: str) -> list[PathStep]:
        """Root-to-leaf chain following the child with the largest
        clipped duration at every level."""
        path: list[PathStep] = []
        root = self.root(trace_id)
        self._walk(root, (root.start_s, root.end_s), None, path)
        return path

    def aggregate(self) -> dict:
        """Per-stage self-time totals and span counts across all traces."""
        totals: dict[str, dict[str, float]] = {}
        span_count = 0
        for trace_id, nodes in self._traces.items():
            span_count += len(nodes)
            for stage, seconds in self.stage_breakdown(trace_id).items():
                entry = totals.setdefault(stage, {"total_s": 0.0, "traces": 0})
                entry["total_s"] += seconds
                entry["traces"] += 1
        return {"traces": len(self._traces), "spans": span_count,
                "stages": {stage: totals[stage] for stage in sorted(totals)}}


def trace_summary(analyzer: TraceAnalyzer) -> dict:
    """Deterministic JSON-able analysis payload for a set of traces."""
    traces = []
    for trace_id in analyzer.trace_ids():
        root = analyzer.root(trace_id)
        nodes = analyzer.spans_for(trace_id)
        stages = analyzer.stage_breakdown(trace_id)
        path = [
            {"name": step.name, "process": step.process,
             "start_s": step.start_s, "self_s": step.self_s,
             "stage": step.stage}
            for step in analyzer.critical_path(trace_id)
        ]
        traces.append({
            "trace_id": trace_id,
            "root": root.name,
            "connected": analyzer.is_connected(trace_id),
            "processes": sorted({node.process for node in nodes}),
            "spans": len(nodes),
            "duration_s": analyzer.duration_s(trace_id),
            "outcome": str(root.span.attributes.get("outcome", "")),
            "source": str(root.span.attributes.get("source", "")),
            "status": ("error" if any(n.span.status != "ok" for n in nodes)
                       else "ok"),
            "stages": {stage: stages[stage] for stage in sorted(stages)},
            "critical_path": path,
        })
    return {"schema": TRACES_SCHEMA, "traces": traces,
            "aggregate": analyzer.aggregate()}


_TABLE = Obj({
    "schema": one_of(TRACES_SCHEMA),
    "traces": ListOf(Obj({
        "trace_id": STRING, "root": STRING, "connected": BOOL,
        "processes": ListOf(STRING, min_len=1), "spans": POSITIVE_INT,
        "duration_s": NUMBER, "outcome": STRING, "source": STRING,
        "status": one_of("ok", "error"), "stages": MapOf(NON_NEGATIVE),
        "critical_path": ListOf(Obj({
            "name": STRING, "process": STRING, "start_s": NUMBER,
            "self_s": NUMBER, "stage": STRING,
        }), min_len=1),
    })),
    "aggregate": Obj({
        "traces": COUNT, "spans": COUNT,
        "stages": MapOf(Obj({"total_s": NUMBER, "traces": COUNT})),
    }),
})


def _cross_check(payload: Mapping) -> None:
    if payload["aggregate"]["traces"] != len(payload["traces"]):
        fail("aggregate.traces", "must equal the number of trace entries")


SCHEMA = Schema(TRACES_SCHEMA, "trace summary", _TABLE, _cross_check)
