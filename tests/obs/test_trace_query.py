"""Trace assembly across tracers: critical path, stage self-times."""

import pytest

from repro.obs import validate
from repro.obs.tracing import Tracer
from repro.obs.trace_query import (
    TRACES_SCHEMA,
    TraceAnalyzer,
    stage_for,
    trace_summary,
)


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def now(self) -> float:
        return self.t


def _request_trace(trace_id="t1", queue_s=0.2, generate_s=0.5, tail_s=0.1):
    """One cluster→replica request: root, queueing child, remote serve.

    Timeline: root [0, queue+generate+tail]; queueing [0, queue] on the
    cluster tracer; serving.request [queue, queue+generate+tail] on the
    replica tracer with a resilience.attempt child covering generate_s.
    """
    clock = ManualClock()
    cluster = Tracer(name="cluster", clock=lambda: clock.t)
    replica = Tracer(name="replica", clock=lambda: clock.t)
    with cluster.trace(trace_id, "cluster.request", cluster.clock, {},
                       None) as root:
        with cluster.span("cluster.queueing"):
            clock.t += queue_s
        with replica.attach(root):
            with replica.span("serving.request"):
                with replica.span("resilience.attempt"):
                    clock.t += generate_s
                clock.t += tail_s
    return [("cluster", cluster), ("replica", replica)]


def test_stage_for_prefix_mapping():
    assert stage_for("cluster.queueing") == "queueing"
    assert stage_for("cluster.flush") == "batch"
    assert stage_for("serving.run_batch") == "batch"
    assert stage_for("serving.cache_serve") == "cache"
    assert stage_for("serving.degraded_serve") == "degradation"
    assert stage_for("resilience.backoff") == "retry"
    assert stage_for("resilience.attempt") == "generation"
    assert stage_for("cluster.request") == "other"


def test_cross_tracer_assembly_is_connected():
    analyzer = TraceAnalyzer(_request_trace())
    assert analyzer.trace_ids() == ["t1"]
    assert analyzer.is_connected("t1")
    root = analyzer.root("t1")
    assert root.name == "cluster.request"
    assert len(analyzer.spans_for("t1")) == 4
    assert analyzer.duration_s("t1") == pytest.approx(0.8)


def test_stage_breakdown_sums_to_charged_latency():
    analyzer = TraceAnalyzer(_request_trace(queue_s=0.2, generate_s=0.5,
                                            tail_s=0.1))
    stages = analyzer.stage_breakdown("t1")
    assert stages["queueing"] == pytest.approx(0.2)
    assert stages["generation"] == pytest.approx(0.5)
    # serving.request's tail self-time plus the root's zero self-time.
    assert stages["other"] == pytest.approx(0.1)
    assert sum(stages.values()) == pytest.approx(analyzer.duration_s("t1"))


def test_critical_path_follows_largest_child():
    analyzer = TraceAnalyzer(_request_trace(queue_s=0.2, generate_s=0.5))
    path = analyzer.critical_path("t1")
    assert [step.name for step in path] == [
        "cluster.request", "serving.request", "resilience.attempt"]
    assert path[0].self_s == pytest.approx(0.0)
    assert path[-1].stage == "generation"
    # Each step's clipped duration never exceeds its parent's.
    assert all(a.duration_s >= b.duration_s for a, b in zip(path, path[1:]))


def test_async_overhang_clips_to_the_charged_window():
    clock = ManualClock()
    tracer = Tracer(name="cluster", clock=lambda: clock.t)
    with tracer.trace("t1", "cluster.request", tracer.clock, {}, None):
        clock.t = 1.0
        # A flush the dispatch triggers runs past the dispatch's window.
        tracer.record("cluster.flush", start_s=1.0, end_s=3.0)
    analyzer = TraceAnalyzer([("cluster", tracer)])
    stages = analyzer.stage_breakdown("t1")
    assert stages.get("batch", 0.0) == 0.0  # clipped: outside [0, 1]
    assert sum(stages.values()) == pytest.approx(analyzer.duration_s("t1"))


def test_disconnected_trace_reports_multiple_roots():
    elsewhere, tracer = Tracer(name="elsewhere"), Tracer(name="a")
    with elsewhere.trace("t1", "upstream", elsewhere.clock, {}, None) as root:
        with tracer.attach(root):
            with tracer.span("orphan-one"):
                pass
            with tracer.span("orphan-two"):
                pass
    # The upstream tracer is not part of the analysis.
    analyzer = TraceAnalyzer([("a", tracer)])
    assert not analyzer.is_connected("t1")
    # Neither orphan hangs off the other: the earlier one is the root.
    assert analyzer.root("t1").name == "orphan-one"
    assert analyzer.root("t1").children == []
    assert [n.name for n in analyzer.spans_for("t1")] == ["orphan-one",
                                                          "orphan-two"]


def test_duplicate_tracer_names_are_rejected():
    with pytest.raises(ValueError):
        TraceAnalyzer([("p", Tracer(name="dup")), ("q", Tracer(name="dup"))])


def test_aggregate_totals_across_traces():
    tracers = _request_trace("t1")
    # Second, later trace on the same tracers.
    clock = ManualClock()
    clock.t = 10.0
    cluster = dict(tracers)["cluster"]
    with cluster.trace("t2", "cluster.request", clock.now, {}, None):
        with cluster.span("cluster.queueing"):
            clock.t += 1.0
    aggregate = TraceAnalyzer(tracers).aggregate()
    assert aggregate["traces"] == 2
    assert aggregate["spans"] == 6
    assert aggregate["stages"]["queueing"]["total_s"] == pytest.approx(1.2)
    assert aggregate["stages"]["queueing"]["traces"] == 2
    assert list(aggregate["stages"]) == sorted(aggregate["stages"])


def test_trace_summary_round_trips_validation():
    tracers = _request_trace()
    summary = trace_summary(TraceAnalyzer(tracers))
    validate(TRACES_SCHEMA, summary)
    assert summary["schema"] == TRACES_SCHEMA
    (entry,) = summary["traces"]
    assert entry["trace_id"] == "t1"
    assert entry["connected"] is True
    assert entry["processes"] == ["cluster", "replica"]
    assert entry["spans"] == 4
    assert [step["name"] for step in entry["critical_path"]] == [
        "cluster.request", "serving.request", "resilience.attempt"]


@pytest.mark.parametrize("mutate", [
    lambda s: s.update(schema="wrong/v0"),
    lambda s: s["traces"][0].update(spans=0),
    lambda s: s["traces"][0].update(connected="yes"),
    lambda s: s["traces"][0]["stages"].update(queueing=-0.1),
    lambda s: s["traces"][0].update(critical_path=[]),
    lambda s: s["aggregate"].update(traces=99),
    lambda s: s["aggregate"].update(spans=True),
])
def test_validate_trace_summary_rejects_malformed(mutate):
    summary = trace_summary(TraceAnalyzer(_request_trace()))
    mutate(summary)
    with pytest.raises(ValueError):
        validate(TRACES_SCHEMA, summary)
