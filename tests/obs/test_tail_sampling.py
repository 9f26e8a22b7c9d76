"""Tail-based sampling: keep/drop decided when the trace finishes."""

import pytest

from repro.obs.sampling import TailSampler
from repro.obs.tracing import TraceContext, Tracer


def _traced_span(tracer, trace_id, name="work", duration_s=0.0, at_s=0.0):
    """Open and close one trace-tagged span (buffered by the sampler)."""
    clock = {"t": at_s}
    with tracer.clocked(lambda: clock["t"]):
        with tracer.attach(TraceContext(trace_id)):
            with tracer.span(name) as span:
                clock["t"] = at_s + duration_s
    return span


@pytest.mark.parametrize("kwargs", [
    {"slowest_k": -1},
    {"window_s": 0.0},
    {"head_every": -2},
    {"max_buffered_spans": 0},
])
def test_constructor_rejects_bad_policy(kwargs):
    with pytest.raises(ValueError):
        TailSampler(**kwargs)


def test_untagged_spans_are_never_buffered():
    sampler = TailSampler()
    tracer = Tracer(sampler=sampler)
    with tracer.span("plain") as span:  # no context attached
        pass
    assert tracer.spans() == [span]
    assert sampler.buffered_spans == 0


def test_tagged_spans_are_buffered_not_retained_until_verdict():
    sampler = TailSampler(head_every=0)
    tracer = Tracer(sampler=sampler)
    _traced_span(tracer, "t1")
    assert tracer.spans() == []  # held by the sampler, not the tracer
    assert sampler.buffered_spans == 1
    assert sampler.pending_traces == 1


def test_flagged_traces_always_commit():
    sampler = TailSampler(slowest_k=0, head_every=0)
    tracer = Tracer(sampler=sampler)
    span = _traced_span(tracer, "bad")
    assert sampler.finish("bad", ts=0.0, duration_s=0.1, flagged=True) == "flagged"
    assert [s.name for s in tracer.spans()] == ["work"]
    assert span.retained
    assert sampler.decisions["flagged"] == 1
    assert sampler.buffered_spans == 0


def test_head_sampling_keeps_every_nth_ordinary_trace():
    sampler = TailSampler(slowest_k=0, window_s=100.0, head_every=3)
    tracer = Tracer(sampler=sampler)
    fates = []
    for index in range(7):
        _traced_span(tracer, f"t{index}")
        fates.append(sampler.finish(f"t{index}", ts=0.0, duration_s=0.001))
    # Ordinary traces 1, 4, 7 (1-indexed) commit as the head baseline.
    assert fates == ["head", "deferred", "deferred",
                     "head", "deferred", "deferred", "head"]
    sampler.flush()
    assert sampler.decisions == {"flagged": 0, "slow": 0, "head": 3,
                                 "dropped": 4}
    assert {s.trace_id for s in tracer.spans()} == {"t0", "t3", "t6"}


def test_window_keeps_slowest_k_and_drops_the_rest():
    sampler = TailSampler(slowest_k=2, window_s=10.0, head_every=0)
    tracer = Tracer(sampler=sampler)
    durations = {"a": 0.05, "b": 0.30, "c": 0.10, "d": 0.20}
    for trace_id, duration in durations.items():
        _traced_span(tracer, trace_id, duration_s=duration)
        assert sampler.finish(trace_id, ts=1.0, duration_s=duration) == "deferred"
    # Crossing the window boundary resolves the previous window.
    _traced_span(tracer, "next")
    sampler.finish("next", ts=11.0, duration_s=0.01)
    assert {s.trace_id for s in tracer.spans()} == {"b", "d"}  # the 2 slowest
    assert sampler.decisions["slow"] == 2
    assert sampler.decisions["dropped"] == 2
    assert tracer.dropped == 2  # a + c, one span each


def test_duration_ties_break_by_finish_order():
    sampler = TailSampler(slowest_k=1, window_s=10.0, head_every=0)
    tracer = Tracer(sampler=sampler)
    for trace_id in ("first", "second"):
        _traced_span(tracer, trace_id, duration_s=0.25)
        sampler.finish(trace_id, ts=0.0, duration_s=0.25)
    sampler.flush()
    assert [s.trace_id for s in tracer.spans()] == ["first"]


def test_flush_resolves_the_open_window():
    sampler = TailSampler(slowest_k=1, window_s=60.0, head_every=0)
    tracer = Tracer(sampler=sampler)
    for trace_id, duration in (("slow", 0.9), ("fast", 0.1)):
        _traced_span(tracer, trace_id, duration_s=duration)
        sampler.finish(trace_id, ts=0.0, duration_s=duration)
    assert tracer.spans() == []  # verdicts still pending
    sampler.flush()
    assert [s.trace_id for s in tracer.spans()] == ["slow"]
    assert sampler.decisions["dropped"] == 1
    assert sampler.pending_traces == 0


def test_buffer_bound_refuses_spans_and_counts_overflow():
    sampler = TailSampler(slowest_k=1, head_every=0, max_buffered_spans=2)
    tracer = Tracer(sampler=sampler)
    spans = [_traced_span(tracer, "big", name=f"s{i}") for i in range(4)]
    assert sampler.buffered_spans == 2
    assert sampler.overflow == 2
    assert tracer.dropped == 2
    assert [s.retained for s in spans] == [True, True, False, False]
    # The trace still resolves; only the buffered prefix survives.
    sampler.finish("big", ts=0.0, duration_s=0.5, flagged=True)
    assert [s.name for s in tracer.spans()] == ["s0", "s1"]


def test_one_sampler_serves_many_tracers():
    sampler = TailSampler(slowest_k=0, head_every=0)
    cluster = Tracer(name="cluster", sampler=sampler)
    replica = Tracer(name="replica", sampler=sampler)
    _traced_span(cluster, "t1", name="cluster.request")
    _traced_span(replica, "t1", name="serving.request")
    assert sampler.pending_traces == 1
    sampler.finish("t1", ts=0.0, duration_s=0.1, flagged=True)
    assert [s.name for s in cluster.spans()] == ["cluster.request"]
    assert [s.name for s in replica.spans()] == ["serving.request"]


def test_buffer_capacity_frees_when_a_trace_resolves():
    """The overflow bound is on *buffered* spans, not total spans seen:
    resolving a trace releases its slots for later traces."""
    sampler = TailSampler(slowest_k=1, head_every=0, max_buffered_spans=2)
    tracer = Tracer(sampler=sampler)
    _traced_span(tracer, "a", name="a0")
    _traced_span(tracer, "a", name="a1")
    assert sampler.buffered_spans == 2
    sampler.finish("a", ts=0.0, duration_s=0.5, flagged=True)
    assert sampler.buffered_spans == 0
    span = _traced_span(tracer, "b", name="b0")   # capacity is back
    assert span.retained and sampler.overflow == 0
    assert sampler.buffered_spans == 1


def test_overflow_bound_is_shared_across_traces():
    """One global bound: a span-heavy trace starves later traces' spans,
    and each refusal is counted exactly once."""
    sampler = TailSampler(slowest_k=2, head_every=0, max_buffered_spans=3)
    tracer = Tracer(sampler=sampler)
    for i in range(3):
        _traced_span(tracer, "hog", name=f"hog{i}")
    starved = _traced_span(tracer, "victim", name="victim0")
    assert not starved.retained
    assert sampler.overflow == 1
    assert sampler.buffered_spans == 3
    # Both traces still resolve; the victim just has no spans to keep.
    sampler.finish("hog", ts=0.0, duration_s=0.9, flagged=True)
    sampler.finish("victim", ts=0.0, duration_s=0.1, flagged=True)
    assert sorted(s.name for s in tracer.spans()) == ["hog0", "hog1", "hog2"]
    assert sampler.pending_traces == 0
