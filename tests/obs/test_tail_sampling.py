"""Tail-based sampling: keep/drop decided when the trace finishes."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.sampling import MAX_BUFFERED_SPANS, TailSampler
from repro.obs.tracing import MAX_SPANS, Tracer


def _traced_span(tracer, trace_id, name="work", duration_s=0.0, at_s=0.0):
    """Open and close one trace root (buffered by the sampler)."""
    clock = {"t": at_s}
    with tracer.trace(trace_id, name, lambda: clock["t"], {}, None) as span:
        clock["t"] = at_s + duration_s
    return span


@pytest.mark.parametrize("kwargs", [
    {"slowest_k": -1},
    {"window_s": 0.0},
    {"head_every": -2},
    {"window_s": -1.0},
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
    assert tracer.spans() == [span]
    assert sampler.decisions["flagged"] == 1
    assert sampler.buffered_spans == 0


def test_a_kept_root_opened_inside_an_attach_scope_has_no_remote_parent():
    # A trace's root starts a trace of its own: the joined trace's remote
    # parent stays with the spans of the attach scope, not with the root
    # or its children, and the committed spans say so.
    sampler = TailSampler(slowest_k=0, head_every=0)
    upstream, tracer = Tracer(name="upstream"), Tracer(sampler=sampler)
    with upstream.trace("outer", "root", upstream.clock, {}, None) as outer:
        with tracer.attach(outer):
            with tracer.trace("inner", "root", tracer.clock, {}, None) as root:
                with tracer.span("child") as child:
                    pass
            with tracer.span("joined") as joined:
                pass
    assert sampler.finish("inner", ts=0.0, duration_s=0.1, flagged=True) == "flagged"
    assert sampler.finish("outer", ts=0.0, duration_s=0.1, flagged=True) == "flagged"
    assert tracer.spans() == [root, child, joined]
    assert (root.trace_id, root.remote_parent) == ("inner", None)
    assert (child.trace_id, child.remote_parent) == ("inner", None)
    assert (joined.trace_id, joined.remote_parent) == ("outer", "upstream:1")


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
    sampler = TailSampler(slowest_k=1, head_every=0)
    tracer = Tracer(sampler=sampler)
    spans = [_traced_span(tracer, "big", name=f"s{i}")
             for i in range(MAX_BUFFERED_SPANS + 2)]
    assert sampler.buffered_spans == MAX_BUFFERED_SPANS
    assert sampler.overflow == 2
    assert tracer.dropped == 2
    # The trace still resolves; only the buffered prefix survives, as far
    # as the tracer's own MAX_SPANS cap retains it.
    sampler.finish("big", ts=0.0, duration_s=0.5, flagged=True)
    assert tracer.spans() == spans[:MAX_SPANS]
    assert tracer.dropped == 2 + MAX_BUFFERED_SPANS - MAX_SPANS


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
    sampler = TailSampler(slowest_k=0, head_every=0)
    tracer = Tracer(sampler=sampler)
    for i in range(MAX_BUFFERED_SPANS):
        _traced_span(tracer, "a", name=f"a{i}")
    assert sampler.buffered_spans == MAX_BUFFERED_SPANS
    sampler.finish("a", ts=0.0, duration_s=0.5)   # ordinary: dropped
    assert sampler.buffered_spans == 0
    span = _traced_span(tracer, "b", name="b0")   # capacity is back
    assert sampler.overflow == 0
    assert sampler.buffered_spans == 1
    sampler.finish("b", ts=0.0, duration_s=0.5, flagged=True)
    assert span in tracer.spans()


def test_overflow_bound_is_shared_across_traces():
    """One global bound: a span-heavy trace starves later traces' spans,
    and each refusal is counted exactly once."""
    sampler = TailSampler(slowest_k=2, head_every=0)
    hogs, victims = Tracer(sampler=sampler), Tracer(sampler=sampler)
    for i in range(MAX_BUFFERED_SPANS):
        _traced_span(hogs, "hog", name=f"hog{i}")
    starved = _traced_span(victims, "victim", name="victim0")
    assert sampler.overflow == 1
    assert sampler.buffered_spans == MAX_BUFFERED_SPANS
    # Both traces still resolve; the victim just has no spans to keep.
    sampler.finish("hog", ts=0.0, duration_s=0.9, flagged=True)
    sampler.finish("victim", ts=0.0, duration_s=0.1, flagged=True)
    assert len(hogs.spans()) == MAX_SPANS
    assert victims.spans() == [] and victims.dropped == 1
    assert starved.trace_id == "victim"
    assert sampler.pending_traces == 0


def test_a_busy_window_does_not_starve_a_flagged_trace():
    """Regression: deferred traces used to wait for their window to close
    before being dropped, so ~17 000 three-span ordinary traces filled the
    default 50 000-span buffer inside one 60 s window and every later
    span — a flagged trace's included — was refused.  A trace that cannot
    be among the window's k slowest is now dropped as it finishes."""
    sampler = TailSampler()
    tracer = Tracer(sampler=sampler)
    most_pending = 0
    for index in range(20_000):
        trace_id = f"fast{index}"
        with tracer.trace(trace_id, "a", tracer.clock, {}, None), \
                tracer.span("b"), tracer.span("c"):
            pass
        sampler.finish(trace_id, ts=index * 1e-3, duration_s=0.001)
        most_pending = max(most_pending, sampler.pending_traces)
    with tracer.trace("bad", "error", tracer.clock, {}, None) as bad:
        pass
    assert sampler.finish("bad", ts=20.0, duration_s=0.5, flagged=True) == "flagged"
    assert bad in tracer.spans() and tracer.spans()[-1] is bad
    assert sampler.overflow == 0
    # At most k deferred traces were ever buffered.
    assert most_pending == sampler.slowest_k
    assert sampler.buffered_spans == 3 * sampler.slowest_k


class _SortAtClose:
    """Reference: deferred traces wait for their window's close, one sort."""

    def __init__(self, slowest_k, window_s, head_every):
        self.k, self.window_s, self.head_every = slowest_k, window_s, head_every
        self.buffers, self.candidates, self.start, self.finished = {}, [], None, 0
        self.kept, self.dropped = ([], []), [0, 0]
        self.decisions = {"flagged": 0, "slow": 0, "head": 0, "dropped": 0}

    def finish(self, trace_id, ts, duration_s, flagged):
        self.start = ts if self.start is None else self.start
        while ts >= self.start + self.window_s:
            self.close()
            self.start += self.window_s
        if flagged:
            return self.resolve(trace_id, "flagged")
        self.finished += 1
        if self.head_every and self.finished % self.head_every == 1 % self.head_every:
            return self.resolve(trace_id, "head")
        self.candidates.append((duration_s, self.finished, trace_id))

    def close(self):
        ranked = sorted(self.candidates, key=lambda c: (-c[0], c[1]))
        for rank, (_, _, trace_id) in enumerate(ranked):
            self.resolve(trace_id, "slow" if rank < self.k else "dropped")
        self.candidates = []

    def resolve(self, trace_id, reason):
        for tracer, name in self.buffers.pop(trace_id, []):
            if reason == "dropped":
                self.dropped[tracer] += 1
            else:
                self.kept[tracer].append(name)
        self.decisions[reason] += 1


_OPS = st.lists(st.tuples(
    st.sampled_from(["open"] * 3 + ["finish"] * 3 + ["flush"]),
    st.integers(0, 1),                               # tracer of an open
    st.integers(0, 3),                               # which live trace (else a new one)
    st.sampled_from([0.0, 0.1, 0.1, 0.2, 0.3]),      # duration: ties are common
    st.sampled_from([False, False, False, True]),    # flagged
    st.sampled_from([0.0, 0.0, 0.0, 0.1, 0.3, 1.5]),  # finish-time advance
), min_size=8, max_size=60)
_OPEN, _FINISH = ("open", 0, 9, 0.0, False, 0.0), ("finish", 0, 0)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS, slowest_k=st.integers(0, 4), head_every=st.integers(0, 3))
@example(ops=[_OPEN, (*_FINISH, 0.1, False, 0.0), _OPEN, (*_FINISH, 0.3, False, 0.0)],
         slowest_k=1, head_every=0)   # a full heap: the slower newcomer stays
def test_heap_sampler_matches_sort_at_close_reference(ops, slowest_k, head_every):
    sampler = TailSampler(slowest_k=slowest_k, window_s=1.0, head_every=head_every)
    tracers = (Tracer(name="a", sampler=sampler), Tracer(name="b", sampler=sampler))
    model = _SortAtClose(slowest_k, 1.0, head_every)
    live, minted, now = [], 0, 0.0

    def agree(with_drops):
        assert [[s.name for s in t.spans()] for t in tracers] == list(model.kept)
        if with_drops:
            assert sampler.decisions == model.decisions
            assert [t.dropped for t in tracers] == model.dropped

    for op, which, pick, duration, flagged, advance in ops:
        if op == "open":
            if pick >= len(live):
                live.append(f"t{minted}")
                minted += 1
            trace_id = live[min(pick, len(live) - 1)]
            name = f"{trace_id}.{len(model.buffers.get(trace_id, ()))}"
            with tracers[which].trace(trace_id, name, tracers[which].clock,
                                      {}, None):
                pass
            model.buffers.setdefault(trace_id, []).append((which, name))
        elif op == "finish" and live:
            trace_id = live.pop(pick % len(live))
            now += advance   # a 1.0 s window holds a few finishes, or rolls
            sampler.finish(trace_id, ts=now, duration_s=duration, flagged=flagged)
            model.finish(trace_id, now, duration, flagged)
            # Only the window's k slowest finished traces are still held.
            assert sampler.pending_traces - len(live) <= slowest_k
        elif op == "flush":
            sampler.flush()
            model.close()
            model.start = None
        agree(with_drops=op == "flush")
    sampler.flush()
    model.close()
    agree(with_drops=True)


def test_a_three_day_gap_closes_one_window_and_decides_like_the_reference():
    """Rolling over a long idle gap closes the open window once; the empty
    windows after it cost no close each, and the window the finishing trace
    lands in starts at the float repeated ``+= window_s`` gives."""
    sampler = TailSampler(slowest_k=2, window_s=1.0, head_every=0)
    tracers = (Tracer(name="a", sampler=sampler), Tracer(name="b", sampler=sampler))
    model = _SortAtClose(2, 1.0, 0)
    closes = []
    close_window = sampler._close_window
    sampler._close_window = lambda: closes.append(1) or close_window()
    gap = 3 * 86_400.0
    finishes = [("t0", 0.1, 0.3), ("t1", 0.2, 0.1), ("t2", 0.7, 0.2),
                ("late", gap + 0.45, 0.05), ("later", gap + 0.9, 0.4)]
    for which, (trace_id, ts, duration) in enumerate(finishes):
        tracer = tracers[which % 2]
        with tracer.trace(trace_id, trace_id, tracer.clock, {}, None):
            pass
        model.buffers.setdefault(trace_id, []).append((which % 2, trace_id))
        sampler.finish(trace_id, ts=ts, duration_s=duration)
        model.finish(trace_id, ts, duration, False)
    assert len(closes) == 1  # the 259 200 empty windows cost nothing each
    assert sampler._window_start == model.start  # the same float, exactly
    assert sampler.decisions == model.decisions
    assert [[s.name for s in t.spans()] for t in tracers] == list(model.kept)
    sampler.flush()
    model.close()
    assert sampler.decisions == model.decisions
    assert [[s.name for s in t.spans()] for t in tracers] == list(model.kept)
    assert [t.dropped for t in tracers] == model.dropped


# -- differential: tracer + sampler against a sampler-less tracer ----------

class _Boom(Exception):
    pass


_FIELDS = ("name", "span_id", "parent_id", "start_s", "depth", "end_s",
           "attributes", "status", "error_type", "trace_id", "remote_parent")
_LEAF = st.one_of(
    st.tuples(st.just("tick"), st.sampled_from([0.0, 0.1, 0.25])),
    st.tuples(st.just("record"), st.sampled_from([0.0, 0.5]),
              st.sampled_from([0.0, 0.2])),
)
_NODE = st.recursive(_LEAF, lambda kids: st.one_of(
    # span: its body, whether the body raises, whether it sets an attribute
    st.tuples(st.just("span"), st.lists(kids, max_size=3), st.booleans(),
              st.booleans()),
    # hop: attach the other tracer under the current span, run the body there
    st.tuples(st.just("hop"), st.lists(kids, max_size=3)),
), max_leaves=8)
_TRACE = st.tuples(
    st.sampled_from(["attach", "trace"]),      # how the trace is entered
    st.integers(0, 1),                         # the tracer it starts in
    st.booleans(),                             # the entry's body raises
    st.lists(_NODE, max_size=4),
)
_VERDICT = st.tuples(
    st.sampled_from([False, False, False, True]),       # flagged
    st.sampled_from([0.1, 0.1, 0.2, 0.3]),              # duration: ties
    st.sampled_from([0.0, 0.0, 0.4, 1.2]),              # finish-time advance
)


class _World:
    """Two tracers on one manual clock (sharing ``sampler``, if any) that
    run a program, keeping every span the program was handed by name and,
    for each, the trace id, remote parent and status the program implies.
    An ``attach`` entry joins a root opened in a third, sampler-less
    ``upstream`` tracer."""

    def __init__(self, sampler):
        self.now = 0.0
        self.tracers = tuple(
            Tracer(clock=lambda: self.now, name=name, sampler=sampler)
            for name in ("a", "b"))
        self.upstream = Tracer(name="upstream")
        self.handed: dict[str, object] = {}
        self.expected: dict[str, tuple] = {}
        self.opened: list[tuple[int, str]] = []   # (tracer, name), open order
        self.stacks: tuple[list, list] = ([], [])
        self.parent_ref: list = [None, None]

    def _name(self, which: int, trace_id: str) -> str:
        name = f"{trace_id}.{len(self.opened)}"
        self.opened.append((which, name))
        return name

    def _expect(self, which, name, span, trace_id, status):
        root = not self.stacks[which]
        remote = self.parent_ref[which] if root else None
        self.expected[name] = (trace_id, remote, status)
        self.handed[name] = span

    def run_trace(self, trace_id, entry, which, raises, body):
        tracer, upstream = self.tracers[which], self.upstream
        try:
            if entry == "attach":
                with upstream.trace(trace_id, "upstream", upstream.clock, {},
                                    None) as root:
                    self.parent_ref[which] = upstream.ref(root)
                    with tracer.attach(root):
                        self.run(which, trace_id, body)
                        if raises:
                            raise _Boom
            else:
                name = self._name(which, trace_id)
                # The root times its subtree on a clock of its own.
                with tracer.trace(trace_id, name, lambda: self.now + 1000.0,
                                  {"entry": 1}, None) as root:
                    self._expect(which, name, root, trace_id,
                                 "error" if raises else "ok")
                    self.stacks[which].append(root)
                    try:
                        self.run(which, trace_id, body)
                        if raises:
                            raise _Boom
                    finally:
                        self.stacks[which].pop()
        except _Boom:
            pass
        self.parent_ref[which] = None

    def run(self, which, trace_id, body):
        tracer = self.tracers[which]
        for op in body:
            if op[0] == "tick":
                self.now += op[1]
            elif op[0] == "record":
                name = self._name(which, trace_id)
                start = self.now + op[1]
                span = tracer.record(name, start, start + op[2], kind="record")
                self._expect(which, name, span, trace_id, "ok")
            elif op[0] == "span":
                _, kids, raises, tag = op
                name = self._name(which, trace_id)
                try:
                    with tracer.span(name) as span:
                        self._expect(which, name, span, trace_id,
                                     "error" if raises else "ok")
                        self.stacks[which].append(span)
                        try:
                            if tag:
                                span.set_attribute("tag", len(kids))
                            self.run(which, trace_id, kids)
                            if raises:
                                raise _Boom
                        finally:
                            self.stacks[which].pop()
                except _Boom:
                    pass
            elif op[0] == "hop" and self.stacks[which]:
                other, upstream = 1 - which, self.stacks[which][-1]
                saved = self.parent_ref[other]
                self.parent_ref[other] = f"{tracer.name}:{upstream.span_id}"
                with self.tracers[other].attach(upstream):
                    self.run(other, trace_id, op[1])
                self.parent_ref[other] = saved


@settings(max_examples=100, deadline=None)
@given(program=st.lists(_TRACE, min_size=1, max_size=6),
       verdicts=st.lists(_VERDICT, min_size=6, max_size=6),
       slowest_k=st.integers(0, 2), head_every=st.integers(0, 3))
def test_kept_traces_commit_what_a_sampler_less_tracer_records(
        program, verdicts, slowest_k, head_every):
    sampler = TailSampler(slowest_k=slowest_k, window_s=1.0, head_every=head_every)
    sampled, plain = _World(sampler), _World(None)
    model = _SortAtClose(slowest_k, 1.0, head_every)
    for index, (entry, which, raises, body) in enumerate(program):
        for world in (sampled, plain):
            world.run_trace(f"t{index}", entry, which, raises, body)
    for which, name in sampled.opened:
        model.buffers.setdefault(name.partition(".")[0], []).append((which, name))
    now = 0.0
    for index, (flagged, duration, advance) in enumerate(verdicts[:len(program)]):
        now += advance
        sampler.finish(f"t{index}", ts=now, duration_s=duration, flagged=flagged)
        model.finish(f"t{index}", now, duration, flagged)
    sampler.flush()
    model.close()

    assert sampler.decisions == model.decisions
    # Commit order is verdict order, and a kept span is the very object
    # its `with` block (or `record`) was handed.
    assert [[s.name for s in t.spans()] for t in sampled.tracers] == list(model.kept)
    assert all(span is sampled.handed[span.name]
               for tracer in sampled.tracers for span in tracer.spans())
    # Field for field what the sampler-less tracer recorded...
    reference = {span.name: span for tracer in plain.tracers for span in tracer.spans()}
    assert len(reference) == len(plain.opened)
    for tracer in sampled.tracers:
        for span in tracer.spans():
            twin = reference[span.name]
            assert [getattr(span, f) for f in _FIELDS] == [getattr(twin, f) for f in _FIELDS]
    # ...which is what the program implies for ids, remote parents, status.
    for name, (trace_id, remote, status) in plain.expected.items():
        span = reference[name]
        assert (span.trace_id, span.remote_parent, span.status) == (trace_id, remote, status)
        assert span.error_type == (None if status == "ok" else "_Boom")
    # A dropped trace's spans are counted once, by the tracer that opened them.
    assert [t.dropped for t in sampled.tracers] == model.dropped
    assert sampler.buffered_spans == 0 and sampler.pending_traces == 0
