"""Span tracing on an injectable clock, with one trace joined across tracers.

A :class:`Tracer` produces nested :class:`Span` context managers and
never reads a clock of its own: ``clock`` is any zero-argument callable
returning seconds.  The serving layer passes ``SimClock.now`` so spans
are timed on simulated time (keeping chaos/bench determinism and the
``wall-clock`` source rule); the pipeline sets it to its simulated
LLM-seconds accumulator.  The only wall-clock timing in the repo lives
in :mod:`repro.obs.timebase`.

Distributed tracing has one origin and one join.  A trace starts where
a dispatch does: :meth:`Tracer.trace` opens the dispatch's root span
(the cluster's ``cluster.request``), a span like any other that
tags the tracer's spans with its trace id, times them on the given
clock and stamps the hop's event log with the id while it is open, and
puts the tracer's previous state back when it closes.  A request that
hops to another tracer (cluster → replica → batcher) joins the trace
with :meth:`Tracer.attach` of the open upstream span: while attached,
every span the hop opens is tagged with that span's trace id, and its
stack-root spans record the span's ``"tracer_name:span_id"`` ref as
their remote parent, so :class:`~repro.obs.trace_query.TraceAnalyzer`
can reassemble one tree across tracers.  A hop that only forwards the
request (the replica's ``serve_batch``, under the cluster's root span)
opens nothing: its stage spans are its stack roots.  Trace ids are
deterministic (:func:`make_trace_id` hashes request sequence + key).

Retention: untraced spans fall under the ``MAX_SPANS`` head
truncation; trace-tagged spans are instead buffered into an optional
tail sampler (:class:`~repro.obs.sampling.TailSampler`) that decides
keep/drop per *trace* at completion.  Neither drops a parent and keeps
its child: the sampler keeps or drops a trace whole, and ``MAX_SPANS``
only refuses spans later than every retained one.  :func:`chrome_trace`
still exports a parent it does not hold as -1.

Finished traces export as Chrome trace-event JSON (load into
``chrome://tracing`` / Perfetto) via :func:`chrome_trace` — cross-tracer
parent links become flow events (``ph: "s"/"f"``).
"""

from __future__ import annotations

from types import TracebackType
from zlib import crc32
from typing import TYPE_CHECKING, Callable, Mapping, Sequence, Union

from repro.obs.sampling import MAX_BUFFERED_SPANS
from repro.obs.schema import (
    INT, NON_NEGATIVE, POSITIVE_INT, SCALAR, STRING, ListOf, Obj, Schema, Spec,
    Tagged, fail, one_of,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.events import EventLog
    from repro.obs.sampling import TailSampler

__all__ = [
    "CHROME_TRACE_SCHEMA",
    "NULL_SPAN",
    "SCHEMA",
    "TRACE_ID_ATTR",
    "Span",
    "Tracer",
    "chrome_trace",
    "make_trace_id",
]

#: Registry id of the Chrome trace-event format, the one artifact whose
#: documents carry no ``schema`` field (they are told by ``traceEvents``).
CHROME_TRACE_SCHEMA = "chrome-trace-event"

AttrValue = Union[str, int, float, bool]

#: The one sanctioned attribute key under which a span/event carries its
#: trace id.  Serving code never writes this key by hand — trace ids
#: flow through :meth:`Tracer.attach` and :meth:`Tracer.trace`, and
#: the ``trace-id-contract`` source rule rejects ad-hoc variants.
TRACE_ID_ATTR = "trace_id"

#: Untraced (and committed) spans a tracer retains; later ones still time
#: and nest but count in ``dropped``.
MAX_SPANS = 10_000


def _zero_clock() -> float:
    return 0.0


def make_trace_id(sequence: int, key: str) -> str:
    """Deterministic 16-hex-char trace id for one request.

    The low half is a CRC-32 of the query key (readable correlation —
    the same query always shares a suffix); the high half is the
    request's global sequence number, which alone guarantees uniqueness.
    Stable across runs, no wall-clock or RNG state, and cheap enough to
    mint per request (one id per traced request; ``bench_trace_overhead``
    pins the budget — a crypto hash here costs ~4% of the request path).
    The hex of the id's 8 big-endian bytes is ``"%016x"`` of it, built
    without the format's zero-padding pass.
    """
    return ((sequence & 0xFFFFFFFF) << 32
            | crc32(key.encode("utf-8"))).to_bytes(8, "big").hex()


class Span:
    """One timed operation: name, parentage, attributes, error tag.

    ``remote_parent`` is the ref of the upstream span a stack-root span
    opened under while its tracer was attached to it (:meth:`Tracer.attach`).

    A span is its own context manager: :meth:`Tracer.span` opens it (the
    open happens at the call, not at ``__enter__``) and the ``with``
    block's exit closes it.  A trace root (:meth:`Tracer.trace`) also
    holds in ``_restore`` the ``(trace id, parent ref, clock)`` its tracer
    had before the root swapped them, and the event log it stamps (or
    None) with that log's previous trace id; its exit puts them back.
    Hand-rolled ``__slots__`` and no ``__init__`` (``Tracer._open`` is the
    one constructor) rather than a dataclass/contextlib pairing — span
    open/close sits on the per-request hot path, and
    ``bench_trace_overhead`` pins the traced/bare ratio.
    """

    __slots__ = ("name", "span_id", "parent_id", "start_s", "depth",
                 "end_s", "attributes", "status", "error_type", "trace_id",
                 "remote_parent", "_tracer", "_restore")

    name: str
    span_id: int
    parent_id: int | None
    start_s: float
    depth: int
    end_s: float | None
    attributes: dict[str, AttrValue]
    status: str
    error_type: str | None
    trace_id: str | None
    remote_parent: str | None
    _tracer: "Tracer"
    _restore: ("tuple[str | None, str | None, Callable[[], float], "
               "EventLog | None, str | None] | None")

    def __repr__(self) -> str:
        return (f"Span(name={self.name!r}, span_id={self.span_id}, "
                f"parent_id={self.parent_id}, start_s={self.start_s}, "
                f"end_s={self.end_s}, trace_id={self.trace_id!r}, "
                f"status={self.status!r})")

    @property
    def duration_s(self) -> float:
        return (self.end_s if self.end_s is not None else self.start_s) - self.start_s

    def set_attribute(self, key: str, value: AttrValue) -> None:
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.status = "error"
            self.error_type = exc_type.__name__
        tracer = self._tracer
        self.end_s = tracer.clock()
        tracer._stack.pop()
        restore = self._restore
        if restore is not None:
            tracer._trace_id, tracer._parent_ref, tracer.clock, log, stamp = restore
            if log is not None:
                log._trace_id = stamp
        return False


class _NullSpan:
    """What untraced work enters in place of a span, an attachment or a
    trace scope.

    Tracing off is not a second code path: the one path runs with no
    trace id, and enters this shared, stateless no-op wherever traced
    work would enter the real thing; attaching it joins nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, key: str, value: AttrValue) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Builds nested spans; bounded memory via ``MAX_SPANS`` or a sampler.

    Untraced spans beyond ``MAX_SPANS`` still time correctly and
    participate in nesting, but are not retained (``dropped`` counts
    them) — tracing a long-running service never grows without bound.
    Trace-tagged spans (opened under a :meth:`trace` root or while
    attached to a traced upstream span) go through ``sampler`` when one
    is set: the whole trace is kept or dropped at completion (tail-based
    sampling) instead of being head-truncated mid-request.

    ``name`` identifies this tracer in cross-tracer span refs and must
    be unique among tracers merged into one trace/export.
    """

    def __init__(self, clock: Callable[[], float] | None = None,
                 name: str = "tracer",
                 sampler: "TailSampler | None" = None):
        self.clock: Callable[[], float] = clock if clock is not None else _zero_clock
        self.name = name
        self.sampler = sampler
        self.dropped = 0
        #: retained spans: an untraced span as it opens, a trace-tagged
        #: one as its trace's verdict commits it — under a sampler that
        #: is verdict order, not start order.
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1
        #: the attached trace: its id and the remote parent ref its stack
        #: roots record (both None while detached).
        self._trace_id: str | None = None
        self._parent_ref: str | None = None
        #: ``(trace id, parent ref)`` each open :meth:`attach` put aside.
        self._detached: list[tuple[str | None, str | None]] = []

    # -- joining a trace --------------------------------------------------
    def attach(self, upstream: "Span | _NullSpan") -> "Tracer | _NullSpan":
        """Join the trace of ``upstream``, an open span of another tracer;
        the returned scope's exit puts the previous trace back.

        Spans opened from now on are tagged with ``upstream``'s trace id,
        and stack-root spans record ``upstream``'s ref as their remote
        parent, linking this tracer's subtree under it.  An untraced
        span or :data:`NULL_SPAN` joins nothing: the scope is a no-op.
        """
        if not isinstance(upstream, Span) or upstream.trace_id is None:
            return NULL_SPAN
        self._detached.append((self._trace_id, self._parent_ref))
        self._trace_id = upstream.trace_id
        self._parent_ref = upstream._tracer.ref(upstream)
        return self

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None, tb: TracebackType | None) -> bool:
        """The exit of the innermost :meth:`attach` scope."""
        self._trace_id, self._parent_ref = self._detached.pop()
        return False

    def trace(self, trace_id: str | None, name: str,
              clock: Callable[[], float], attributes: dict[str, AttrValue],
              log: "EventLog | None") -> "Span | _NullSpan":
        """Start trace ``trace_id``: time on ``clock`` and open span
        ``name`` as the trace's root, now — the returned span's exit
        closes it and puts the previous trace and clock back.  No trace
        id, no-op.

        While the root is open, every event emitted into ``log`` (when
        there is one) is stamped with ``trace_id`` (under
        :data:`TRACE_ID_ATTR`), so mid-request emitters (breaker
        transitions, dead-letters, batch flushes) correlate with the
        spans without plumbing of their own; the root's exit puts the
        log's previous stamp back.  A dispatch with no log enters no
        scope for one.

        ``attributes`` becomes the root's attribute dict itself, not a
        copy — a caller writes the root's attributes once, into one dict,
        the ones it learns while the root is open included.
        """
        if trace_id is None:
            return NULL_SPAN
        restore = (self._trace_id, self._parent_ref, self.clock, log,
                   None if log is None else log._trace_id)
        if log is not None:
            log._trace_id = trace_id
        self._trace_id = trace_id
        self._parent_ref = None
        self.clock = clock
        root = self._push(name, attributes)
        root._restore = restore
        return root

    def ref(self, span: Span) -> str:
        """The cross-tracer reference naming ``span`` in this tracer."""
        return f"{self.name}:{span.span_id}"

    # -- span construction ----------------------------------------------
    def _open(self, name: str, start_s: float,
              attributes: dict[str, AttrValue],
              parent: Span | None) -> Span:
        # Direct __new__ + attribute sets: this runs for every span of
        # every traced request, and parameter binding is a measurable
        # slice of the traced/bare ratio pinned by bench_trace_overhead.
        record = Span.__new__(Span)
        record.name = name
        record.span_id = self._next_id
        record.start_s = start_s
        record.end_s = None
        record.attributes = attributes
        record.status = "ok"
        record.error_type = None
        record._tracer = self
        record._restore = None
        if parent is not None:
            record.parent_id = parent.span_id
            record.depth = parent.depth + 1
            record.remote_parent = None
        else:
            record.parent_id = None
            record.depth = 0
            record.remote_parent = self._parent_ref
        self._next_id += 1
        record.trace_id = trace_id = self._trace_id
        sampler = self.sampler
        if trace_id is not None and sampler is not None:
            # Tail sampling: tentatively retained, buffered until the
            # trace finishes and the sampler decides keep/drop.  Written
            # into the sampler's buffer here — a call per span is a
            # measurable slice of the bench_trace_overhead budget.
            if sampler._buffered_spans < MAX_BUFFERED_SPANS:
                buffers = sampler._buffers
                entries = buffers.get(trace_id)
                if entries is None:
                    buffers[trace_id] = [record]
                else:
                    entries.append(record)
                sampler._buffered_spans += 1
            else:
                sampler.overflow += 1
                self.dropped += 1
        elif len(self._spans) < MAX_SPANS:
            self._spans.append(record)
        else:
            self.dropped += 1
        return record

    def _push(self, name: str, attributes: dict[str, AttrValue]) -> Span:
        """Open ``name`` now, under the current span, with ``attributes``
        as its dict (not copied), and make it the current span."""
        stack = self._stack
        record = self._open(name, self.clock(), attributes,
                            stack[-1] if stack else None)
        stack.append(record)
        return record

    def _commit(self, record: Span) -> None:
        """Sampler callback: the record's trace was kept."""
        if len(self._spans) < MAX_SPANS:
            self._spans.append(record)
        else:
            self.dropped += 1

    def span(self, name: str, **attributes: AttrValue) -> Span:
        """Open a child span of the current span (or a root span).

        The span opens *now* — use the return value as a context manager
        immediately (``with tracer.span(...) as s:``); the block's exit
        closes it.
        """
        return self._push(name, attributes)

    def traced_span(self, name: str,
                    **attributes: AttrValue) -> "Span | _NullSpan":
        """:meth:`span` while a trace is open or attached, else the
        shared no-op — for stages that only exist on traced requests,
        so untraced callers pay nothing."""
        if self._trace_id is None:
            return NULL_SPAN
        return self._push(name, attributes)

    def record(self, name: str, start_s: float, end_s: float,
               **attributes: AttrValue) -> Span:
        """Append a completed span with explicit timestamps under the
        current span (a root with no span open).

        For retroactive spans whose window is known only after the fact
        (e.g. queueing delay computed at dispatch).
        """
        if end_s < start_s:
            raise ValueError(f"span {name!r} ends ({end_s}) before it "
                             f"starts ({start_s})")
        record = self._open(name, float(start_s), attributes,
                            self._stack[-1] if self._stack else None)
        record.end_s = float(end_s)
        return record

    def spans(self) -> list[Span]:
        return list(self._spans)


def chrome_trace(tracers: Sequence[tuple[str, Tracer]]) -> dict:
    """Merge tracers into one Chrome trace-event JSON payload.

    Each ``(process_name, tracer)`` pair becomes one pid so timelines
    with different clocks (pipeline simulated seconds vs serving
    SimClock) render side by side without sharing an axis.  Complete
    ("X") events carry span attributes, ids, trace ids and error status
    in ``args``; a ``parent_id`` this export does not hold is -1, so it
    always resolves.  Cross-tracer parent refs
    export as flow-event pairs (``ph: "s"`` at the parent, ``ph: "f"``
    at the child) linking the request across pids.  Output is
    deterministic for deterministic span times.
    """
    refs: dict[str, tuple[int, Span]] = {}
    retained_ids: list[set[int]] = []
    for pid, (process, tracer) in enumerate(tracers, start=1):
        ids = {span.span_id for span in tracer.spans() if span.end_s is not None}
        retained_ids.append(ids)
        for span in tracer.spans():
            if span.end_s is not None:
                refs[f"{tracer.name}:{span.span_id}"] = (pid, span)
    events: list[dict] = []
    flows: list[dict] = []
    flow_id = 0
    for pid, (process, tracer) in enumerate(tracers, start=1):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 1,
            "args": {"name": process},
        })
        ids = retained_ids[pid - 1]
        for span in tracer.spans():
            if span.end_s is None:
                continue
            parent = span.parent_id
            if parent is None or parent not in ids:
                parent = -1
            args: dict[str, AttrValue] = {
                "span_id": span.span_id,
                "parent_id": parent,
                "status": span.status,
            }
            if span.error_type is not None:
                args["error_type"] = span.error_type
            if span.trace_id is not None:
                args[TRACE_ID_ATTR] = span.trace_id
            args.update(span.attributes)
            events.append({
                "name": span.name,
                "cat": process,
                "ph": "X",
                "ts": span.start_s * 1e6,  # microseconds
                "dur": (span.end_s - span.start_s) * 1e6,
                "pid": pid,
                "tid": 1,
                "args": args,
            })
            if span.remote_parent is not None:
                linked = refs.get(span.remote_parent)
                if linked is not None:
                    parent_pid, parent_span = linked
                    flow_id += 1
                    flows.append({
                        "name": "trace", "cat": "trace", "ph": "s",
                        "id": flow_id, "pid": parent_pid, "tid": 1,
                        "ts": parent_span.start_s * 1e6,
                    })
                    flows.append({
                        "name": "trace", "cat": "trace", "ph": "f",
                        "bp": "e", "id": flow_id, "pid": pid, "tid": 1,
                        "ts": span.start_s * 1e6,
                    })
    return {"displayTimeUnit": "ms", "traceEvents": events + flows}


def _event(phase: str, **members: Spec) -> Obj:
    common: dict[str, Spec] = {"name": STRING, "ph": one_of(phase),
                               "pid": INT, "tid": INT}
    return Obj({**common, **members})


_FLOW = {"cat": STRING, "id": INT, "ts": NON_NEGATIVE}
_TABLE = Obj({
    "displayTimeUnit": one_of("ms"),
    "traceEvents": ListOf(Tagged("ph", {
        "M": _event("M", args=Obj({"name": STRING})),
        "X": _event("X", cat=STRING, ts=NON_NEGATIVE, dur=NON_NEGATIVE, args=Obj(
            {"span_id": POSITIVE_INT, "parent_id": INT,
             "status": one_of("ok", "error")},
            optional={"error_type": STRING, TRACE_ID_ATTR: STRING},
            extra=SCALAR)),
        "s": _event("s", **_FLOW),
        "f": _event("f", bp=one_of("e"), **_FLOW),
    })),
})


def _cross_check(payload: Mapping) -> None:
    """Referential integrity: within each pid, ``args.span_id`` values are
    unique and every ``args.parent_id`` is -1 or names a span event in
    the same pid; flow start/finish events pair up by id."""
    span_ids: dict[int, set[int]] = {}
    flow_phases: dict[int, set[str]] = {}
    spans = []
    for index, event in enumerate(payload["traceEvents"]):
        if event["ph"] == "X":
            spans.append((index, event))
            pid_ids = span_ids.setdefault(event["pid"], set())
            span_id = event["args"]["span_id"]
            if span_id in pid_ids:
                fail(f"traceEvents[{index}].args.span_id",
                     f"duplicate span_id {span_id} in pid {event['pid']}")
            pid_ids.add(span_id)
        elif event["ph"] in ("s", "f"):
            flow_phases.setdefault(event["id"], set()).add(event["ph"])
    for index, event in spans:
        parent = event["args"]["parent_id"]
        if parent != -1 and parent not in span_ids[event["pid"]]:
            fail(f"traceEvents[{index}].args.parent_id",
                 f"{parent} does not resolve to any span_id in pid {event['pid']}")
    for flow, phases in flow_phases.items():
        if phases != {"s", "f"}:
            fail("traceEvents", f"flow id {flow} must have exactly a start ('s') "
                 f"and a finish ('f') event, got phases {sorted(phases)}")


SCHEMA = Schema(CHROME_TRACE_SCHEMA, "chrome trace", _TABLE, _cross_check)
