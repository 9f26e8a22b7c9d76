"""Structured, byte-deterministic event log for operational transitions.

Metrics answer "how much"; the event log answers "what happened, when".
Serving components publish discrete lifecycle transitions — breaker
state changes, router drain/restore, degradation entry/exit, dead-letter
traffic, adaptive-batch flushes — as :class:`Event` records into one
shared :class:`EventLog`, and the SLO evaluator cross-references the
event ids active inside an alert's window so every alert carries its own
causal context.

Contracts:

* **deterministic** — timestamps are simulated seconds from the
  emitter's own clock and ids are assigned in emission order, so the
  JSONL rendering (schema id ``repro.obs.events/v1``) is byte-identical
  for a fixed seed;
* **bounded** — the log is a ring buffer: beyond ``max_events`` the
  oldest records fall off and ``dropped`` counts them (mirroring
  :class:`~repro.obs.tracing.Tracer`), so an always-on service never
  grows it without bound;
* **ordered by id, not time** — replicas run on their own clocks, so
  event timestamps are only monotone per component; ``event_id`` orders
  global emission.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Union

from repro.obs.schema import (
    COUNT, NON_NEGATIVE, POSITIVE_INT, SCALAR, STRING, Leaf, ListOf, MapOf,
    Obj, Schema, fail, one_of,
)
from repro.obs.tracing import TRACE_ID_ATTR

__all__ = ["SCHEMA", "EVENTS_SCHEMA", "Event", "EventLog", "render_events"]

EVENTS_SCHEMA = "repro.obs.events/v1"

#: Event kinds are dotted lowercase identifiers: ``component.transition``.
_KIND_RE = re.compile(r"^[a-z0-9_-]+(\.[a-z0-9_-]+)+$")

AttrValue = Union[str, int, float, bool]


@dataclass(frozen=True)
class Event:
    """One discrete operational transition.

    ``event_id`` is unique and ordered by emission; ``ts`` is simulated
    seconds on the *emitting component's* clock; ``kind`` names the
    transition (``breaker.open``, ``router.drain``, ...); ``attrs`` are
    scalar details (replica ids, counts, triggers).
    """

    event_id: int
    ts: float
    kind: str
    component: str
    attrs: Mapping[str, AttrValue]

    def as_dict(self) -> dict:
        return {
            "event_id": self.event_id,
            "ts": self.ts,
            "kind": self.kind,
            "component": self.component,
            "attrs": dict(self.attrs),
        }


class EventLog:
    """Bounded, append-only sink for :class:`Event` records."""

    def __init__(self, max_events: int = 10_000):
        if max_events < 1:
            raise ValueError("max_events must be at least 1")
        self.max_events = max_events
        self.dropped = 0
        self.emitted = 0
        self._events: deque[Event] = deque(maxlen=max_events)
        self._next_id = 1
        #: the trace id every emitted event is stamped with: set and put
        #: back by an open :meth:`~repro.obs.tracing.Tracer.trace` root.
        self._trace_id: str | None = None

    def __len__(self) -> int:
        return len(self._events)

    def emit(self, kind: str, ts: float, component: str,
             **attrs: AttrValue) -> Event:
        """Append one event; returns the record (with its assigned id)."""
        if not _KIND_RE.match(kind):
            raise ValueError(
                f"invalid event kind {kind!r}; expected dotted lowercase "
                "like 'breaker.open'"
            )
        ts = float(ts)
        if ts < 0.0:
            raise ValueError(f"event timestamp must be non-negative, got {ts}")
        merged = dict(attrs)
        if self._trace_id is not None:
            merged.setdefault(TRACE_ID_ATTR, self._trace_id)
        event = Event(event_id=self._next_id, ts=ts, kind=kind,
                      component=component, attrs=merged)
        self._next_id += 1
        self.emitted += 1
        if len(self._events) >= self.max_events:
            self.dropped += 1
        self._events.append(event)
        return event

    def events(self) -> list[Event]:
        """Retained events in emission order."""
        return list(self._events)

    def events_between(self, start_ts: float, end_ts: float) -> list[Event]:
        """Retained events with ``start_ts <= ts <= end_ts`` (any clock).

        The SLO evaluator uses this to attach the events active inside
        an alert's window; because replica clocks can run ahead of the
        arrival clock the filter is on the timestamp value, not on id
        ranges.
        """
        return [e for e in self._events if start_ts <= e.ts <= end_ts]


def render_events(log: EventLog) -> str:
    """JSONL rendering: one header line, then one line per event.

    Compact separators and sorted keys make the output byte-identical
    for identical event streams.
    """
    header = {"schema": EVENTS_SCHEMA, "events": len(log),
              "emitted": log.emitted, "dropped": log.dropped}
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for event in log.events():
        lines.append(json.dumps(event.as_dict(), sort_keys=True,
                                separators=(",", ":")))
    return "\n".join(lines) + "\n"


def _parse(text: str) -> dict:
    """JSONL text -> ``{"header": {...}, "events": [...]}``, the document
    the table describes (and error paths name)."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        fail("header", "document is empty")
    records = []
    for index, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            fail(f"events[{index - 1}]" if index else "header", str(error))
    return {"header": records[0], "events": records[1:]}


_TABLE = Obj({
    "header": Obj({"schema": one_of(EVENTS_SCHEMA), "events": COUNT,
                   "emitted": COUNT, "dropped": COUNT}),
    "events": ListOf(Obj({
        "event_id": POSITIVE_INT, "ts": NON_NEGATIVE,
        "kind": Leaf("a dotted lowercase kind",
                     lambda v: isinstance(v, str) and bool(_KIND_RE.match(v))),
        "component": STRING, "attrs": MapOf(SCALAR),
    })),
})


def _cross_check(document: Mapping) -> None:
    header, events = document["header"], document["events"]
    if header["events"] != len(events):
        fail("header.events", f"header says {header['events']} events, "
             f"found {len(events)} lines")
    if header["emitted"] != header["events"] + header["dropped"]:
        fail("header.emitted", "emitted must equal events + dropped")
    previous_id = 0
    for index, event in enumerate(events):
        if event["event_id"] <= previous_id:
            fail(f"events[{index}].event_id", "ids must be strictly increasing")
        previous_id = event["event_id"]


SCHEMA = Schema(EVENTS_SCHEMA, "event log", _TABLE, _cross_check, parse=_parse)
