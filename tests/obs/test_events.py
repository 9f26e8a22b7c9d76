"""Structured event log: determinism, bounds, schema validation."""

import pytest

from repro.obs import (
    EVENTS_SCHEMA,
    EventLog,
    render_events,
    validate,
)


def test_emit_assigns_ordered_ids_and_scalar_attrs():
    log = EventLog()
    first = log.emit("breaker.open", ts=1.5, component="svc-r0", opens=1)
    second = log.emit("router.drain", ts=2.0, component="cluster", replica="r1")
    assert (first.event_id, second.event_id) == (1, 2)
    assert first.kind == "breaker.open"
    assert first.attrs == {"opens": 1}
    assert second.as_dict() == {
        "event_id": 2, "ts": 2.0, "kind": "router.drain",
        "component": "cluster", "attrs": {"replica": "r1"},
    }


def test_emit_rejects_bad_kind_and_negative_ts():
    log = EventLog()
    for kind in ("", "nodot", "Upper.Case", "space inside.x"):
        with pytest.raises(ValueError):
            log.emit(kind, ts=0.0, component="c")
    with pytest.raises(ValueError):
        log.emit("a.b", ts=-0.1, component="c")


def test_ring_buffer_drops_oldest_and_counts():
    log = EventLog(max_events=3)
    for i in range(5):
        log.emit("tick.n", ts=float(i), component="c", n=i)
    assert len(log) == 3
    assert log.emitted == 5
    assert log.dropped == 2
    assert [e.event_id for e in log.events()] == [3, 4, 5]


def test_events_between_filters_on_timestamp_inclusive():
    log = EventLog()
    for ts in (0.5, 1.0, 2.0, 3.5):
        log.emit("tick.n", ts=ts, component="c")
    picked = log.events_between(1.0, 2.0)
    assert [e.ts for e in picked] == [1.0, 2.0]


def test_render_round_trips_through_validate():
    log = EventLog(max_events=2)
    for i in range(4):
        log.emit("tick.n", ts=float(i), component="c", n=i, label=f"e{i}")
    text = render_events(log)
    assert text.splitlines()[0].startswith('{"dropped":2')
    events = validate(EVENTS_SCHEMA, text)["events"]
    assert [e["event_id"] for e in events] == [3, 4]
    assert EVENTS_SCHEMA in text
    # Byte-determinism: rendering twice is identical.
    assert render_events(log) == text


def test_validate_rejects_structural_violations():
    log = EventLog()
    log.emit("a.b", ts=1.0, component="c")
    good = render_events(log)
    with pytest.raises(ValueError):
        validate(EVENTS_SCHEMA, "")
    with pytest.raises(ValueError):
        validate(EVENTS_SCHEMA, good.replace('"schema":"repro.obs.events/v1"',
                                     '"schema":"bogus/v9"'))
    with pytest.raises(ValueError):
        validate(EVENTS_SCHEMA, good.replace('"events":1', '"events":2'))
    with pytest.raises(ValueError):  # non-increasing ids
        lines = good.splitlines()
        header = (lines[0].replace('"events":1', '"events":2')
                  .replace('"emitted":1', '"emitted":2'))
        validate(EVENTS_SCHEMA, "\n".join([header, lines[1], lines[1]]))
    with pytest.raises(ValueError, match=r"events\[0\].event_id"):  # true is no id
        validate(EVENTS_SCHEMA, good.replace('"event_id":1', '"event_id":true'))
