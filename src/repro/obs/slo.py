"""Declarative SLOs with multi-window burn-rate alerting.

An SLO here is a *good/total ratio objective* over counters (or
histogram bucket counts) in a shared
:class:`~repro.obs.metrics.MetricsRegistry`:

* availability — (fresh + degraded serves) / requests;
* latency — requests under a threshold / requests, read from a
  histogram's cumulative bucket at ``le``;
* cache hit rate — hits / lookups.

Evaluation follows the multi-window burn-rate pattern: the *burn rate*
over a trailing window is ``bad_fraction / (1 - target)`` (how many
times faster than sustainable the error budget is burning), and a
:class:`BurnRateRule` fires only when **both** its long and short
windows exceed the threshold — the long window keeps alerts from firing
on blips, the short window makes them resolve promptly once the burn
stops.  Alerts step through a ``pending → firing → resolved`` state
machine (``for_s`` of sustained breach before firing,
``resolve_after_s`` of sustained recovery before resolving; a pending
alert that recovers early is ``cancelled``) and cross-reference the
:class:`~repro.obs.events.EventLog` ids active inside their window, so
an availability page carries the breaker trips and drains that explain
it.

Everything is evaluated on simulated time against deterministic
counters, so the alert report (schema id ``repro.obs.alerts/v1``)
replays byte-identically for a fixed seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from repro.obs.events import EventLog
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.schema import (
    BOOL, COUNT, NAME, NUMBER, POSITIVE_INT, STRING, ListOf, Obj, Schema,
    fail, nullable, one_of,
)

__all__ = [
    "SCHEMA",
    "ALERTS_SCHEMA",
    "MetricSum",
    "BurnRateRule",
    "SloSpec",
    "Alert",
    "SloEvaluator",
    "alert_report",
]

ALERTS_SCHEMA = "repro.obs.alerts/v1"

LabelFilter = tuple[tuple[str, Union[str, tuple[str, ...]]], ...]


@dataclass(frozen=True)
class MetricSum:
    """A summed reading over registry children: the SLI numerator or
    denominator.

    ``names`` are the metric families to sum (absent families read as
    0.0 — an SLO can be declared before its service emits).  ``where``
    filters children by label value: each entry is ``(label, value)`` or
    ``(label, (value, ...))`` and all entries must match.  For histogram
    families the reading is the cumulative bucket count at the largest
    bound ``<= le`` (requests at least that fast), or the total sample
    count when ``le`` is None.
    """

    names: tuple[str, ...]
    where: LabelFilter = ()
    le: float | None = None

    def __post_init__(self):
        if not self.names:
            raise ValueError("MetricSum needs at least one metric name")

    def read(self, registry: MetricsRegistry) -> float:
        total = 0.0
        for name in self.names:
            if name not in registry:
                continue
            for labels, child in registry.get(name).samples():
                if not self._matches(labels):
                    continue
                if isinstance(child, Histogram):
                    total += self._histogram_reading(child)
                else:
                    total += child.value
        return total

    def _matches(self, labels: Mapping[str, str]) -> bool:
        for label, accepted in self.where:
            values = (accepted,) if isinstance(accepted, str) else accepted
            if labels.get(label) not in values:
                return False
        return True

    def _histogram_reading(self, child: Histogram) -> float:
        if self.le is None:
            return float(child.count)
        reading = 0
        for bound, cumulative in child.bucket_counts():
            if bound <= self.le:
                reading = cumulative
            else:
                break
        return float(reading)


@dataclass(frozen=True)
class BurnRateRule:
    """Fire when burn rate exceeds ``max_burn_rate`` over *both* windows."""

    long_s: float
    short_s: float
    max_burn_rate: float

    def __post_init__(self):
        if self.short_s <= 0 or self.long_s <= self.short_s:
            raise ValueError("windows must satisfy long_s > short_s > 0")
        if self.max_burn_rate <= 0:
            raise ValueError("max_burn_rate must be positive")

    def as_dict(self) -> dict:
        return {"long_s": self.long_s, "short_s": self.short_s,
                "max_burn_rate": self.max_burn_rate}


@dataclass(frozen=True)
class SloSpec:
    """One objective: a target ratio plus its burn-rate alert policy.

    ``for_s`` is how long the breach must sustain before a pending
    alert fires; ``resolve_after_s`` how long recovery must sustain
    before a firing alert resolves; ``event_lookback_s`` widens the
    event-correlation window before the alert went pending (breaker
    trips usually precede the SLI damage they cause).
    """

    name: str
    description: str
    target: float
    good: MetricSum
    total: MetricSum
    windows: tuple[BurnRateRule, ...]
    for_s: float = 0.0
    resolve_after_s: float = 0.0
    event_lookback_s: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise ValueError("SLO name must be non-empty")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")
        if not self.windows:
            raise ValueError("SLO needs at least one burn-rate rule")
        if self.for_s < 0 or self.resolve_after_s < 0 or self.event_lookback_s < 0:
            raise ValueError("durations must be non-negative")


@dataclass
class Alert:
    """One alert instance walking pending → firing → resolved.

    A pending alert whose condition clears before ``for_s`` elapses is
    ``cancelled`` instead (it never paged).  ``event_ids`` are the
    structured-log events whose timestamps fall inside
    ``[pending_ts - event_lookback_s, resolved_ts]``.
    """

    alert_id: str
    objective: str
    state: str
    pending_ts: float
    peak_burn_rate: float
    firing_ts: float | None = field(default=None, init=False)
    resolved_ts: float | None = field(default=None, init=False)
    event_ids: list[int] = field(default_factory=list, init=False)

    def as_dict(self) -> dict:
        return {
            "alert_id": self.alert_id,
            "objective": self.objective,
            "state": self.state,
            "pending_ts": self.pending_ts,
            "firing_ts": self.firing_ts,
            "resolved_ts": self.resolved_ts,
            "peak_burn_rate": self.peak_burn_rate,
            "event_ids": list(self.event_ids),
        }


class _SpecState:
    """Evaluator-internal bookkeeping for one objective."""

    __slots__ = ("spec", "history", "longest_s", "active", "done", "instances",
                 "clear_since")

    def __init__(self, spec: SloSpec):
        self.spec = spec
        #: ``(ts, good, total)`` cumulative readings, oldest first: the
        #: newest one at or before ``now - longest_s``, and all after it.
        self.history: deque[tuple[float, float, float]] = deque()
        self.longest_s = max(rule.long_s for rule in spec.windows)
        self.active: Alert | None = None
        self.done: list[Alert] = []
        self.instances = 0
        self.clear_since: float | None = None

    def alerts(self) -> list[Alert]:
        return self.done + ([self.active] if self.active is not None else [])


class SloEvaluator:
    """Steps every objective's burn-rate rules and alert state machine.

    Call :meth:`evaluate` with the current simulated time whenever fresh
    telemetry is worth judging — the monitor command does so once per
    scrape.  Readings are cumulative, so evaluation frequency changes
    granularity, never correctness.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        specs: Sequence[SloSpec],
        event_log: EventLog | None = None,
    ):
        if not specs:
            raise ValueError("evaluator needs at least one SLO spec")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self.registry = registry
        self.event_log = event_log
        self.evaluations = 0
        self.last_eval_ts: float | None = None
        self._states = {spec.name: _SpecState(spec) for spec in specs}

    @property
    def specs(self) -> list[SloSpec]:
        return [state.spec for state in self._states.values()]

    # ------------------------------------------------------------------
    def evaluate(self, now: float) -> list[Alert]:
        """Read every SLI, step every alert; returns alerts that changed
        state at this evaluation."""
        now = float(now)
        if self.last_eval_ts is not None and now < self.last_eval_ts:
            raise ValueError(f"evaluation time went backwards: {now}")
        changed: list[Alert] = []
        for state in self._states.values():
            spec = state.spec
            good = spec.good.read(self.registry)
            total = spec.total.read(self.registry)
            history = state.history
            history.append((now, good, total))
            while len(history) > 1 and history[1][0] <= now - state.longest_s:
                history.popleft()
            breached, strength = self._condition(state, now)
            alert = self._step(state, now, breached, strength)
            if alert is not None:
                changed.append(alert)
        self.evaluations += 1
        self.last_eval_ts = now
        return changed

    def _condition(self, state: _SpecState, now: float) -> tuple[bool, float]:
        """Whether any rule fires, and the strongest effective burn."""
        breached = False
        strength = 0.0
        for rule in state.spec.windows:
            long_burn = self._burn_rate(state, now, rule.long_s)
            short_burn = self._burn_rate(state, now, rule.short_s)
            effective = min(long_burn, short_burn)
            strength = max(strength, effective)
            if long_burn >= rule.max_burn_rate and short_burn >= rule.max_burn_rate:
                breached = True
        return breached, strength

    def _burn_rate(self, state: _SpecState, now: float, window_s: float) -> float:
        """Error-budget burn rate over the trailing ``window_s``.

        The history keeps a reading at or before the start of the longest
        window once one exists, so a window that reaches past the oldest
        reading reaches past simulation start, where counters are exactly
        (0, 0).  A window with no traffic burns nothing.
        """
        base_good = 0.0
        base_total = 0.0
        cutoff = now - window_s
        for ts, good, total in reversed(state.history):
            if ts <= cutoff:
                base_good, base_total = good, total
                break
        _, current_good, current_total = state.history[-1]
        total_delta = current_total - base_total
        if total_delta <= 0:
            return 0.0
        bad_fraction = 1.0 - (current_good - base_good) / total_delta
        bad_fraction = min(1.0, max(0.0, bad_fraction))
        return bad_fraction / (1.0 - state.spec.target)

    def _step(self, state: _SpecState, now: float, breached: bool,
              strength: float) -> Alert | None:
        """Advance one objective's alert state machine; returns the alert
        when it changed state."""
        spec = state.spec
        alert = state.active
        if alert is None:
            if not breached:
                return None
            state.instances += 1
            alert = Alert(
                alert_id=f"{spec.name}#{state.instances}",
                objective=spec.name,
                state="pending",
                pending_ts=now,
                peak_burn_rate=strength,
            )
            state.active = alert
            state.clear_since = None
            if spec.for_s <= 0:
                alert.state = "firing"
                alert.firing_ts = now
            return alert
        alert.peak_burn_rate = max(alert.peak_burn_rate, strength)
        if alert.state == "pending":
            if not breached:
                alert.state = "cancelled"
                alert.resolved_ts = now
                self._finish(state, alert, now)
                return alert
            if now - alert.pending_ts >= spec.for_s:
                alert.state = "firing"
                alert.firing_ts = now
                return alert
            return None
        # firing
        if breached:
            state.clear_since = None
            return None
        if state.clear_since is None:
            state.clear_since = now
        if now - state.clear_since >= spec.resolve_after_s:
            alert.state = "resolved"
            alert.resolved_ts = now
            self._finish(state, alert, now)
            return alert
        return None

    def _finish(self, state: _SpecState, alert: Alert, now: float) -> None:
        alert.event_ids = self._events_for(state.spec, alert, now)
        state.done.append(alert)
        state.active = None
        state.clear_since = None

    def _events_for(self, spec: SloSpec, alert: Alert, until: float) -> list[int]:
        if self.event_log is None:
            return []
        start = alert.pending_ts - spec.event_lookback_s
        return [event.event_id
                for event in self.event_log.events_between(start, until)]

    # ------------------------------------------------------------------
    def alerts(self) -> list[Alert]:
        """Every alert instance (finished and active), grouped by
        objective in spec order."""
        out: list[Alert] = []
        for state in self._states.values():
            out.extend(state.alerts())
        return out

    @property
    def any_fired(self) -> bool:
        """True when any alert ever reached the firing state."""
        return any(alert.firing_ts is not None for alert in self.alerts())

    def sli(self, name: str) -> float:
        """The objective's overall good/total ratio so far (1.0 with no
        traffic — an idle service has violated nothing)."""
        state = self._states[name]
        if not state.history:
            return 1.0
        _, good, total = state.history[-1]
        return good / total if total > 0 else 1.0


def alert_report(evaluator: SloEvaluator) -> dict:
    """Deterministic JSON-able report of every objective and alert.

    Active alerts get their event correlation computed against the last
    evaluation time (their window is still open).
    """
    objectives = []
    for state in sorted(evaluator._states.values(), key=lambda s: s.spec.name):
        spec = state.spec
        alerts = []
        for alert in state.alerts():
            payload = alert.as_dict()
            if alert.resolved_ts is None and evaluator.last_eval_ts is not None:
                payload["event_ids"] = evaluator._events_for(
                    spec, alert, evaluator.last_eval_ts)
            alerts.append(payload)
        sli = evaluator.sli(spec.name)
        objectives.append({
            "name": spec.name,
            "description": spec.description,
            "target": spec.target,
            "sli": sli,
            "error_budget_used": min(1.0, max(0.0, 1.0 - sli)) / (1.0 - spec.target),
            "windows": [rule.as_dict() for rule in spec.windows],
            "alerts": alerts,
        })
    return {
        "schema": ALERTS_SCHEMA,
        "evaluations": evaluator.evaluations,
        "fired": evaluator.any_fired,
        "objectives": objectives,
    }


#: Alert state -> whether it carries (``firing_ts``, ``resolved_ts``).
_TIMESTAMPS = {"pending": (False, False), "firing": (True, False),
               "resolved": (True, True), "cancelled": (False, True)}

_ALERT = Obj({
    "alert_id": NAME, "objective": NAME, "state": one_of(*_TIMESTAMPS),
    "pending_ts": NUMBER, "firing_ts": nullable(NUMBER),
    "resolved_ts": nullable(NUMBER), "peak_burn_rate": NUMBER,
    "event_ids": ListOf(POSITIVE_INT),
})
_TABLE = Obj({
    "schema": one_of(ALERTS_SCHEMA),
    "evaluations": COUNT,
    "fired": BOOL,
    "objectives": ListOf(Obj({
        "name": NAME, "description": STRING, "target": NUMBER, "sli": NUMBER,
        "error_budget_used": NUMBER,
        "windows": ListOf(Obj({"long_s": NUMBER, "short_s": NUMBER,
                               "max_burn_rate": NUMBER}), min_len=1),
        "alerts": ListOf(_ALERT),
    })),
})


def _cross_check(payload: Mapping) -> None:
    fired_seen = False
    for o_index, objective in enumerate(payload["objectives"]):
        for a_index, alert in enumerate(objective["alerts"]):
            where = f"objectives[{o_index}].alerts[{a_index}]"
            state = alert["state"]
            for key, carried in zip(("firing_ts", "resolved_ts"),
                                    _TIMESTAMPS[state]):
                if (alert[key] is not None) != carried:
                    fail(f"{where}.{key}", f"{state} alert "
                         f"{'needs' if carried else 'cannot carry'} {key}")
            fired_seen = fired_seen or alert["firing_ts"] is not None
    if payload["fired"] != fired_seen:
        fail("fired", "must reflect whether any alert carries a firing_ts")


SCHEMA = Schema(ALERTS_SCHEMA, "alert report", _TABLE, _cross_check)
