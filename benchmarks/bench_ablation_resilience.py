"""Resilience ablation: the ``chaos`` scenario swept over fault rates.

Plays ``repro.cli chaos`` — a one-replica cluster behind mixed fault
injection — over identical Zipf traffic and compares the serving stack
with resilience (retry + circuit breaker + output validation + graceful
degradation + dead-letter redrive) against the happy-path-only baseline.
Availability here is *truthful*: a request counts as available only when
the served text matches the knowledge the scripted generator would
produce — garbage and empty fallbacks both count against it.  Every
column, p50 / p99 included, covers the same measured window: the Zipf
days after the warm-up day.

The ``outage`` variant scripts a sustained total outage and verifies the
breaker's full life cycle (closed → open → half-open → closed) with all
waiting charged to the simulated clock.
"""

from collections import Counter

from conftest import publish

from repro import obs, scenarios
from repro.cli import build_parser
from repro.reporting import Table, format_percent
from repro.serving import BreakerState

FAULT_RATES = (0.0, 0.05, 0.10, 0.25)
#: The measured window: the sweep and ``day 0`` warm the cache layers.
MEASURED = ("day 1", "day 2")


def play_chaos(variant: str, fault_rate: float = 0.1, seed: int = 7) -> scenarios.Drive:
    args = build_parser().parse_args([
        "chaos", "--seed", str(seed), "--scenario", variant,
        "--fault-rate", str(fault_rate)])
    return scenarios.play_scenario(scenarios.SCENARIOS["chaos"], args)


def measured(drive: scenarios.Drive) -> Counter:
    """The tallies of the measured days, summed."""
    return sum((counts for name, counts in drive.phase_rows if name in MEASURED),
               Counter())


def measured_latency(drive: scenarios.Drive) -> obs.Histogram:
    """The cluster latency histogram of the measured days, merged."""
    window = obs.Histogram(drive.phase_latency[MEASURED[0]].bounds)
    for name in MEASURED:
        window.merge(drive.phase_latency[name])
    return window


def availability(drive: scenarios.Drive) -> float:
    counts = measured(drive)
    return counts["valid"] / counts["requests"]


def test_resilience_ablation():
    sweep = {(rate, variant): play_chaos(variant, rate)
             for rate in FAULT_RATES for variant in ("resilient", "baseline")}
    table = Table(
        "Resilience ablation — identical Zipf traffic, mixed fault injection",
        ["Fault rate", "Arm", "Availability", "Degraded", "Fallbacks",
         "Retries", "DLQ", "p50", "p99"],
    )
    for (rate, variant), drive in sweep.items():
        counts, latency = measured(drive), measured_latency(drive)
        table.add_row(
            format_percent(rate), variant, format_percent(availability(drive)),
            counts["degraded_serves"], counts["fallbacks"], counts["retries"],
            counts["dead_lettered"],
            f"{latency.percentile(50) * 1000:.1f} ms",
            f"{latency.percentile(99) * 1000:.1f} ms",
        )
    publish("ablation_resilience", table.render())

    # The paper-shaped claims: resilience holds >= 99% availability at a
    # 10% fault rate while the baseline measurably degrades, and the gap
    # widens with the fault rate.
    resilient = sweep[(0.10, "resilient")]
    baseline = sweep[(0.10, "baseline")]
    assert availability(resilient) >= 0.99
    assert availability(baseline) < availability(resilient) - 0.005
    assert measured(resilient)["retries"] > 0
    assert availability(sweep[(0.25, "baseline")]) < availability(baseline)
    # Resilience never hurts when nothing fails.
    assert (availability(sweep[(0.0, "resilient")])
            >= availability(sweep[(0.0, "baseline")]))


def test_chaos_runs_are_deterministic():
    first, second = (play_chaos("resilient", 0.10, seed=11) for _ in range(2))
    assert first.phase_rows == second.phase_rows
    # Every family, latency histograms included: count, exact sum, buckets.
    assert obs.snapshot(first.registry) == obs.snapshot(second.registry)


def test_breaker_opens_and_recovers_under_sustained_outage():
    drive = play_chaos("outage")
    (service,) = drive.cluster.services.values()
    breaker, phases = service.breaker, dict(drive.phase_rows)
    # The breaker tripped during the outage and recovered through
    # half-open probes once the faults cleared.
    assert breaker.opens >= 1
    assert breaker.closes >= 1
    assert breaker.refusals >= 1
    assert breaker.state is BreakerState.CLOSED
    states = [state for _, state in breaker.transitions]
    assert BreakerState.OPEN in states
    assert states[-1] is BreakerState.CLOSED
    assert states.index(BreakerState.OPEN) < len(states) - 1
    # Graceful degradation held availability through the outage, and the
    # dead-letter queue healed afterwards.
    for phase in ("outage", "recovery"):
        assert phases[phase]["valid"] / phases[phase]["requests"] >= 0.99
    assert service.metrics.dead_lettered > 0
    assert service.metrics.redriven == service.metrics.dead_lettered
    # All waiting was simulated: days of traffic plus breaker cooldowns
    # elapsed on the SimClock.
    assert service.clock.now() > 3 * 86_400
