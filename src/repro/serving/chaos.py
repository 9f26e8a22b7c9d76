"""Chaos simulation harness for the serving stack.

Drives Zipf traffic against a :class:`CosmoService` whose generator is
wrapped in a :class:`FlakyGenerator`, and measures *truthful*
availability: a request counts as available only when the served text is
the exact knowledge the scripted generator would produce — garbage,
truncations and empty fallbacks all count as unavailable.  Used by
``benchmarks/bench_ablation_resilience.py`` and the ``repro chaos`` CLI
command.

Everything runs on the :class:`SimClock`: days of simulated traffic,
backoff waits and breaker cooldowns complete in milliseconds of wall
time and replay bit-identically for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.llm.interface import Generation, GenerationBatch, LatencyModel
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_S, Histogram
from repro.serving.api import ServeRequest
from repro.serving.clock import SimClock
from repro.serving.deployment import CosmoService
from repro.serving.faults import FaultInjector, FaultPlan, FlakyGenerator
from repro.serving.resilience import CircuitBreaker
from repro.utils.rng import spawn_rng

__all__ = ["ScriptedGenerator", "response_ok", "ChaosConfig", "ChaosReport", "run_chaos",
           "run_outage_demo"]


_ZIPF_A = 1.3
_N_QUERIES = 200        # the chaos run's query universe
_CHUNK = 100            # requests between batch-processing cycles (chaos run)
_OUTAGE_CHUNK = 120     # ... and in the outage demo
_CHUNK_GAP_S = 300.0


class ScriptedGenerator:
    """Deterministic stand-in for COSMO-LM with honest latency accounting.

    Its output for a prompt is a pure function of the prompt, so the
    chaos harness can check served responses against ground truth.
    """

    parameter_count = 7_000_000

    def __init__(self):
        self.latency = LatencyModel()

    @staticmethod
    def knowledge_for(prompt: str) -> str:
        return f"it is used for {prompt}."

    def generate_batch(self, prompts: list[str]) -> GenerationBatch:
        outputs: list[Generation | None] = []
        for prompt in prompts:
            latency = self.latency.charge(self.parameter_count, 10)
            outputs.append(
                Generation(text=self.knowledge_for(prompt), tokens=10, latency_s=latency)
            )
        return GenerationBatch(generations=outputs)


def response_ok(text: str) -> bool:
    """Strict output validation for scripted generations."""
    return bool(text.strip()) and text.rstrip().endswith(".")


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos scenario: traffic shape, fault mix, resilience arm."""

    fault_rate: float = 0.1
    resilience: bool = True
    seed: int = 7
    requests_per_day: int = 1500
    days: int = 2


@dataclass
class ChaosReport:
    """Measured-window results of one chaos run."""

    config: ChaosConfig
    requests: int = field(default=0, init=False)
    valid: int = field(default=0, init=False)
    served_fresh: int = field(default=0, init=False)
    degraded: int = field(default=0, init=False)
    fallbacks: int = field(default=0, init=False)
    retries: int = field(default=0, init=False)
    generator_failures: int = field(default=0, init=False)
    rejected_generations: int = field(default=0, init=False)
    dead_lettered: int = field(default=0, init=False)
    redriven: int = field(default=0, init=False)
    breaker_opens: int = field(default=0, init=False)
    breaker_closes: int = field(default=0, init=False)
    pending_evictions: int = field(default=0, init=False)
    #: Streaming latency distribution of the measured window — bounded
    #: memory no matter how many simulated days the scenario covers.
    latency: Histogram = field(
        default_factory=lambda: Histogram(DEFAULT_LATENCY_BUCKETS_S), init=False
    )

    @property
    def availability(self) -> float:
        """Fraction of measured requests answered with correct knowledge."""
        return self.valid / self.requests if self.requests else 1.0

    @property
    def served_availability(self) -> float:
        """Service-level view: fresh + degraded serves over requests."""
        total = self.served_fresh + self.degraded + self.fallbacks
        return (self.served_fresh + self.degraded) / total if total else 1.0

    def percentile_ms(self, q: float) -> float:
        return self.latency.percentile(q) * 1000.0


def _traffic(config: ChaosConfig, day: int) -> list[str]:
    """One day of Zipf-weighted traffic over the query universe."""
    rng = spawn_rng(config.seed, f"chaos-traffic-day{day}")
    weights = 1.0 / np.arange(1, _N_QUERIES + 1) ** _ZIPF_A
    weights /= weights.sum()
    picks = rng.choice(_N_QUERIES, size=config.requests_per_day, p=weights)
    return [f"query {int(i):03d}" for i in picks]


def run_chaos(config: ChaosConfig) -> ChaosReport:
    """Run one chaos scenario and report measured-window metrics."""
    clock = SimClock()
    scripted = ScriptedGenerator()
    injector = FaultInjector(
        FaultPlan.mixed(config.fault_rate),
        seed=config.seed,
    )
    flaky = FlakyGenerator(scripted, injector)
    service = CosmoService(
        flaky,
        clock=clock,
        resilience=config.resilience,
        response_validator=response_ok,
        seed=config.seed,
    )

    report = ChaosReport(config=config)
    # Day 0 is warmup: it opens with one sweep of the whole query
    # universe — the paper's "pre-load the year's frequent searches" in
    # miniature — and is not measured.
    for day in range(1 + config.days):
        measuring = day > 0
        traffic = _traffic(config, day)
        if day == 0:
            traffic = [
                f"query {i:03d}" for i in range(_N_QUERIES)
            ] + traffic
        for start in range(0, len(traffic), _CHUNK):
            for query in traffic[start : start + _CHUNK]:
                result = service.serve(ServeRequest(query=query))
                if measuring:
                    report.requests += 1
                    if result.text == ScriptedGenerator.knowledge_for(query):
                        report.valid += 1
                    report.latency.observe(result.latency_s)
            service.run_batch()
            clock.advance(_CHUNK_GAP_S)
        if day == 0:
            # Snapshot cumulative counters so the measured window can be
            # reported as a diff.
            snapshot = _counters(service)
        service.daily_refresh(refresh_stale=True)

    for key, value in _counters(service).items():
        setattr(report, key, value - snapshot[key])
    return report


def _counters(service: CosmoService) -> dict[str, int]:
    metrics = service.metrics
    breaker = service.breaker
    return {
        "served_fresh": metrics.served_fresh,
        "degraded": metrics.degraded_serves,
        "fallbacks": metrics.fallbacks,
        "retries": metrics.retries,
        "generator_failures": metrics.generator_failures,
        "rejected_generations": metrics.rejected_generations,
        "dead_lettered": metrics.dead_lettered,
        "redriven": metrics.redriven,
        "breaker_opens": breaker.opens if breaker is not None else 0,
        "breaker_closes": breaker.closes if breaker is not None else 0,
        "pending_evictions": service.cache.stats.pending_evictions,
    }


def run_outage_demo(seed: int = 7):
    """Scripted sustained outage: calm → total outage → recovery.

    Returns ``(service, phases)`` where ``phases`` maps phase name →
    truthful availability during that phase.  Demonstrates the breaker
    opening under sustained faults, failing fast, then recovering
    through half-open probes once the outage clears — all on simulated
    time.
    """
    clock = SimClock()
    scripted = ScriptedGenerator()
    injector = FaultInjector(FaultPlan(), seed=seed)
    flaky = FlakyGenerator(scripted, injector)
    breaker = CircuitBreaker(
        clock, failure_threshold=0.5, window=10, min_calls=4,
        cooldown_s=120.0, half_open_probes=2,
    )
    service = CosmoService(
        flaky, clock=clock, breaker=breaker,
        response_validator=response_ok, seed=seed,
    )
    rng = spawn_rng(seed, "outage-traffic")
    queries = [f"query {i:02d}" for i in range(40)]

    # Warm the cache and feature store before measuring anything.
    for query in queries:
        service.serve(ServeRequest(query=query))
    service.run_batch()
    clock.advance(_CHUNK_GAP_S)

    calm = FaultPlan()
    outage = FaultPlan(error_rate=1.0)
    phases: dict[str, float] = {}
    for name, plan, chunks in (("calm", calm, 3), ("outage", outage, 5),
                               ("recovery", calm, 5)):
        injector.plan = plan
        # Roll the day so the daily layer expires: each phase starts with
        # real demand on the generator, not a fully warm cache.
        clock.advance_days(1)
        served = valid = 0
        for _ in range(chunks):
            for index in rng.integers(0, len(queries), size=_OUTAGE_CHUNK):
                query = queries[int(index)]
                result = service.serve(ServeRequest(query=query))
                served += 1
                valid += result.text == ScriptedGenerator.knowledge_for(query)
            service.run_batch()
            clock.advance(_CHUNK_GAP_S)
        if name == "recovery":
            service.daily_refresh(refresh_stale=False)
        phases[name] = valid / served
    return service, phases
