"""Fault injection: determinism, failure modes, latency accounting."""

import pytest

from repro.llm.interface import OVERHEAD_S, Generation, GenerationBatch, LatencyModel
from repro.serving import (
    FaultInjector,
    FaultPlan,
    FlakyGenerator,
    GeneratorError,
    GeneratorFault,
    GeneratorTimeout,
)
from repro.serving.faults import SLOW_FACTOR, TIMEOUT_S


class Scripted:
    parameter_count = 1_000_000

    def __init__(self):
        self.latency = LatencyModel()
        self.calls = 0

    def generate_batch(self, prompts):
        self.calls += 1
        return GenerationBatch(generations=[
            Generation(text=f"it is used for {p}.", tokens=8,
                       latency_s=self.latency.charge(self.parameter_count, 8))
            for p in prompts
        ])


def _drive(generator, prompts, n):
    """Run ``n`` calls, recording outcome signatures."""
    trace = []
    for _ in range(n):
        try:
            outs = generator.generate_batch(prompts).require()
            trace.append(tuple(g.text for g in outs))
        except GeneratorFault as exc:
            trace.append(type(exc).__name__)
    return trace


# -- plan validation -------------------------------------------------------
def test_fault_plan_validates_rates():
    with pytest.raises(ValueError):
        FaultPlan(error_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(error_rate=0.6, timeout_rate=0.6)


def test_mixed_plan_splits_headline_rate():
    plan = FaultPlan.mixed(0.2)
    assert plan.error_rate + plan.timeout_rate + plan.slow_rate + plan.garbage_rate \
        == pytest.approx(0.2)


# -- determinism -----------------------------------------------------------
def test_same_seed_replays_identical_fault_schedule():
    prompts = ["a", "b", "c"]
    plan = FaultPlan.mixed(0.6)
    traces = []
    for _ in range(2):
        flaky = FlakyGenerator(Scripted(), FaultInjector(plan, seed=13))
        traces.append(_drive(flaky, prompts, 40))
    assert traces[0] == traces[1]
    # And a different seed produces a different schedule.
    other = FlakyGenerator(Scripted(), FaultInjector(plan, seed=14))
    assert _drive(other, prompts, 40) != traces[0]


# -- failure modes ---------------------------------------------------------
def test_error_mode_raises_and_charges_overhead():
    flaky = FlakyGenerator(Scripted(), FaultInjector(FaultPlan(error_rate=1.0)))
    with pytest.raises(GeneratorError):
        flaky.generate_batch(["q"]).require()
    assert flaky.failed_calls == 1
    assert flaky.latency.total_simulated_s == pytest.approx(OVERHEAD_S)


def test_timeout_mode_charges_full_timeout():
    plan = FaultPlan(timeout_rate=1.0)
    flaky = FlakyGenerator(Scripted(), FaultInjector(plan))
    with pytest.raises(GeneratorTimeout):
        flaky.generate_batch(["q"]).require()
    assert flaky.latency.total_simulated_s == pytest.approx(TIMEOUT_S)


def test_slow_mode_inflates_latency_but_succeeds():
    inner = Scripted()
    plan = FaultPlan(slow_rate=1.0)
    flaky = FlakyGenerator(inner, FaultInjector(plan))
    outs = flaky.generate_batch(["q"]).require()
    assert outs[0].text == "it is used for q."
    baseline = Scripted()
    baseline.generate_batch(["q"]).require()
    assert flaky.latency.total_simulated_s == pytest.approx(
        SLOW_FACTOR * baseline.latency.total_simulated_s)


def test_garbage_mode_corrupts_generations():
    plan = FaultPlan(garbage_rate=1.0)
    flaky = FlakyGenerator(Scripted(), FaultInjector(plan, seed=3))
    texts = [g.text for g in flaky.generate_batch([f"q{i}" for i in range(20)]).require()]
    # Every generation is corrupted: emptied or truncated without the
    # terminating period.
    assert all(not t.strip() or not t.rstrip().endswith(".") for t in texts)
    assert any(not t.strip() for t in texts)
    assert any(t.strip() and not t.endswith(".") for t in texts)


def test_no_faults_passes_through():
    inner = Scripted()
    flaky = FlakyGenerator(inner, FaultInjector(FaultPlan()))
    outs = flaky.generate_batch(["a", "b"]).require()
    assert [g.text for g in outs] == ["it is used for a.", "it is used for b."]
    assert flaky.injector.injected == {}


def test_injected_counter_tracks_modes():
    plan = FaultPlan(error_rate=1.0)
    flaky = FlakyGenerator(Scripted(), FaultInjector(plan))
    for _ in range(3):
        with pytest.raises(GeneratorError):
            flaky.generate_batch(["q"]).require()
    assert flaky.injector.injected["error"] == 3


def test_attribute_passthrough():
    inner = Scripted()
    flaky = FlakyGenerator(inner, FaultInjector(FaultPlan()))
    assert flaky.parameter_count == inner.parameter_count
    assert flaky.calls == 0  # FlakyGenerator's own counter shadows inner's
    flaky.generate_batch(["q"]).require()
    assert flaky.calls == 1 and inner.calls == 1
