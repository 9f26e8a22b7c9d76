"""Latency model and generation records."""

import pytest

from repro.llm import Generation, GenerationTruth, LatencyModel
from repro.llm.interface import OVERHEAD_S


def test_latency_scales_with_parameters_and_tokens():
    model = LatencyModel()
    small = model.charge(parameter_count=10_000_000, tokens=10)
    large = model.charge(parameter_count=30_000_000_000, tokens=10)
    assert large > small * 100


def test_latency_accumulates_and_resets():
    model = LatencyModel()
    assert model.total_simulated_s == 0.0
    first = model.charge(1_000_000_000, 5)
    second = model.charge(1_000_000_000, 5)
    assert first > 0
    assert model.total_simulated_s == pytest.approx(first + second)


def test_latency_overhead_floor():
    tiny = LatencyModel().charge(parameter_count=1, tokens=1)
    assert tiny >= OVERHEAD_S


def test_30b_model_costs_seconds_per_generation():
    model = LatencyModel()
    latency = model.charge(parameter_count=30_000_000_000, tokens=10)
    # The regime that makes direct online serving infeasible (§1).
    assert latency > 1.0


def test_generation_records_are_frozen():
    generation = Generation(text="x", tokens=1, latency_s=0.1,
                            truth=GenerationTruth(quality="typical"))
    with pytest.raises(AttributeError):
        generation.text = "y"
    assert generation.truth.quality == "typical"
