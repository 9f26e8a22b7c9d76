"""Ground truth for chaos drives: a scripted generator and its validator.

:class:`ScriptedGenerator`'s output is a pure function of the prompt, so a
drive can measure *truthful* availability — a request counts as available
only when the served text is exactly what the generator would produce;
garbage, truncations and empty fallbacks all count as unavailable.  The
``chaos`` scenario (:mod:`repro.scenarios`) plays Zipf traffic against a
fault-injected one-replica cluster built on it.
"""

from __future__ import annotations

from repro.llm.interface import Generation, GenerationBatch, LatencyModel

__all__ = ["ScriptedGenerator", "response_ok"]


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
