"""Deterministic fault injection for the serving stack.

The paper's availability story (§3.5: a cache-fronted COSMO-LM answering
heavy traffic) is only testable if the generator can *fail*.  This module
makes failure a first-class, reproducible input: a seeded
:class:`FaultInjector` draws a configured mix of failure modes and
:class:`FlakyGenerator` applies them to any ``generate_batch``
implementation.  All injected delays are charged to the generator's
:class:`~repro.llm.interface.LatencyModel` (simulated seconds — never a
wall-clock sleep), so chaos benches stay deterministic and fast.

Failure modes:

* **error** — the whole call raises :class:`GeneratorError` (model crash,
  OOM, connection reset);
* **timeout** — the call burns ``TIMEOUT_S`` of simulated time, then
  raises :class:`GeneratorTimeout`; partial work is discarded;
* **slow** — the call succeeds but costs ``SLOW_FACTOR``× its normal
  latency (stragglers, contention);
* **garbage** — individual generations are corrupted (emptied or
  truncated mid-predicate), modelling decode failures that *look* like
  success — the mode only output validation can catch.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.llm.interface import OVERHEAD_S, GenerationBatch
from repro.utils.rng import spawn_rng

__all__ = [
    "GeneratorFault",
    "GeneratorError",
    "GeneratorTimeout",
    "FaultPlan",
    "FaultInjector",
    "FlakyGenerator",
]

TIMEOUT_S = 5.0         #: simulated seconds an injected timeout burns
SLOW_FACTOR = 10.0      #: what an injected slow call costs, times normal


class GeneratorFault(RuntimeError):
    """Base class for generator failures the resilience layer handles."""


class GeneratorError(GeneratorFault):
    """The generator raised outright (crash, OOM, connection reset)."""


class GeneratorTimeout(GeneratorFault):
    """The generator exceeded its deadline; partial work is discarded."""


@dataclass(frozen=True)
class FaultPlan:
    """Probabilities and magnitudes for each injected failure mode.

    ``error_rate``, ``timeout_rate`` and ``slow_rate`` are per *call*
    (mutually exclusive, drawn in that order); ``garbage_rate`` is per
    *generation* within a successful call.
    """

    error_rate: float = 0.0
    timeout_rate: float = 0.0
    slow_rate: float = 0.0
    garbage_rate: float = 0.0

    def __post_init__(self):
        for name in ("error_rate", "timeout_rate", "slow_rate", "garbage_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.error_rate + self.timeout_rate + self.slow_rate > 1.0:
            raise ValueError("per-call fault rates must sum to at most 1")

    @classmethod
    def mixed(cls, fault_rate: float) -> "FaultPlan":
        """A representative mix at a single headline rate: 35% errors,
        15% timeouts, 15% slow calls, 35% garbage generations."""
        return cls(
            error_rate=0.35 * fault_rate,
            timeout_rate=0.15 * fault_rate,
            slow_rate=0.15 * fault_rate,
            garbage_rate=0.35 * fault_rate,
        )


class FaultInjector:
    """Seeded source of fault decisions.

    The same ``(plan, seed)`` pair replays an identical fault schedule as
    long as the caller makes the same sequence of draws — the property
    the determinism tests and the chaos bench rely on.  ``plan`` may be
    swapped mid-run (e.g. to script a sustained outage followed by
    recovery) without disturbing the underlying random stream.
    """

    def __init__(self, plan: FaultPlan | None = None, seed: int = 0):
        self.plan = plan or FaultPlan()
        self._rng = spawn_rng(seed, "fault-injector")
        self.injected: Counter = Counter()

    def call_fault(self) -> str | None:
        """Draw the whole-call fault for one generate call."""
        roll = float(self._rng.random())
        for mode, rate in (
            ("error", self.plan.error_rate),
            ("timeout", self.plan.timeout_rate),
            ("slow", self.plan.slow_rate),
        ):
            if roll < rate:
                self.injected[mode] += 1
                return mode
            roll -= rate
        return None

    def corrupt(self, text: str) -> str | None:
        """Per-generation garbage draw: corrupted text, or ``None``."""
        if float(self._rng.random()) >= self.plan.garbage_rate:
            return None
        self.injected["garbage"] += 1
        if float(self._rng.random()) < 0.5:
            return ""
        # Truncate mid-predicate and drop the terminating period.
        return text[: max(1, len(text) // 3)].rstrip(".")


class FlakyGenerator:
    """Wrap any batched generator with injected faults.

    Implements :class:`~repro.llm.interface.KnowledgeGenerator`
    (``generate_batch``, ``latency``, ``parameter_count``, attribute
    passthrough) so it drops into
    :class:`~repro.serving.deployment.CosmoService` or
    :class:`~repro.serving.resilience.ResilientGenerator` unchanged.
    """

    def __init__(self, generator, injector: FaultInjector):
        self.inner = generator
        self.injector = injector
        self.latency = generator.latency
        self.parameter_count = getattr(generator, "parameter_count", 0)
        self.calls = 0
        self.failed_calls = 0

    def __getattr__(self, name):
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)

    def generate_batch(self, prompts) -> GenerationBatch:
        self.calls += 1
        fault = self.injector.call_fault()
        if fault == "error":
            self.failed_calls += 1
            self.latency.charge_seconds(OVERHEAD_S)
            raise GeneratorError(f"injected generator error (call {self.calls})")
        if fault == "timeout":
            self.failed_calls += 1
            self.latency.charge_seconds(TIMEOUT_S)
            raise GeneratorTimeout(
                f"injected timeout after {TIMEOUT_S}s "
                f"(call {self.calls})"
            )
        before = self.latency.total_simulated_s
        generations = self.inner.generate_batch(prompts).generations
        if fault == "slow":
            elapsed = self.latency.total_simulated_s - before
            self.latency.charge_seconds(elapsed * (SLOW_FACTOR - 1.0))
        corrupted = []
        for generation in generations:
            garbage = self.injector.corrupt(generation.text)
            if garbage is None:
                corrupted.append(generation)
            else:
                corrupted.append(generation._replace(text=garbage))
        return GenerationBatch(generations=corrupted)
