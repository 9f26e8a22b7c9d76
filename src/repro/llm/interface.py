"""Language-model protocol, generation records, and the latency model.

The latency model is what makes the paper's inference-efficiency claims
(§1, §5: OPT-30b is "not feasible for online serving", COSMO-LM is) a
measurable quantity here: every generation is charged simulated seconds
proportional to parameter count × tokens produced, without wall-clock
sleeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Protocol, runtime_checkable

__all__ = [
    "GenerationTruth",
    "Generation",
    "GenerationBatch",
    "KnowledgeGenerator",
    "LatencyModel",
]


@dataclass(frozen=True)
class GenerationTruth:
    """Hidden oracle record attached to every teacher generation.

    ``quality`` ∈ {"typical", "plausible", "one_sided", "generic",
    "paraphrase", "implausible", "incomplete"}.  Only the annotation
    simulator (the stand-in for human annotators) and evaluation code may
    read it; the extraction pipeline itself never does.
    """

    quality: str
    intent_id: str | None = None


@dataclass(frozen=True, slots=True, init=False)
class Generation:
    """One model output with accounting metadata.

    Every generated answer makes one, so it is slotted and its
    ``__init__`` writes each field through its slot's setter, bound once
    at import, rather than the frozen dataclass's ``object.__setattr__``
    per field (``init=False``; 273 against 484 ns a record).
    """

    text: str
    tokens: int
    latency_s: float
    truth: GenerationTruth | None = None

    def __init__(self, text: str, tokens: int, latency_s: float,
                 truth: GenerationTruth | None = None) -> None:
        _set_text(self, text)
        _set_tokens(self, tokens)
        _set_latency_s(self, latency_s)
        _set_truth(self, truth)


_set_text, _set_tokens, _set_latency_s, _set_truth = (
    Generation.__dict__[f.name].__set__ for f in fields(Generation))


@dataclass
class GenerationBatch:
    """Per-prompt result of one batched generation call.

    The unified result type of the ``generate_batch`` protocol method:
    raw models return all-successful batches (``attempts == 1``, every
    slot filled), while the resilience layer fills in retry accounting
    and leaves ``None`` in the slots whose prompts exhausted their
    budget.  ``breaker_refused`` marks a batch the circuit breaker
    turned away before any attempt ran.
    """

    generations: list[Generation | None]
    attempts: int = 1
    errors: int = field(default=0, init=False)
    retries: int = field(default=0, init=False)
    rejected: int = field(default=0, init=False)
    breaker_refused: bool = field(default=False, init=False)
    wait_s: float = field(default=0.0, init=False)

    def __len__(self) -> int:
        return len(self.generations)

    @property
    def failed_indices(self) -> list[int]:
        return [i for i, g in enumerate(self.generations) if g is None]

    @property
    def ok(self) -> bool:
        return not self.failed_indices

    def require(self) -> list[Generation]:
        """The generations, asserting every prompt succeeded."""
        failed = self.failed_indices
        if failed:
            raise RuntimeError(
                f"{len(failed)}/{len(self.generations)} prompts failed "
                f"after {self.attempts} attempts"
            )
        return [g for g in self.generations if g is not None]


@runtime_checkable
class KnowledgeGenerator(Protocol):
    """The serving-facing generation surface.

    ``generate_batch(prompts) -> GenerationBatch`` is the *sole*
    entrypoint the serving stack (``CosmoService``,
    ``ResilientGenerator``, ``FlakyGenerator``, ``CosmoCluster``) calls;
    the per-model ``generate`` / ``decode_batch`` methods are decoding
    internals.  Implementations must also expose a
    ``latency`` :class:`LatencyModel` (simulated-seconds accounting) —
    not part of the runtime check because data members cannot be
    runtime-checked on every supported Python version, but required by
    every caller.
    """

    def generate_batch(self, prompts: list[str]) -> "GenerationBatch":
        """Answer a batch of prompts, one slot per prompt."""
        ...  # pragma: no cover


#: Calibrates the linear latency model: OPT-30b at ~0.45 s/token and a
#: 7M-parameter student at ~0.1 ms/token, the orders-of-magnitude gap that
#: drives the paper's serving design.
SECONDS_PER_TOKEN_PER_BILLION_PARAMS = 0.015
OVERHEAD_S = 0.002

# Shared by both student architectures.
BATCH_SIZE = 32
MAX_PROMPT_LEN = 44        #: tokens of a training prompt kept (the GRU LM: of the pair)
MAX_NEW_TOKENS = 14        #: decoding budget, and the cap on a training target
LABELS = ("yes", "no")     #: what ``classify`` chooses between


@dataclass
class LatencyModel:
    """Simulated per-token inference latency."""

    total_simulated_s: float = field(default=0.0, init=False)

    def charge(self, parameter_count: int, tokens: int) -> float:
        """Account for one generation; returns its simulated latency."""
        billions = parameter_count / 1e9
        latency = OVERHEAD_S + tokens * billions * SECONDS_PER_TOKEN_PER_BILLION_PARAMS
        self.total_simulated_s += latency
        return latency

    def charge_seconds(self, seconds: float) -> float:
        """Account for a fixed simulated delay (timeouts, stalls, slowdowns)."""
        self.total_simulated_s += seconds
        return seconds
