"""The skeleton both trainable COSMO-LM architectures share (§3.4).

:class:`~repro.llm.seq2seq.Seq2SeqLM` (production) and
:class:`~repro.llm.student.StudentLM` (the ablation) differ only in their
forward pass: how a batch's loss is computed, how decoding advances one
step and how a target is scored.  Everything around that lives here once:
finetuning through :func:`~repro.nn.train_epochs`, the greedy-decode
bookkeeping (which rows have emitted ``<eos>``, what each produced), the
:class:`~repro.llm.interface.Generation` build with its latency charge,
and label classification by conditional likelihood.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import islice

import numpy as np

from repro.llm.interface import (
    BATCH_SIZE,
    LABELS,
    MAX_NEW_TOKENS,
    Generation,
    GenerationBatch,
    LatencyModel,
)
from repro.llm.tokenizer import Tokenizer
from repro.nn import Adam, Module, no_grad, train_epochs

__all__ = ["TrainableLM"]


class TrainableLM(Module):
    """A finetunable LM around a subclass's forward pass.

    A subclass supplies ``_batch_loss(examples) -> Tensor`` (the mean
    teacher-forced loss of encoded examples), ``_next_ids(prompts, pick)``
    (a generator of each decoding step's token ids, ``pick`` choosing
    them from a (batch, vocab) score array, each step feeding its choice
    back into the next) and ``sequence_logprob(prompt, target)``.
    """

    def __init__(self, tokenizer: Tokenizer, name: str, latency: LatencyModel):
        super().__init__()
        self.tokenizer = tokenizer
        self.name = name
        self.latency = latency

    @property
    def parameter_count(self) -> int:
        return self.num_parameters()

    # -- training ------------------------------------------------------------
    def _fit(self, examples: list, epochs: int, lr: float,
             order: Callable[[], Sequence[int]]) -> list[float]:
        """Finetune on encoded examples; returns per-epoch mean loss."""
        return train_epochs(
            self, Adam(self.parameters(), lr=lr), epochs, BATCH_SIZE, order,
            lambda batch: self._batch_loss([examples[i] for i in batch]), 5.0,
        )

    # -- inference ------------------------------------------------------------
    def decode_batch(self, prompts: list[str]) -> list[Generation]:
        """Greedy decode for a batch of prompts (decoding internal)."""
        return self._decode(prompts, lambda scores: scores.argmax(axis=-1))

    def _decode(self, prompts: list[str],
                pick: Callable[[np.ndarray], np.ndarray]) -> list[Generation]:
        """Run :meth:`_next_ids` until every row emits ``<eos>`` or the
        token budget runs out; one charged generation per prompt."""
        if not prompts:
            return []
        tok = self.tokenizer
        finished = np.zeros(len(prompts), dtype=bool)
        produced: list[list[int]] = [[] for _ in prompts]
        with no_grad():
            for next_ids in islice(self._next_ids(prompts, pick), MAX_NEW_TOKENS):
                for row, token_id in enumerate(next_ids):
                    if finished[row]:
                        continue
                    if int(token_id) == tok.eos_id:
                        finished[row] = True
                    else:
                        produced[row].append(int(token_id))
                if finished.all():
                    break
        outputs = []
        for ids in produced:
            text = tok.decode(ids)
            outputs.append(Generation(
                text=f"{text}." if text else text,
                tokens=len(ids),
                latency_s=self.latency.charge(self.parameter_count, max(len(ids), 1)),
            ))
        return outputs

    def generate_batch(self, prompts: list[str]) -> GenerationBatch:
        """:class:`~repro.llm.interface.KnowledgeGenerator` entrypoint."""
        return GenerationBatch(generations=self.decode_batch(prompts))

    def classify(self, prompt: str) -> str:
        """Pick the label with highest conditional likelihood."""
        scores = {choice: self.sequence_logprob(prompt, choice) for choice in LABELS}
        return max(scores, key=scores.get)
