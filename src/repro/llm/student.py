"""The trainable student language model (COSMO-LM base, §3.4 stand-in).

A word-level GRU LM trained with teacher forcing on instruction data
(prompt ``<sep>`` target).  Instruction finetuning is *real* here: before
finetuning the model emits noise, after finetuning on typical-only
outputs its typical-generation rate rises well above the raw teacher's —
the paper's central claim about COSMO-LM — while inference cost drops by
orders of magnitude (tracked by the shared latency model).
"""

from __future__ import annotations

import numpy as np

from repro.llm.base import TrainableLM
from repro.llm.interface import MAX_PROMPT_LEN, LatencyModel
from repro.llm.tokenizer import Tokenizer
from repro.nn import GRU, Embedding, Linear, Tensor, cross_entropy, no_grad
from repro.nn.functional import log_softmax
from repro.utils.rng import spawn_rng

__all__ = ["StudentLM"]


class StudentLM(TrainableLM):
    """GRU language model over ``BOS prompt SEP target EOS``."""

    def __init__(
        self,
        tokenizer: Tokenizer,
        embed_dim: int,
        hidden_dim: int,
        name: str,
        seed: int,
        latency: LatencyModel,
    ):
        super().__init__(tokenizer, name, latency)
        rng = spawn_rng(seed, f"student:{name}")
        self.embedding = Embedding(len(tokenizer), embed_dim, rng, padding_idx=tokenizer.pad_id)
        self.gru = GRU(embed_dim, hidden_dim, rng)
        self.output = Linear(hidden_dim, len(tokenizer), rng)
        self._train_rng = spawn_rng(seed, f"student-train:{name}")

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _encode_pair(self, prompt: str, target: str, max_len: int) -> tuple[list[int], int]:
        """Token ids ``BOS prompt SEP target EOS``; returns (ids, sep_pos)."""
        tok = self.tokenizer
        prompt_ids = tok.encode(prompt)
        target_ids = tok.encode(target)
        ids = [tok.bos_id, *prompt_ids, tok.sep_id, *target_ids, tok.eos_id]
        sep_pos = 1 + len(prompt_ids)
        if len(ids) > max_len:
            # Trim the prompt head first; targets are short and must survive.
            overflow = len(ids) - max_len
            keep_from = min(overflow, sep_pos - 1)
            ids = [tok.bos_id] + ids[1 + keep_from :]
            sep_pos -= keep_from
        return ids, sep_pos

    def fit(
        self,
        pairs: list[tuple[str, str]],
        epochs: int,
        lr: float = 3e-3,
    ) -> list[float]:
        """Teacher-forced instruction finetuning; returns per-epoch loss."""
        encoded = [self._encode_pair(p, t, MAX_PROMPT_LEN) for p, t in pairs]
        return self._fit(encoded, epochs, lr,
                         lambda: self._train_rng.permutation(len(encoded)))

    def _batch_loss(self, batch: list[tuple[list[int], int]]) -> Tensor:
        tok = self.tokenizer
        width = max(len(ids) for ids, _ in batch)
        inputs = np.full((len(batch), width - 1), tok.pad_id, dtype=np.int64)
        targets = np.full((len(batch), width - 1), tok.pad_id, dtype=np.int64)
        weights = np.zeros((len(batch), width - 1))
        for row, (ids, sep_pos) in enumerate(batch):
            seq = np.asarray(ids, dtype=np.int64)
            inputs[row, : len(ids) - 1] = seq[:-1]
            targets[row, : len(ids) - 1] = seq[1:]
            # Loss only on the response span (positions at/after <sep>).
            weights[row, sep_pos : len(ids) - 1] = 1.0
        embedded = self.embedding(inputs)
        hidden, _ = self.gru(embedded, mask=inputs != tok.pad_id)
        logits = self.output(hidden)
        return cross_entropy(logits, targets, weights=weights)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _prime(self, prompts: list[str]) -> Tensor:
        """Run prompts (ending in <sep>) through the GRU; returns states."""
        tok = self.tokenizer
        encoded = [[tok.bos_id, *tok.encode(p), tok.sep_id] for p in prompts]
        width = max(len(ids) for ids in encoded)
        inputs = np.full((len(encoded), width), tok.pad_id, dtype=np.int64)
        for row, ids in enumerate(encoded):
            inputs[row, width - len(ids):] = ids  # left-pad so states align
        embedded = self.embedding(inputs)
        mask = inputs != tok.pad_id
        _, state = self.gru(embedded, mask=mask)
        return state

    def _next_ids(self, prompts: list[str], pick):
        """The primed state has already consumed ``<sep>``, so the first
        prediction reads directly off that state; each subsequent step
        feeds back the token just emitted."""
        state = self._prime(prompts)
        while True:
            next_ids = pick(self.output(state).numpy())
            yield next_ids
            embedded = self.embedding(next_ids[:, None])[:, 0, :]
            state = self.gru.cell(embedded, state)

    def sequence_logprob(self, prompt: str, target: str) -> float:
        """Log probability of ``target`` given ``prompt`` (label scoring)."""
        tok = self.tokenizer
        ids, sep_pos = self._encode_pair(prompt, target, max_len=10_000)
        with no_grad():
            seq = np.asarray(ids, dtype=np.int64)
            embedded = self.embedding(seq[None, :-1])
            hidden, _ = self.gru(embedded)
            logp = log_softmax(self.output(hidden)).numpy()[0]
        total = 0.0
        for position in range(sep_pos, len(ids) - 1):
            total += float(logp[position, ids[position + 1]])
        return total
