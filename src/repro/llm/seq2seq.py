"""Pointer-generator attention seq2seq — the COSMO-LM architecture.

Knowledge generation is largely a *content transfer* task: the typical
tail ("winter camping") appears verbatim or near-verbatim in the behavior
context ("things for winter camping").  The student is therefore a GRU
encoder-decoder with additive attention **and a copy mechanism**: at each
decoder step the output distribution is a learned mixture of the
vocabulary softmax and the attention distribution scattered onto the
prompt's token ids, so copying intent phrases out of the query is
directly learnable even from few demonstrations.  The plain
:class:`~repro.llm.student.StudentLM` is kept as the architecture
ablation baseline.
"""

from __future__ import annotations

import numpy as np

from repro.llm.base import TrainableLM
from repro.llm.interface import (
    BATCH_SIZE,
    MAX_NEW_TOKENS,
    MAX_PROMPT_LEN,
    Generation,
    LatencyModel,
)
from repro.llm.tokenizer import Tokenizer
from repro.nn import GRU, Dropout, Embedding, Linear, Tensor, no_grad, vocab_scatter
from repro.nn.functional import softmax
from repro.nn.rnn import GRUCell
from repro.utils.rng import spawn_rng

__all__ = ["Seq2SeqLM"]

_NEG_INF = -1e9
_EPS = 1e-9
_TOP_K = 8


class Seq2SeqLM(TrainableLM):
    """GRU encoder-decoder with additive attention and pointer-copying."""

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
        self.hidden_dim = hidden_dim
        rng = spawn_rng(seed, f"seq2seq:{name}")
        vocab = len(tokenizer)
        self.embedding = Embedding(vocab, embed_dim, rng, padding_idx=tokenizer.pad_id)
        self.encoder = GRU(embed_dim, hidden_dim, rng)
        self.decoder_cell = GRUCell(embed_dim + hidden_dim, hidden_dim, rng)
        # Additive attention: score = v · tanh(W_h h_enc + W_s s_dec).
        self.attn_enc = Linear(hidden_dim, hidden_dim, rng, bias=False)
        self.attn_dec = Linear(hidden_dim, hidden_dim, rng)
        # Location feature: the previous step's attention weights feed the
        # energy so the pointer learns to *advance* along the prompt while
        # copying multi-word phrases.
        self.attn_loc = Linear(1, hidden_dim, rng)
        self.attn_v = Linear(hidden_dim, 1, rng, bias=False)
        self.output = Linear(2 * hidden_dim, vocab, rng)
        # Pointer gate: how much probability mass goes to copying.
        # Bias starts positive so early training explores the copy path.
        self.copy_gate = Linear(2 * hidden_dim, 1, rng)
        self.copy_gate.bias.data[:] = 1.0
        # Dropout on the pre-output features discourages pure vocab-path
        # memorization of demonstrations, pushing copyable examples onto
        # the pointer path.
        self.feature_dropout = Dropout(0.2, spawn_rng(seed, f"seq2seq-drop:{name}"))
        # Weight of the auxiliary copy-gate supervision term.
        self.gate_loss_weight = 0.5
        self._train_rng = spawn_rng(seed, f"seq2seq-train:{name}")

    # ------------------------------------------------------------------
    def _encode_prompts(self, prompts: list[str], max_prompt_len: int | None = None):
        tok = self.tokenizer
        encoded = [tok.encode(p) for p in prompts]
        if max_prompt_len is not None:
            encoded = [ids[-max_prompt_len:] for ids in encoded]
        width = max(max(len(ids) for ids in encoded), 1)
        inputs = np.full((len(encoded), width), tok.pad_id, dtype=np.int64)
        for row, ids in enumerate(encoded):
            inputs[row, : len(ids)] = ids
        mask = inputs != tok.pad_id
        states, final = self.encoder(self.embedding(inputs), mask=mask)
        return states, final, mask, inputs

    def _attend(self, enc_states: Tensor, enc_proj: Tensor, dec_state: Tensor,
                mask: np.ndarray, prev_weights: Tensor | None) -> tuple[Tensor, Tensor]:
        """Location-aware additive attention; returns (context, weights)."""
        batch, steps, dim = enc_states.shape
        query = self.attn_dec(dec_state).reshape(batch, 1, dim)
        energy_in = enc_proj + query
        if prev_weights is not None:
            energy_in = energy_in + self.attn_loc(prev_weights)
        energy = self.attn_v(energy_in.tanh())  # (B, T, 1)
        bias = np.where(mask, 0.0, _NEG_INF)[..., None]
        weights = softmax(energy + Tensor(bias), axis=1)
        context = (enc_states * weights).sum(axis=1)
        return context, weights

    def _step(self, prev_ids: np.ndarray, state: Tensor, enc_states: Tensor,
              enc_proj: Tensor, mask: np.ndarray, prompt_ids: np.ndarray,
              prev_weights: Tensor | None):
        """One decoder step; returns (probs, new state, weights, gate)."""
        context, weights = self._attend(enc_states, enc_proj, state, mask, prev_weights)
        step_embed = self.embedding(prev_ids)
        state = self.decoder_cell(Tensor.concat([step_embed, context]), state)
        features = self.feature_dropout(Tensor.concat([state, context]))
        vocab_probs = softmax(self.output(features), axis=-1)
        copy_weights = weights.reshape(weights.shape[0], weights.shape[1])
        copy_probs = vocab_scatter(copy_weights, prompt_ids, len(self.tokenizer))
        gate = self.copy_gate(features).sigmoid()  # (B, 1)
        probs = vocab_probs * (1.0 - gate) + copy_probs * gate
        return probs, state, weights, gate

    # ------------------------------------------------------------------
    def fit(
        self,
        pairs: list[tuple[str, str]],
        epochs: int,
        lr: float = 4e-3,
    ) -> list[float]:
        """Teacher-forced finetuning; returns per-epoch mean loss."""
        tok = self.tokenizer
        data = [
            (prompt, tok.encode(target)[:MAX_NEW_TOKENS] + [tok.eos_id])
            for prompt, target in pairs
        ]

        def order() -> list[int]:
            # Length-bucketed batching: shuffle, then sort within large
            # chunks by target length so one-token classification targets
            # do not pay a 15-step decoder unroll.
            shuffled = self._train_rng.permutation(len(data))
            chunk = BATCH_SIZE * 16
            return [index for start in range(0, len(shuffled), chunk)
                    for index in sorted(shuffled[start : start + chunk],
                                        key=lambda i: len(data[i][1]))]

        return self._fit(data, epochs, lr, order)

    def _batch_loss(self, batch: list[tuple[str, list[int]]]) -> Tensor:
        tok = self.tokenizer
        prompts = [prompt for prompt, _ in batch]
        targets = [ids for _, ids in batch]
        enc_states, state, mask, prompt_ids = self._encode_prompts(prompts, max_prompt_len=MAX_PROMPT_LEN)
        enc_proj = self.attn_enc(enc_states)
        width = max(len(ids) for ids in targets)
        target_arr = np.full((len(batch), width), tok.pad_id, dtype=np.int64)
        for row, ids in enumerate(targets):
            target_arr[row, : len(ids)] = ids
        # Decoder inputs: <sep> then the target shifted right.
        dec_inputs = np.full((len(batch), width), tok.sep_id, dtype=np.int64)
        dec_inputs[:, 1:] = target_arr[:, :-1]
        # Gate supervision: when the target token occurs in the prompt,
        # the pointer should fire; otherwise the vocabulary path should.
        # This keeps the copy mechanism alive even when most training
        # examples (e.g. co-buy) are not copyable.
        prompt_token_sets = [set(row.tolist()) - {tok.pad_id} for row in prompt_ids]
        loss_terms: list[Tensor] = []
        gate_terms: list[Tensor] = []
        weight_total = 0.0
        rows = np.arange(len(batch))
        attn: Tensor | None = None
        for t in range(width):
            probs, state, attn, gate = self._step(
                dec_inputs[:, t], state, enc_states, enc_proj, mask, prompt_ids, attn
            )
            step_targets = target_arr[:, t]
            valid = (step_targets != tok.pad_id).astype(np.float64)
            picked = probs[rows, step_targets]
            loss_terms.append(-((picked + _EPS).log() * Tensor(valid)).sum())
            copyable = np.array(
                [1.0 if int(t_id) in prompt_token_sets[row] else 0.0
                 for row, t_id in enumerate(step_targets)]
            )
            gate_flat = gate.reshape(len(batch))
            gate_nll = -(
                (gate_flat + _EPS).log() * Tensor(copyable * valid)
                + (1.0 - gate_flat + _EPS).log() * Tensor((1.0 - copyable) * valid)
            ).sum()
            gate_terms.append(gate_nll)
            weight_total += valid.sum()
        total = loss_terms[0]
        for term in loss_terms[1:]:
            total = total + term
        gate_total = gate_terms[0]
        for term in gate_terms[1:]:
            gate_total = gate_total + term
        return (total + self.gate_loss_weight * gate_total) / max(weight_total, 1.0)

    # ------------------------------------------------------------------
    @staticmethod
    def _sample_top_k(prob_arr: np.ndarray, temperature: float,
                      rng: np.random.Generator) -> np.ndarray:
        """Sample per row from the temperature-scaled top-k distribution."""
        next_ids = np.zeros(prob_arr.shape[0], dtype=np.int64)
        for row in range(prob_arr.shape[0]):
            top = np.argpartition(prob_arr[row], -_TOP_K)[-_TOP_K:]
            logits = np.log(prob_arr[row, top] + _EPS) / temperature
            logits -= logits.max()
            weights = np.exp(logits)
            weights /= weights.sum()
            next_ids[row] = top[int(rng.choice(_TOP_K, p=weights))]
        return next_ids

    def decode_batch(
        self,
        prompts: list[str],
        temperature: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> list[Generation]:
        """Pointer-attention decoding for a batch of prompts (decoding
        internal).

        ``temperature == 0`` is greedy; a positive temperature samples
        from the top-8 renormalized distribution (used by
        sample-and-rerank generation).
        """
        if temperature <= 0:
            return super().decode_batch(prompts)
        sampler = rng if rng is not None else spawn_rng(0, "seq2seq-sample")
        return self._decode(
            prompts, lambda probs: self._sample_top_k(probs, temperature, sampler))

    def _next_ids(self, prompts: list[str], pick):
        enc_states, state, mask, prompt_ids = self._encode_prompts(prompts)
        enc_proj = self.attn_enc(enc_states)
        current = np.full(len(prompts), self.tokenizer.sep_id, dtype=np.int64)
        attn = None
        while True:
            probs, state, attn, _gate = self._step(
                current, state, enc_states, enc_proj, mask, prompt_ids, attn
            )
            current = pick(probs.numpy())
            yield current

    # ------------------------------------------------------------------
    def sequence_logprob(self, prompt: str, target: str) -> float:
        """Log p(target | prompt) under teacher forcing."""
        tok = self.tokenizer
        target_ids = tok.encode(target) + [tok.eos_id]
        with no_grad():
            enc_states, state, mask, prompt_ids = self._encode_prompts([prompt])
            enc_proj = self.attn_enc(enc_states)
            current = np.array([tok.sep_id], dtype=np.int64)
            total = 0.0
            attn = None
            for target_id in target_ids:
                probs, state, attn, _gate = self._step(
                    current, state, enc_states, enc_proj, mask, prompt_ids, attn
                )
                total += float(np.log(probs.numpy()[0, target_id] + _EPS))
                current = np.array([target_id], dtype=np.int64)
        return total
