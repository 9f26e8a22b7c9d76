"""Sequential session-recommendation baselines (§4.2.2).

* **FPMC** — factorized first-order Markov chain: the next item is scored
  by the interaction of the last item's transition embedding with the
  candidate's embedding (the session variant of Rendle et al. 2010).
* **GRU4Rec** — GRU over item embeddings (Hidasi et al. 2016).
* **STAMP** — short-term attention/memory priority: attention over the
  history with the last item as priority, trilinear scoring (Liu et al.
  2018).
* **CSRM** — GRU inner encoder plus an external memory attended by the
  session state (Wang et al. 2019; the neighborhood memory is modeled as
  a trainable slot matrix).

All models score every item (index 0 = padding is masked out of the
metrics by construction since targets are ≥ 1).
"""

from __future__ import annotations

import numpy as np

from repro.nn import MLP, Embedding, Linear, Module, Parameter, Tensor
from repro.nn import init as nn_init
from repro.utils.rng import spawn_rng

__all__ = ["FPMC", "GRU4Rec", "STAMP", "CSRM"]

_HIDDEN = 64            # GRU state width (GRU4Rec, CSRM)
_MEMORY_SLOTS = 64      # CSRM's outer memory


class SessionModel(Module):
    """Shared interface: forward(items, mask, knowledge=None) → logits."""

    needs_knowledge = False

    def forward(self, items: np.ndarray, mask: np.ndarray, knowledge=None) -> Tensor:
        raise NotImplementedError  # pragma: no cover


def _last_indices(mask: np.ndarray) -> np.ndarray:
    """Position of the last valid step per row."""
    return mask.sum(axis=1).astype(np.int64) - 1


class FPMC(SessionModel):
    """Factorized personalized Markov chain (session-anonymous variant)."""

    def __init__(self, n_items: int, dim: int, seed: int):
        super().__init__()
        rng = spawn_rng(seed, "fpmc")
        self.transition = Embedding(n_items, dim, rng, padding_idx=0)
        self.candidate = Parameter(nn_init.normal(rng, (n_items, dim), std=0.1))
        self.bias = Parameter(np.zeros(n_items))

    def forward(self, items, mask, knowledge=None) -> Tensor:
        """Score all items from the last item's transition embedding."""
        rows = np.arange(items.shape[0])
        last_items = items[rows, _last_indices(mask)]
        last_embed = self.transition(last_items)
        return last_embed @ self.candidate.T + self.bias


class GRU4Rec(SessionModel):
    """GRU over the item sequence; final state scores all items."""

    def __init__(self, n_items: int, dim: int, seed: int):
        super().__init__()
        from repro.nn import GRU

        rng = spawn_rng(seed, "gru4rec")
        self.items = Embedding(n_items, dim, rng, padding_idx=0)
        self.gru = GRU(dim, _HIDDEN, rng)
        self.out = Linear(_HIDDEN, n_items, rng)

    def forward(self, items, mask, knowledge=None) -> Tensor:
        """Run the GRU over the session; the final state scores items."""
        embedded = self.items(items)
        _, final = self.gru(embedded, mask=mask)
        return self.out(final)


class STAMP(SessionModel):
    """Short-term attention/memory priority model."""

    def __init__(self, n_items: int, dim: int, seed: int):
        super().__init__()
        rng = spawn_rng(seed, "stamp")
        self.items = Embedding(n_items, dim, rng, padding_idx=0)
        self.w1 = Linear(dim, dim, rng, bias=False)
        self.w2 = Linear(dim, dim, rng, bias=False)
        self.w3 = Linear(dim, dim, rng)
        self.v = Linear(dim, 1, rng, bias=False)
        self.mlp_a = MLP([dim, dim], rng)
        self.mlp_b = MLP([dim, dim], rng)

    def forward(self, items, mask, knowledge=None) -> Tensor:
        """Attention over history with last-item priority, trilinear scoring."""
        embedded = self.items(items)  # (B, T, d)
        mask_f = mask.astype(np.float64)[..., None]
        counts = np.maximum(mask_f.sum(axis=1), 1.0)
        mean = (embedded * Tensor(mask_f)).sum(axis=1) / Tensor(counts)
        rows = np.arange(items.shape[0])
        last = self.items(items[rows, _last_indices(mask)])
        batch, steps, dim = embedded.shape
        energy = (
            self.w1(embedded)
            + self.w2(last).reshape(batch, 1, dim)
            + self.w3(mean).reshape(batch, 1, dim)
        ).sigmoid()
        scores = self.v(energy) * Tensor(mask_f)
        context = (embedded * scores).sum(axis=1) + mean
        h_s = self.mlp_a(context).tanh()
        h_t = self.mlp_b(last).tanh()
        return (h_s * h_t) @ self.items.weight.T


class CSRM(SessionModel):
    """Collaborative session-based recommendation with an external memory."""

    def __init__(self, n_items: int, dim: int, seed: int):
        super().__init__()
        from repro.nn import GRU

        rng = spawn_rng(seed, "csrm")
        self.items = Embedding(n_items, dim, rng, padding_idx=0)
        self.gru = GRU(dim, _HIDDEN, rng)
        self.memory = Parameter(nn_init.normal(rng, (_MEMORY_SLOTS, _HIDDEN), std=0.1))
        self.fuse = Linear(2 * _HIDDEN, _HIDDEN, rng)
        self.out = Linear(_HIDDEN, n_items, rng)

    def forward(self, items, mask, knowledge=None) -> Tensor:
        """Fuse the inner GRU state with attention over the outer memory."""
        embedded = self.items(items)
        _, inner = self.gru(embedded, mask=mask)  # (B, hidden)
        # Outer memory: softmax attention of the session state over slots.
        scores = inner @ self.memory.T  # (B, slots)
        shifted = scores - scores.max(axis=-1, keepdims=True).detach()
        weights = shifted.exp() / shifted.exp().sum(axis=-1, keepdims=True)
        outer = weights @ self.memory
        fused = self.fuse(Tensor.concat([inner, outer])).tanh()
        return self.out(fused)
