"""COSMO-GNN: GCE-GNN extended with COSMO knowledge (§4.2.3).

For each session step ``t`` the user searched query ``k_t`` and clicked
item ``v_t``; COSMO-LM explains the pair and the same embedding LM
vectorizes the explanation into ``g_t``.  A two-layer perceptron aligns
the knowledge space with the GNN feature space and the per-step
representation becomes ``[h_t ; ĝ_t]``; soft attention pools the steps
into the session representation.
"""

from __future__ import annotations

import numpy as np

from repro.apps.recommendation.gnn import GCEGNN
from repro.nn import MLP, Tensor
from repro.utils.rng import spawn_rng

__all__ = ["CosmoGNN"]


class CosmoGNN(GCEGNN):
    """GCE-GNN + aligned knowledge embeddings per session step."""

    needs_knowledge = True

    def __init__(
        self,
        n_items: int,
        global_neighbors: np.ndarray,
        global_weights: np.ndarray,
        knowledge_dim: int,
        dim: int,
        max_len: int,
        seed: int,
    ):
        super().__init__(n_items, global_neighbors, global_weights,
                         dim=dim, max_len=max_len, seed=seed)
        rng = spawn_rng(seed, "cosmo-gnn")
        # Two-layer perceptron aligning knowledge space with GNN space.
        self.knowledge_mlp = MLP([knowledge_dim, dim, dim], rng)

    def forward(self, items, mask, knowledge=None) -> Tensor:
        """GCE-GNN states enriched with aligned knowledge embeddings."""
        if knowledge is None:
            raise ValueError("CosmoGNN requires per-step knowledge vectors")
        sequence, _ = self._sequence_states(items, mask)
        aligned = self.knowledge_mlp(Tensor(knowledge))  # (B, T, dim)
        # Residual fusion: knowledge refines the GNN step representation
        # and degrades gracefully to GCE-GNN when uninformative.
        enriched = sequence + aligned
        session = self._positional_attention(enriched, mask)
        return session @ self.items.weight.T
