"""Graph-based session recommenders (§4.2.2): SR-GNN, GC-SAN, GCE-GNN.

Each session becomes a directed graph over its unique items (in/out
normalized adjacency); a gated GNN propagates item states, and a readout
attends over the session with the last item (and, for GCE-GNN, global
co-occurrence neighbors and positional attention) to score all items.
"""

from __future__ import annotations

import numpy as np

from repro.apps.recommendation.baselines import SessionModel, _last_indices
from repro.nn import Embedding, Linear, Parameter, SelfAttention, Tensor
from repro.nn import init as nn_init
from repro.utils.rng import spawn_rng

__all__ = ["SessionGraphBatch", "build_session_graphs", "GatedGNNLayer",
           "SRGNN", "GCSAN", "GCEGNN", "build_global_graph"]

_BLEND = 0.6        # GC-SAN: weight of the attended state against the GNN state
_TOP_K = 8          # global-graph neighbours kept per item


class SessionGraphBatch:
    """Batched session graphs: node ids, alias map, adjacency matrices."""

    def __init__(self, nodes, alias, a_in, a_out, node_mask):
        self.nodes = nodes        # (B, L) item ids, 0-padded
        self.alias = alias        # (B, T) sequence position → node index
        self.a_in = a_in          # (B, L, L) normalized in-adjacency
        self.a_out = a_out        # (B, L, L) normalized out-adjacency
        self.node_mask = node_mask  # (B, L) valid-node mask


def build_session_graphs(items: np.ndarray, mask: np.ndarray) -> SessionGraphBatch:
    """Convert padded item sequences into batched session graphs."""
    batch, steps = items.shape
    max_nodes = 1
    uniques: list[list[int]] = []
    for row in range(batch):
        seen: list[int] = []
        for col in range(steps):
            if mask[row, col] and items[row, col] not in seen:
                seen.append(int(items[row, col]))
        uniques.append(seen)
        max_nodes = max(max_nodes, len(seen))
    nodes = np.zeros((batch, max_nodes), dtype=np.int64)
    alias = np.zeros((batch, steps), dtype=np.int64)
    a_in = np.zeros((batch, max_nodes, max_nodes))
    a_out = np.zeros((batch, max_nodes, max_nodes))
    node_mask = np.zeros((batch, max_nodes), dtype=bool)
    for row in range(batch):
        unique = uniques[row]
        position = {item: idx for idx, item in enumerate(unique)}
        nodes[row, : len(unique)] = unique
        node_mask[row, : len(unique)] = True
        previous = None
        for col in range(steps):
            if not mask[row, col]:
                continue
            current = position[int(items[row, col])]
            alias[row, col] = current
            if previous is not None:
                a_out[row, previous, current] += 1.0
                a_in[row, current, previous] += 1.0
            previous = current
        # Row-normalize both adjacencies.
        for adj in (a_in, a_out):
            sums = adj[row].sum(axis=1, keepdims=True)
            sums[sums == 0] = 1.0
            adj[row] /= sums
    return SessionGraphBatch(nodes, alias, a_in, a_out, node_mask)


class GatedGNNLayer(SessionModel):
    """One gated graph-neural-network propagation step (Li et al. 2016)."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.w_in = Linear(dim, dim, rng)
        self.w_out = Linear(dim, dim, rng)
        self.gate = Linear(3 * dim, 2 * dim, rng)
        self.candidate = Linear(3 * dim, dim, rng)
        self.dim = dim

    def forward(self, hidden: Tensor, a_in: np.ndarray, a_out: np.ndarray) -> Tensor:
        """One message-passing step with GRU-style gated node updates."""
        msg_in = Tensor(a_in) @ self.w_in(hidden)
        msg_out = Tensor(a_out) @ self.w_out(hidden)
        combined = Tensor.concat([msg_in, msg_out, hidden])
        gates = self.gate(combined).sigmoid()
        update, reset = gates[:, :, : self.dim], gates[:, :, self.dim :]
        candidate = self.candidate(
            Tensor.concat([msg_in, msg_out, hidden * reset])
        ).tanh()
        return hidden * (1.0 - update) + candidate * update


class _GraphReadout(SessionModel):
    """SR-GNN readout: soft attention with the last item + linear fuse."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.w1 = Linear(dim, dim, rng, bias=False)
        self.w2 = Linear(dim, dim, rng)
        self.v = Linear(dim, 1, rng, bias=False)
        self.fuse = Linear(2 * dim, dim, rng, bias=False)

    def forward(self, node_states: Tensor, last: Tensor, node_mask: np.ndarray) -> Tensor:
        """Soft attention of node states against the last item + fuse."""
        batch, n_nodes, dim = node_states.shape
        energy = (self.w1(node_states) + self.w2(last).reshape(batch, 1, dim)).sigmoid()
        scores = self.v(energy) * Tensor(node_mask.astype(np.float64)[..., None])
        global_state = (node_states * scores).sum(axis=1)
        return self.fuse(Tensor.concat([global_state, last]))


class SRGNN(SessionModel):
    """Session-graph GNN (Wu et al. 2019)."""

    def __init__(self, n_items: int, dim: int, seed: int):
        super().__init__()
        rng = spawn_rng(seed, "srgnn")
        self.items = Embedding(n_items, dim, rng, padding_idx=0)
        self.gnn = GatedGNNLayer(dim, rng)
        self.readout = _GraphReadout(dim, rng)

    def forward(self, items, mask, knowledge=None) -> Tensor:
        """Gated GNN over the session graph, last-item attentive readout."""
        graphs = build_session_graphs(items, mask)
        hidden = self.gnn(self.items(graphs.nodes), graphs.a_in, graphs.a_out)
        rows = np.arange(items.shape[0])
        last_alias = graphs.alias[rows, _last_indices(mask)]
        last = hidden[rows, last_alias]
        session = self.readout(hidden, last, graphs.node_mask)
        return session @ self.items.weight.T


class GCSAN(SessionModel):
    """SR-GNN + self-attention over the sequence (Xu et al. 2019)."""

    def __init__(self, n_items: int, dim: int, seed: int):
        super().__init__()
        rng = spawn_rng(seed, "gcsan")
        self.items = Embedding(n_items, dim, rng, padding_idx=0)
        self.gnn = GatedGNNLayer(dim, rng)
        self.attention = SelfAttention(dim, rng)

    def forward(self, items, mask, knowledge=None) -> Tensor:
        """GNN node states re-sequenced, then self-attention + blend."""
        graphs = build_session_graphs(items, mask)
        hidden = self.gnn(self.items(graphs.nodes), graphs.a_in, graphs.a_out)
        batch, steps = items.shape
        rows = np.arange(batch)[:, None]
        sequence = hidden[np.repeat(np.arange(batch), steps),
                          graphs.alias.reshape(-1)].reshape(batch, steps, -1)
        attn_mask = mask[:, None, :] & mask[:, :, None]
        attended = self.attention(sequence, mask=attn_mask)
        last_pos = _last_indices(mask)
        last_attended = attended[np.arange(batch), last_pos]
        last_gnn = sequence[np.arange(batch), last_pos]
        session = last_attended * _BLEND + last_gnn * (1.0 - _BLEND)
        return session @ self.items.weight.T


def build_global_graph(train_examples, n_items: int) -> tuple[np.ndarray, np.ndarray]:
    """Global item co-occurrence neighbors from training sessions.

    Returns (neighbors (n_items, _TOP_K) item ids, weights (n_items, _TOP_K))
    normalized per item — the global-level graph of GCE-GNN.
    """
    co_counts: dict[int, dict[int, float]] = {}
    for example in train_examples:
        window = list(example.items) + [example.target]
        for i, item_a in enumerate(window):
            for item_b in window[max(0, i - 2) : i + 3]:
                if item_a == item_b or item_a == 0 or item_b == 0:
                    continue
                co_counts.setdefault(item_a, {})[item_b] = (
                    co_counts.get(item_a, {}).get(item_b, 0.0) + 1.0
                )
    neighbors = np.zeros((n_items, _TOP_K), dtype=np.int64)
    weights = np.zeros((n_items, _TOP_K))
    for item, counts in co_counts.items():
        ranked = sorted(counts.items(), key=lambda kv: -kv[1])[:_TOP_K]
        for slot, (neighbor, count) in enumerate(ranked):
            neighbors[item, slot] = neighbor
            weights[item, slot] = count
        total = weights[item].sum()
        if total > 0:
            weights[item] /= total
    return neighbors, weights


class GCEGNN(SessionModel):
    """Global-context-enhanced GNN (Wang et al. 2020).

    Two embedding levels: the session-local gated GNN and a global
    aggregation over co-occurrence neighbors; positional soft attention
    with the session mean produces the final representation.
    """

    def __init__(
        self,
        n_items: int,
        global_neighbors: np.ndarray,
        global_weights: np.ndarray,
        dim: int,
        max_len: int,
        seed: int,
    ):
        super().__init__()
        rng = spawn_rng(seed, "gcegnn")
        self.items = Embedding(n_items, dim, rng, padding_idx=0)
        self.gnn = GatedGNNLayer(dim, rng)
        self.neighbors = global_neighbors
        self.neighbor_weights = global_weights
        self.global_proj = Linear(dim, dim, rng)
        self.position = Parameter(nn_init.normal(rng, (max_len + 1, dim), std=0.1))
        self.w_att = Linear(2 * dim, dim, rng)
        self.q_att = Linear(dim, 1, rng, bias=False)
        self.dim = dim

    # -- global level ----------------------------------------------------
    def _global_embedding(self, node_ids: np.ndarray) -> Tensor:
        """Weighted neighbor average for each node id."""
        neigh = self.neighbors[node_ids]          # (B, L, K)
        weights = self.neighbor_weights[node_ids]  # (B, L, K)
        neigh_embed = self.items(neigh)            # (B, L, K, d)
        weighted = neigh_embed * Tensor(weights[..., None])
        return self.global_proj(weighted.sum(axis=2))

    def _sequence_states(self, items, mask) -> tuple[Tensor, SessionGraphBatch]:
        graphs = build_session_graphs(items, mask)
        hidden = self.gnn(self.items(graphs.nodes), graphs.a_in, graphs.a_out)
        hidden = hidden + self._global_embedding(graphs.nodes)
        batch, steps = items.shape
        sequence = hidden[np.repeat(np.arange(batch), steps),
                          graphs.alias.reshape(-1)].reshape(batch, steps, -1)
        return sequence, graphs

    def _positional_attention(self, sequence: Tensor, mask: np.ndarray) -> Tensor:
        batch, steps, dim = sequence.shape
        mask_f = mask.astype(np.float64)[..., None]
        counts = np.maximum(mask_f.sum(axis=1), 1.0)
        mean = (sequence * Tensor(mask_f)).sum(axis=1) / Tensor(counts)
        positions = self.position[np.arange(steps)][None, :, :].data
        with_pos = Tensor.concat([sequence, Tensor(np.broadcast_to(positions, (batch, steps, dim)).copy())])
        energy = self.w_att(with_pos).tanh() * mean.reshape(batch, 1, dim)
        scores = self.q_att(energy) * Tensor(mask_f)
        return (sequence * scores).sum(axis=1)

    def forward(self, items, mask, knowledge=None) -> Tensor:
        """Local GNN + global-neighbor states, positional soft attention."""
        sequence, _ = self._sequence_states(items, mask)
        session = self._positional_attention(sequence, mask)
        return session @ self.items.weight.T
