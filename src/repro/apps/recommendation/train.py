"""Trainer + evaluation loop shared by all session recommenders (§4.2)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.recommendation.baselines import CSRM, FPMC, GRU4Rec, STAMP
from repro.apps.recommendation.cosmo_gnn import CosmoGNN
from repro.apps.recommendation.datasets import SessionDataset, SessionExample
from repro.apps.recommendation.gnn import GCEGNN, GCSAN, SRGNN, build_global_graph
from repro.apps.recommendation.metrics import ranking_metrics
from repro.nn import Adam, cross_entropy, no_grad, train_epochs
from repro.utils.rng import spawn_rng

__all__ = ["MODEL_NAMES", "TrainConfig", "build_model", "train_session_model", "evaluate_session_model"]

MODEL_NAMES: tuple[str, ...] = (
    "FPMC", "GRU4Rec", "STAMP", "CSRM", "SRGNN", "GC-SAN", "GCE-GNN", "COSMO-GNN",
)


@dataclass(frozen=True)
class TrainConfig:
    """Model widths and training length (Table 8 runs 48 / 2 / 64)."""

    dim: int
    epochs: int
    knowledge_dim: int


_BATCH_SIZE = 64
_LR = 2e-3
_EVAL_BATCH_SIZE = 256


def build_model(name: str, dataset: SessionDataset, config: TrainConfig, seed: int):
    """Instantiate one recommender by its Table 8 name."""
    n_items = dataset.n_items
    if name == "FPMC":
        return FPMC(n_items, dim=config.dim, seed=seed)
    if name == "GRU4Rec":
        return GRU4Rec(n_items, dim=config.dim, seed=seed)
    if name == "STAMP":
        return STAMP(n_items, dim=config.dim, seed=seed)
    if name == "CSRM":
        return CSRM(n_items, dim=config.dim, seed=seed)
    if name == "SRGNN":
        return SRGNN(n_items, dim=config.dim, seed=seed)
    if name == "GC-SAN":
        return GCSAN(n_items, dim=config.dim, seed=seed)
    if name in ("GCE-GNN", "COSMO-GNN"):
        neighbors, weights = build_global_graph(dataset.train, n_items)
        if name == "GCE-GNN":
            return GCEGNN(n_items, neighbors, weights, dim=config.dim,
                          max_len=dataset.max_len, seed=seed)
        return CosmoGNN(n_items, neighbors, weights, knowledge_dim=config.knowledge_dim,
                        dim=config.dim, max_len=dataset.max_len, seed=seed)
    raise ValueError(f"unknown model {name!r}; valid: {MODEL_NAMES}")


def _forward(model, dataset: SessionDataset, examples: list[SessionExample], config: TrainConfig):
    items, mask, targets = dataset.batch_arrays(examples)
    knowledge = None
    if getattr(model, "needs_knowledge", False):
        knowledge = dataset.knowledge_matrix(examples, config.knowledge_dim)
    return model(items, mask, knowledge=knowledge), targets


def train_session_model(
    name: str,
    dataset: SessionDataset,
    config: TrainConfig,
    seed: int,
):
    """Train one recommender on the dataset's train split."""
    model = build_model(name, dataset, config, seed=seed)
    rng = spawn_rng(seed, f"rec-train:{name}")

    def loss_of(batch: np.ndarray):
        logits, targets = _forward(model, dataset, [dataset.train[i] for i in batch], config)
        return cross_entropy(logits, targets)

    train_epochs(model, Adam(model.parameters(), lr=_LR), config.epochs, _BATCH_SIZE,
                 lambda: rng.permutation(len(dataset.train)), loss_of, None)
    return model


def evaluate_session_model(
    model,
    dataset: SessionDataset,
    config: TrainConfig,
) -> dict[str, float]:
    """Table 8 metrics on the test split."""
    examples = dataset.test
    all_scores = []
    all_targets = []
    with no_grad():
        for start in range(0, len(examples), _EVAL_BATCH_SIZE):
            batch = examples[start : start + _EVAL_BATCH_SIZE]
            logits, targets = _forward(model, dataset, batch, config)
            scores = logits.numpy().copy()
            scores[:, 0] = -np.inf  # never rank the padding slot
            all_scores.append(scores)
            all_targets.append(targets)
    return ranking_metrics(np.vstack(all_scores), np.concatenate(all_targets))
