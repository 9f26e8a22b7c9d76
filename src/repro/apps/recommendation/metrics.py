"""Ranking metrics for session-based recommendation (§4.2.1)."""

from __future__ import annotations

import numpy as np

__all__ = ["hits_at_k", "ndcg_at_k", "mrr_at_k", "ranking_metrics"]

K = 10      #: Table 8 reports Hits@10, NDCG@10 and MRR@10


def _ranks(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """1-based rank of each target item under its score row."""
    target_scores = scores[np.arange(len(targets)), targets]
    # Rank = 1 + number of items strictly better (ties broken pessimistically).
    return 1 + (scores > target_scores[:, None]).sum(axis=1)


def hits_at_k(scores: np.ndarray, targets: np.ndarray, k: int) -> float:
    """Fraction of targets ranked in the top k."""
    return float((_ranks(scores, targets) <= k).mean())


def ndcg_at_k(scores: np.ndarray, targets: np.ndarray, k: int) -> float:
    """NDCG@k with a single relevant item per example."""
    ranks = _ranks(scores, targets)
    gains = np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0)
    return float(gains.mean())


def mrr_at_k(scores: np.ndarray, targets: np.ndarray, k: int) -> float:
    """Mean reciprocal rank, zeroed beyond k."""
    ranks = _ranks(scores, targets)
    rr = np.where(ranks <= k, 1.0 / ranks, 0.0)
    return float(rr.mean())


def ranking_metrics(scores: np.ndarray, targets: np.ndarray) -> dict[str, float]:
    """All three Table 8 metrics at once (percentages), at the paper's k."""
    return {
        f"Hits@{K}": 100.0 * hits_at_k(scores, targets, K),
        f"NDCG@{K}": 100.0 * ndcg_at_k(scores, targets, K),
        f"MRR@{K}": 100.0 * mrr_at_k(scores, targets, K),
    }
