"""Session recommenders: metrics, datasets, all eight models."""

import numpy as np
import pytest

from repro.apps.recommendation import (
    MODEL_NAMES,
    TrainConfig,
    build_global_graph,
    build_session_dataset,
    build_session_graphs,
    evaluate_session_model,
    hits_at_k,
    mrr_at_k,
    ndcg_at_k,
    train_session_model,
)
from repro.behavior import SessionConfig, simulate_sessions
from repro.embeddings import TextEncoder


# -- metrics -----------------------------------------------------------
def test_ranking_metrics_known_values():
    scores = np.array([[0.1, 0.9, 0.5], [0.9, 0.1, 0.5]])
    targets = np.array([1, 1])
    assert hits_at_k(scores, targets, k=1) == pytest.approx(0.5)
    assert mrr_at_k(scores, targets, k=3) == pytest.approx((1.0 + 1 / 3) / 2)
    assert ndcg_at_k(scores, targets, k=3) == pytest.approx(
        (1.0 + 1 / np.log2(4)) / 2
    )


def test_metrics_beyond_k_are_zero():
    scores = np.array([[3.0, 2.0, 1.0, 0.5]])
    targets = np.array([3])
    assert hits_at_k(scores, targets, k=2) == 0.0
    assert mrr_at_k(scores, targets, k=2) == 0.0


# -- datasets ----------------------------------------------------------
@pytest.fixture(scope="module")
def session_dataset(world):
    log = simulate_sessions(
        world, SessionConfig(domain="Electronics", n_sessions=200, mean_length=7), seed=6
    )
    return build_session_dataset(log, max_len=6)


def test_examples_are_prefix_completions(session_dataset):
    for example in session_dataset.train[:100]:
        assert 1 <= len(example.items) <= 6
        assert len(example.queries) == len(example.items)
        assert example.target >= 1  # never the padding slot


def test_splits_by_day(session_dataset):
    assert session_dataset.train and session_dataset.dev and session_dataset.test


def test_batch_arrays_padding(session_dataset):
    items, mask, targets = session_dataset.batch_arrays(session_dataset.train[:8])
    assert items.shape == mask.shape
    assert (items[~mask] == 0).all()
    assert (items[mask] > 0).all()
    assert targets.shape == (8,)


def test_knowledge_matrix_alignment(world):
    log = simulate_sessions(
        world, SessionConfig(domain="Electronics", n_sessions=50, mean_length=5), seed=6
    )
    encoder = TextEncoder(dim=16, seed=6)
    dataset = build_session_dataset(
        log, max_len=5,
        knowledge_provider=lambda query, item: f"knowledge for {query}",
        encoder=encoder,
    )
    assert dataset.knowledge_vectors
    matrix = dataset.knowledge_matrix(dataset.train[:4], dim=16)
    assert matrix.shape[0] == 4 and matrix.shape[2] == 16
    assert np.abs(matrix).sum() > 0


# -- session graphs -------------------------------------------------------
def test_session_graph_construction():
    items = np.array([[3, 5, 3, 7, 0]])
    mask = np.array([[True, True, True, True, False]])
    graphs = build_session_graphs(items, mask)
    assert set(graphs.nodes[0][graphs.node_mask[0]]) == {3, 5, 7}
    assert graphs.alias[0, 0] == graphs.alias[0, 2]  # repeated item → same node
    # Out-adjacency rows are normalized.
    sums = graphs.a_out[0].sum(axis=1)
    assert ((sums == 0) | np.isclose(sums, 1.0)).all()


def test_global_graph_neighbors(session_dataset):
    neighbors, weights = build_global_graph(session_dataset.train, session_dataset.n_items)
    assert neighbors.shape == weights.shape
    sums = weights.sum(axis=1)
    assert ((sums == 0) | np.isclose(sums, 1.0)).all()
    # Padding item has no neighbors.
    assert weights[0].sum() == 0


# -- the eight models ------------------------------------------------------
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_every_model_trains_and_beats_random(name, world, session_dataset):
    config = TrainConfig(epochs=1, dim=24, knowledge_dim=16)
    if name == "COSMO-GNN":
        log = simulate_sessions(
            world, SessionConfig(domain="Electronics", n_sessions=200, mean_length=7), seed=6
        )
        encoder = TextEncoder(dim=16, seed=6)
        dataset = build_session_dataset(
            log, max_len=6,
            knowledge_provider=lambda query, item: query,
            encoder=encoder,
        )
    else:
        dataset = session_dataset
    model = train_session_model(name, dataset, config, seed=1)
    metrics = evaluate_session_model(model, dataset, config=config)
    random_hits = 100.0 * 10 / (dataset.n_items - 1)
    assert metrics["Hits@10"] > random_hits
    assert 0 <= metrics["MRR@10"] <= metrics["NDCG@10"] <= metrics["Hits@10"] <= 100


def test_unknown_model_rejected(session_dataset):
    from repro.apps.recommendation import build_model

    with pytest.raises(ValueError):
        build_model("BERT4Rec", session_dataset, TrainConfig(dim=8, epochs=1, knowledge_dim=8), seed=0)
