"""Eq. 2 annotation re-weighting."""

import numpy as np
import pytest

from repro.behavior import simulate_cobuy, simulate_searchbuy
from repro.core.annotation_sampling import reweight_candidates, sample_for_annotation
from repro.core.generation import generate_candidates
from repro.core.sampling import sample_cobuy, sample_products, sample_searchbuy
from repro.llm import TeacherLLM


@pytest.fixture(scope="module")
def candidates(world):
    cobuy = simulate_cobuy(world, pairs_per_domain=30, seed=8)
    searchbuy = simulate_searchbuy(world, records_per_domain=40, seed=8)
    selected = sample_products(world, cobuy, searchbuy)
    samples = sample_cobuy(world, cobuy, selected) + sample_searchbuy(world, searchbuy)
    teacher = TeacherLLM(world, seed=8)
    generated = generate_candidates(world, teacher, samples, seed=8)
    return generated, cobuy, searchbuy


def test_weights_are_positive_and_aligned(candidates):
    generated, cobuy, searchbuy = candidates
    weights = reweight_candidates(generated, cobuy, searchbuy)
    assert weights.shape == (len(generated),)
    assert (weights > 0).all()


def test_popular_heads_downweighted(candidates):
    generated, cobuy, searchbuy = candidates
    weights = reweight_candidates(generated, cobuy, searchbuy)
    cobuy_items = [
        (w, c) for w, c in zip(weights, generated) if c.sample.behavior == "co-buy"
    ]
    popularity = [
        cobuy.degree(c.sample.product_ids[0]) * cobuy.degree(c.sample.product_ids[1])
        for _, c in cobuy_items
    ]
    values = np.array([w for w, _ in cobuy_items])
    correlation = np.corrcoef(np.log(np.array(popularity) + 1.0), np.log(values))[0, 1]
    assert correlation < 0  # Eq. 2: weight falls with head popularity


def test_budget_respected_without_replacement(candidates):
    generated, cobuy, searchbuy = candidates
    chosen = sample_for_annotation(generated, cobuy, searchbuy, budget=50, seed=1)
    assert len(chosen) == 50
    assert len({c.candidate_id for c in chosen}) == 50


def test_budget_larger_than_pool_returns_all(candidates):
    generated, cobuy, searchbuy = candidates
    subset = generated[:10]
    chosen = sample_for_annotation(subset, cobuy, searchbuy, budget=100, seed=1)
    assert len(chosen) == 10


def test_uniform_flag_changes_distribution(candidates):
    generated, cobuy, searchbuy = candidates
    weighted = sample_for_annotation(generated, cobuy, searchbuy, budget=80, seed=1)
    uniform = sample_for_annotation(generated, cobuy, searchbuy, budget=80,
                                    uniform=True, seed=1)
    assert {c.candidate_id for c in weighted} != {c.candidate_id for c in uniform}


def test_sampling_is_deterministic(candidates):
    generated, cobuy, searchbuy = candidates
    a = sample_for_annotation(generated, cobuy, searchbuy, budget=40, seed=9)
    b = sample_for_annotation(generated, cobuy, searchbuy, budget=40, seed=9)
    assert [c.candidate_id for c in a] == [c.candidate_id for c in b]
