"""Critic classifiers: training, scoring, threshold population."""

import numpy as np
import pytest

from repro.annotation.schema import AnnotationResult
from repro.core.critic import KEEP_THRESHOLD, CriticClassifier
from repro.core.relations import Relation
from repro.core.triples import BehaviorSample, KnowledgeCandidate
from repro.embeddings import TextEncoder


def _make_candidates(n=200, seed=0):
    """Separable synthetic data: plausible tails overlap their context."""
    rng = np.random.default_rng(seed)
    words = ["camping", "hiking", "fishing", "yoga", "tennis", "baking", "sewing"]
    candidates, annotations = [], []
    for i in range(n):
        topic = words[int(rng.integers(len(words)))]
        plausible = bool(rng.random() < 0.5)
        tail = f"{topic} trip" if plausible else f"{words[int(rng.integers(len(words)))]} unrelated"
        sample = BehaviorSample(
            sample_id=f"s{i}",
            behavior="search-buy",
            domain="Sports & Outdoors",
            product_ids=("p1",),
            query_id="q1",
            head_text=f"{topic} gear ||| brand {topic} item",
            intent_id=None,
        )
        candidates.append(
            KnowledgeCandidate(
                candidate_id=f"c{i}",
                sample=sample,
                text=f"it is used for {tail}.",
                relation=Relation.USED_FOR_FUNC,
                tail=tail,
            )
        )
        annotation = AnnotationResult(candidate_id=f"c{i}")
        annotation.answers.update(complete=True, relevant=plausible, informative=True,
                                  plausible=plausible, typical=plausible)
        annotations.append(annotation)
    return candidates, annotations


@pytest.fixture(scope="module")
def trained_critic():
    candidates, annotations = _make_candidates()
    critic = CriticClassifier(TextEncoder(seed=0), seed=0)
    losses = critic.fit(candidates[:150], annotations[:150])
    return critic, candidates, annotations, losses


def test_training_reduces_loss(trained_critic):
    _, _, _, losses = trained_critic
    assert losses[-1] < losses[0]


def test_heldout_accuracy_on_separable_data(trained_critic):
    critic, candidates, annotations, _ = trained_critic
    accuracy = critic.accuracy(candidates[150:], annotations[150:])
    assert accuracy["plausibility"] > 0.8


def test_scores_are_probabilities(trained_critic):
    critic, candidates, _, _ = trained_critic
    scores = critic.score(candidates[:20])
    assert scores.shape == (20, 2)
    assert ((scores >= 0) & (scores <= 1)).all()


def test_populate_sets_scores_and_thresholds(trained_critic):
    critic, candidates, annotations, _ = trained_critic
    kept = critic.populate(candidates[150:])
    for candidate in candidates[150:]:
        assert candidate.plausibility_score is not None
        assert candidate.typicality_score is not None
    for candidate in kept:
        assert candidate.plausibility_score > KEEP_THRESHOLD


def test_score_before_fit_raises():
    critic = CriticClassifier(TextEncoder(seed=1), seed=1)
    with pytest.raises(RuntimeError):
        critic.score([])


def test_fit_rejects_misaligned_inputs():
    candidates, annotations = _make_candidates(10)
    critic = CriticClassifier(TextEncoder(seed=1), seed=1)
    with pytest.raises(ValueError):
        critic.fit(candidates, annotations[:5])


def test_empty_score_returns_empty(trained_critic):
    critic, _, _, _ = trained_critic
    assert critic.score([]).shape == (0, 2)
