"""Relevance architectures: featurization, freezing, and training."""

import numpy as np
import pytest

from repro.apps.relevance import (
    FeatureExtractor,
    RelevanceModel,
    prepare_esci,
    train_relevance_model,
)
from repro.behavior import generate_esci


@pytest.fixture(scope="module")
def esci(world):
    dataset = generate_esci(world, locale="KDD Cup", pairs_per_query=8,
                            max_queries=250, seed=4)

    # Oracle knowledge provider: the product intent closest to the query
    # (an upper bound for what COSMO-LM provides; model tests only need
    # informative product-conditioned features).
    def provider(examples):
        texts = []
        for example in examples:
            product = world.catalog.get(example.product_id)
            if example.intent_id is not None and example.intent_id in product.intent_ids:
                tail = world.intents.get(example.intent_id).tail
            elif product.intent_ids:
                tail = world.intents.get(product.intent_ids[0]).tail
            else:
                tail = ""
            texts.append(f"it is used for {tail}." if tail else "")
        return texts

    return prepare_esci(dataset, knowledge_provider=provider)


def test_featurize_shapes(esci):
    extractor = FeatureExtractor(buckets=128)
    bi = RelevanceModel("bi-encoder", True, extractor, seed=0)
    q, p = bi.featurize(esci.train.queries[:4], esci.train.products[:4])
    assert q.shape == (4, 128) and p.shape == (4, 128)
    cross = RelevanceModel("cross-encoder", True, extractor, seed=0)
    joint = cross.featurize(esci.train.queries[:4], esci.train.products[:4])
    assert joint.shape == (4, 3 * 128)
    intent = RelevanceModel("cross-encoder-intent", True, extractor, seed=0)
    enriched = intent.featurize(
        esci.train.queries[:4], esci.train.products[:4], esci.train.knowledge[:4]
    )
    assert enriched.shape == (4, 6 * 128)


def test_intent_architecture_requires_knowledge(esci):
    model = RelevanceModel("cross-encoder-intent", True, FeatureExtractor(128), seed=0)
    with pytest.raises(ValueError):
        model.featurize(["q"], ["p"], None)


def test_unknown_architecture_rejected():
    with pytest.raises(ValueError):
        RelevanceModel("tri-encoder", True, FeatureExtractor(128), seed=0)


def test_fixed_encoder_is_frozen(esci):
    model = RelevanceModel("cross-encoder", False, FeatureExtractor(128), seed=0)
    frozen = [p for p in model.parameters() if not p.requires_grad]
    trainable = model.trainable_parameters()
    assert frozen and trainable
    encoder_weights = model.joint_encoder.weight
    assert not encoder_weights.requires_grad


def test_trainable_encoder_updates_weights(esci):
    model, _ = train_relevance_model(
        esci, "cross-encoder", trainable_encoder=True, epochs=1, seed=0,
        extractor=FeatureExtractor(128),
    )
    assert model.joint_encoder.weight.requires_grad


def test_training_beats_majority_baseline(esci):
    _, result = train_relevance_model(
        esci, "cross-encoder-intent", trainable_encoder=True,
        epochs=6, seed=0, extractor=FeatureExtractor(256),
    )
    labels = esci.test.labels
    majority_micro = max(np.bincount(labels, minlength=4)) / len(labels)
    assert result.micro_f1 > majority_micro
    assert result.macro_f1 > 0.3


def test_results_are_deterministic(esci):
    extractor = FeatureExtractor(128)
    _, first = train_relevance_model(esci, "bi-encoder", True, epochs=1,
                                     seed=7, extractor=extractor)
    _, second = train_relevance_model(esci, "bi-encoder", True, epochs=1,
                                      seed=7, extractor=extractor)
    assert first.macro_f1 == second.macro_f1


def test_kg_knowledge_provider_exposes_type_tails(world, pipeline_result):
    from repro.apps.relevance import kg_knowledge_provider
    from repro.behavior import generate_esci

    provider = kg_knowledge_provider(pipeline_result.kg, pipeline_result.world)
    dataset = generate_esci(pipeline_result.world, locale="US",
                            pairs_per_query=3, max_queries=30, seed=9)
    texts = provider(dataset.train[:20])
    assert len(texts) == 20
    # At least some products have stored knowledge, and no text exceeds
    # the max_tails budget.
    assert any(texts)
    kg_tails = {t.tail for t in pipeline_result.kg.triples()}
    for text in texts:
        if not text:
            continue
        # Every emitted phrase is a real KG tail (possibly several).
        assert any(tail in text for tail in kg_tails)
