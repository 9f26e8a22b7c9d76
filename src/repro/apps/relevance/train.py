"""Training and evaluation harness for the relevance models (§4.1.3-4.1.4)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.relevance.datasets import PreparedESCI, PreparedSplit
from repro.apps.relevance.encoders import FeatureExtractor, RelevanceModel
from repro.apps.relevance.metrics import macro_f1, micro_f1
from repro.nn import Adam, cross_entropy, no_grad, train_epochs
from repro.utils.rng import spawn_rng

__all__ = ["RelevanceResult", "train_relevance_model", "evaluate_model"]

_N_CLASSES = 4
_BATCH_SIZE = 64
_LR = 2e-3


@dataclass(frozen=True)
class RelevanceResult:
    """Scores for one (architecture, regime) cell of Table 6."""

    architecture: str
    trainable_encoder: bool
    macro_f1: float
    micro_f1: float


def train_relevance_model(
    data: PreparedESCI,
    architecture: str,
    trainable_encoder: bool,
    epochs: int,
    seed: int,
    extractor: FeatureExtractor,
) -> tuple[RelevanceModel, RelevanceResult]:
    """Train one model and evaluate it on the locale's test split."""
    model = RelevanceModel(architecture, trainable_encoder, extractor, seed=seed)
    rng = spawn_rng(seed, f"relevance-train:{architecture}:{trainable_encoder}")
    optimizer = Adam(model.trainable_parameters(), lr=_LR)
    train = data.train
    knowledge = train.knowledge if architecture == "cross-encoder-intent" else None
    features = model.featurize(train.queries, train.products, knowledge)

    def loss_of(batch: np.ndarray):
        batch_features = (
            (features[0][batch], features[1][batch])
            if architecture == "bi-encoder"
            else features[batch]
        )
        return cross_entropy(model(batch_features), train.labels[batch])

    train_epochs(model, optimizer, epochs, _BATCH_SIZE,
                 lambda: rng.permutation(len(train)), loss_of, None)
    result = evaluate_model(model, data.test)
    return model, result


def evaluate_model(model: RelevanceModel, split: PreparedSplit) -> RelevanceResult:
    """Macro/Micro F1 of a trained model on a prepared split."""
    knowledge = split.knowledge if model.architecture == "cross-encoder-intent" else None
    features = model.featurize(split.queries, split.products, knowledge)
    with no_grad():
        logits = model(features).numpy()
    predictions = logits.argmax(axis=-1)
    return RelevanceResult(
        architecture=model.architecture,
        trainable_encoder=model.trainable_encoder,
        macro_f1=macro_f1(split.labels, predictions, _N_CLASSES),
        micro_f1=micro_f1(split.labels, predictions, _N_CLASSES),
    )
