"""Search relevance application (§4.1): ESCI classification with and
without COSMO intention knowledge."""

from repro.apps.relevance.datasets import (
    LABEL_TO_ID,
    PreparedESCI,
    PreparedSplit,
    kg_knowledge_provider,
    prepare_esci,
)
from repro.apps.relevance.encoders import ARCHITECTURES, FeatureExtractor, RelevanceModel
from repro.apps.relevance.metrics import f1_scores, macro_f1, micro_f1
from repro.apps.relevance.train import RelevanceResult, evaluate_model, train_relevance_model

__all__ = [
    "LABEL_TO_ID",
    "PreparedESCI",
    "PreparedSplit",
    "prepare_esci",
    "kg_knowledge_provider",
    "ARCHITECTURES",
    "FeatureExtractor",
    "RelevanceModel",
    "f1_scores",
    "macro_f1",
    "micro_f1",
    "RelevanceResult",
    "train_relevance_model",
    "evaluate_model",
]
