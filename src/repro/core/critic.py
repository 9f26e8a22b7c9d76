"""Critic classifiers populating human judgments at scale (§3.3.2).

The paper finetunes DeBERTa-large on the ~30k annotations and scores all
candidates, keeping those with plausibility > 0.5.  Here the critic is an
MLP over embedding features of the behavior context and the knowledge
tail, trained on the simulated annotations, with the same role and the
same 0.5 keep-threshold.
"""

from __future__ import annotations

import numpy as np

from repro.annotation.schema import AnnotationResult
from repro.core.relations import Relation
from repro.core.triples import KnowledgeCandidate
from repro.embeddings.encoder import TextEncoder
from repro.nn import MLP, Adam, Tensor, binary_cross_entropy_with_logits, no_grad, train_epochs
from repro.utils.rng import spawn_rng
from repro.utils.textproc import tokenize_words

__all__ = ["CriticClassifier"]

_RELATIONS = list(Relation)


# Training hyperparameters.
_HIDDEN = 64
_EPOCHS = 30
_BATCH_SIZE = 64
_LR = 3e-3
#: §3.3.2's critic cut-off: a candidate scored above it is populated.
KEEP_THRESHOLD = 0.5


class CriticClassifier:
    """Joint plausibility/typicality scorer for knowledge candidates."""

    def __init__(self, encoder: TextEncoder, seed: int = 0):
        self.encoder = encoder
        rng = spawn_rng(seed, "critic")
        # Head parts are embedded separately (query vs product, or the two
        # co-bought products) so the critic can see whether the tail
        # relates to *both* sides — the signal separating typical from
        # one-sided knowledge.
        feature_dim = encoder.dim * 3 + 4 + len(_RELATIONS)
        self.model = MLP([feature_dim, _HIDDEN, 2], rng)
        self._train_rng = spawn_rng(seed, "critic-train")
        self._fitted = False

    # ------------------------------------------------------------------
    def featurize(self, candidate: KnowledgeCandidate) -> np.ndarray:
        """Embedding + lexical features for one candidate."""
        parts = candidate.sample.head_text.split(" ||| ")
        part_a = self.encoder.encode(parts[0])
        part_b = self.encoder.encode(parts[-1])
        tail = candidate.tail or candidate.text
        tail_vec = self.encoder.encode(tail)
        cos_a = float(part_a @ tail_vec)
        cos_b = float(part_b @ tail_vec)
        tail_len = min(len(tokenize_words(tail)) / 10.0, 1.0)
        relation_onehot = np.zeros(len(_RELATIONS))
        if candidate.relation is not None:
            relation_onehot[_RELATIONS.index(candidate.relation)] = 1.0
        return np.concatenate(
            [part_a, part_b, tail_vec,
             [cos_a, cos_b, min(cos_a, cos_b), tail_len],
             relation_onehot]
        )

    def _features(self, candidates: list[KnowledgeCandidate]) -> np.ndarray:
        return np.stack([self.featurize(c) for c in candidates])

    # ------------------------------------------------------------------
    def fit(
        self,
        candidates: list[KnowledgeCandidate],
        annotations: list[AnnotationResult],
    ) -> list[float]:
        """Train on annotated candidates; returns per-epoch losses."""
        if len(candidates) != len(annotations):
            raise ValueError("candidates and annotations must align")
        features = self._features(candidates)
        labels = np.array(
            [[float(a.plausible), float(a.typical)] for a in annotations]
        )
        losses = train_epochs(
            self.model, Adam(self.model.parameters(), lr=_LR), _EPOCHS, _BATCH_SIZE,
            lambda: self._train_rng.permutation(len(candidates)),
            lambda batch: binary_cross_entropy_with_logits(
                self.model(Tensor(features[batch])), labels[batch]),
            None,
        )
        self._fitted = True
        return losses

    # ------------------------------------------------------------------
    def score(self, candidates: list[KnowledgeCandidate]) -> np.ndarray:
        """(n, 2) array of [plausibility, typicality] probabilities."""
        if not self._fitted:
            raise RuntimeError("critic must be fit before scoring")
        if not candidates:
            return np.zeros((0, 2))
        with no_grad():
            logits = self.model(Tensor(self._features(candidates))).numpy()
        return 1.0 / (1.0 + np.exp(-logits))

    def populate(self, candidates: list[KnowledgeCandidate]) -> list[KnowledgeCandidate]:
        """Attach scores in place; returns candidates above threshold."""
        scores = self.score(candidates)
        kept: list[KnowledgeCandidate] = []
        for candidate, (plausibility, typicality) in zip(candidates, scores):
            candidate.plausibility_score = float(plausibility)
            candidate.typicality_score = float(typicality)
            if plausibility > KEEP_THRESHOLD:
                kept.append(candidate)
        return kept

    def accuracy(
        self,
        candidates: list[KnowledgeCandidate],
        annotations: list[AnnotationResult],
    ) -> dict[str, float]:
        """Held-out accuracy for both heads."""
        scores = self.score(candidates)
        plaus_true = np.array([a.plausible for a in annotations])
        typ_true = np.array([a.typical for a in annotations])
        return {
            "plausibility": float(((scores[:, 0] > 0.5) == plaus_true).mean()),
            "typicality": float(((scores[:, 1] > 0.5) == typ_true).mean()),
        }
