"""Relevance model architectures (§4.1.2, Figure 6).

* **Bi-encoder** — query and product are encoded by separate towers; the
  head sees only the concatenated tower outputs (no interaction terms).
* **Cross-encoder** — one joint encoder over all features, including
  elementwise query×product interaction features (the "extra attention
  interactions" that make cross-encoders win).
* **Cross-encoder w/ Intent** — the cross-encoder with COSMO knowledge
  features appended: the knowledge text's hashed vector plus its
  interactions with the query and the product, which is how generated
  intentions bridge the query↔product semantic gap.

Each architecture supports the paper's two regimes: *fixed* encoder
(frozen random projection, only the MLP head trains — the stand-in for a
frozen pretrained deberta) and *trainable* encoder (the projection layer
trains too).
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.hashing import hashed_bow
from repro.nn import MLP, Linear, Module, Tensor
from repro.utils.rng import spawn_rng

__all__ = ["FeatureExtractor", "RelevanceModel", "ARCHITECTURES"]

ARCHITECTURES: tuple[str, ...] = ("bi-encoder", "cross-encoder", "cross-encoder-intent")

_N_CLASSES = 4
_ENCODER_DIM = 96
_HEAD_HIDDEN = 64


class FeatureExtractor:
    """Hashed bag-of-n-grams featurization for (query, product, knowledge).

    Bi-encoder towers use *separate* hash salts (the towers cannot
    interact anyway); the cross-encoder family uses one *shared* salt so
    elementwise products of feature vectors are genuine token-overlap
    interaction features — including the knowledge↔query overlap that
    carries the intent bridge.
    """

    def __init__(self, buckets: int):
        self.buckets = buckets
        self._cache: dict[tuple[str, str], np.ndarray] = {}

    def _bow(self, text: str, salt: str) -> np.ndarray:
        key = (salt, text)
        cached = self._cache.get(key)
        if cached is None:
            cached = hashed_bow(text, buckets=self.buckets, salt=salt)
            if len(self._cache) > 200_000:
                self._cache.clear()
            self._cache[key] = cached
        return cached

    def query(self, text: str) -> np.ndarray:
        """Query-tower features (bi-encoder side)."""
        return self._bow(text, "query")

    def product(self, text: str) -> np.ndarray:
        """Product-tower features (bi-encoder side)."""
        return self._bow(text, "product")

    def joint(self, text: str) -> np.ndarray:
        """Shared-salt features for cross-encoder interaction terms."""
        return self._bow(text, "joint")


class RelevanceModel(Module):
    """One architecture × encoder-regime relevance classifier."""

    def __init__(
        self,
        architecture: str,
        trainable_encoder: bool,
        extractor: FeatureExtractor,
        seed: int,
    ):
        super().__init__()
        if architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {architecture!r}")
        self.architecture = architecture
        self.trainable_encoder = trainable_encoder
        self.extractor = extractor
        rng = spawn_rng(seed, f"relevance:{architecture}:{trainable_encoder}")
        buckets = extractor.buckets
        if architecture == "bi-encoder":
            self.query_encoder = Linear(buckets, _ENCODER_DIM, rng)
            self.product_encoder = Linear(buckets, _ENCODER_DIM, rng)
            head_in = 2 * _ENCODER_DIM
        else:
            joint_in = self._joint_dim(buckets)
            self.joint_encoder = Linear(joint_in, _ENCODER_DIM, rng)
            # Overlap-summary scalars (Σ q·p, and with intent Σ g·q, Σ g·p)
            # bypass the encoder: a pretrained encoder exposes text
            # similarity even when frozen, and these scalars play that
            # role for the frozen random projection.
            head_in = _ENCODER_DIM + self._n_summaries()
        self.head = MLP([head_in, _HEAD_HIDDEN, _N_CLASSES], rng)
        if not trainable_encoder:
            self._freeze_encoders()

    def _joint_dim(self, buckets: int) -> int:
        if self.architecture == "cross-encoder":
            # [q, p, q*p]
            return 3 * buckets
        # [q, p, g, q*p, g*q, g*p]
        return 6 * buckets

    def _n_summaries(self) -> int:
        return 1 if self.architecture == "cross-encoder" else 3

    def _freeze_encoders(self) -> None:
        frozen = []
        if self.architecture == "bi-encoder":
            frozen = [self.query_encoder, self.product_encoder]
        else:
            frozen = [self.joint_encoder]
        for module in frozen:
            for param in module.parameters():
                param.requires_grad = False

    def trainable_parameters(self):
        return [p for p in self.parameters() if p.requires_grad]

    # ------------------------------------------------------------------
    def featurize(
        self,
        queries: list[str],
        products: list[str],
        knowledge: list[str] | None = None,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Raw feature matrices for a batch."""
        q = np.stack([self.extractor.query(text) for text in queries])
        p = np.stack([self.extractor.product(text) for text in products])
        if self.architecture == "bi-encoder":
            return q, p
        jq = np.stack([self.extractor.joint(text) for text in queries])
        jp = np.stack([self.extractor.joint(text) for text in products])
        if self.architecture == "cross-encoder-intent":
            if knowledge is None:
                raise ValueError("intent architecture requires knowledge texts")
            jg = np.stack([self.extractor.joint(text) for text in knowledge])
            blocks = [jq, jp, jg, jq * jp, jg * jq, jg * jp]
        else:
            blocks = [jq, jp, jq * jp]
        return np.concatenate(blocks, axis=1)

    def forward(self, features) -> Tensor:
        """Encode (frozen or trainable) and classify into the 4 labels."""
        if self.architecture == "bi-encoder":
            q, p = features
            encoded = Tensor.concat(
                [self.query_encoder(Tensor(q)).tanh(), self.product_encoder(Tensor(p)).tanh()])
            return self.head(encoded)
        buckets = self.extractor.buckets
        encoded = self.joint_encoder(Tensor(features)).tanh()
        # Interaction blocks start after the raw text blocks.
        n_text = 2 if self.architecture == "cross-encoder" else 3
        summaries = np.stack(
            [
                features[:, (n_text + i) * buckets : (n_text + i + 1) * buckets].sum(axis=1)
                for i in range(self._n_summaries())
            ],
            axis=1,
        )
        encoded = Tensor.concat([encoded, Tensor(np.tanh(4.0 * summaries))])
        return self.head(encoded)
