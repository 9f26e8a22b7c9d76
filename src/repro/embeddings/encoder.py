"""Dense text encoder: the "in-house language model pretrained on the
e-commerce corpus" the paper uses for similarity filtering (Eq. 1) and
for vectorizing COSMO knowledge in COSMO-GNN (§4.2.3).

Implementation: hashed bag-of-n-grams followed by a seeded random
projection.  Lexical overlap ⇒ high cosine, which is the only property
the similarity filter needs, and the projection gives compact dense
vectors for downstream models.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.hashing import hashed_bow
from repro.utils.rng import spawn_rng

__all__ = ["TextEncoder"]


#: Texts cached before the cache is cleared and refilled.
_CACHE_SIZE = 50_000
_BUCKETS = 2048     # width of the hashed bag-of-n-grams the projection reads


class TextEncoder:
    """Deterministic text → dense-vector encoder with an LRU-ish cache."""

    def __init__(self, dim: int = 64, seed: int = 0):
        self.dim = dim
        rng = spawn_rng(seed, "text-encoder")
        # Sparse random projection: dense Gaussian is fine at this width.
        self._projection = rng.normal(size=(_BUCKETS, dim)) / np.sqrt(dim)
        self._cache: dict[str, np.ndarray] = {}

    def encode(self, text: str) -> np.ndarray:
        """Dense unit-norm vector for ``text``."""
        cached = self._cache.get(text)
        if cached is not None:
            return cached
        bow = hashed_bow(text, buckets=_BUCKETS)
        dense = bow @ self._projection
        norm = np.linalg.norm(dense)
        if norm > 0:
            dense = dense / norm
        if len(self._cache) >= _CACHE_SIZE:
            self._cache.clear()
        self._cache[text] = dense
        return dense

    def encode_batch(self, texts: list[str]) -> np.ndarray:
        """Encode many texts; returns an (n, dim) matrix.

        Uncached texts are encoded through one stacked projection
        (matrix–matrix instead of ``n`` vector–matrix products); cache
        hits are reused as-is.  Row values can differ from sequential
        :meth:`encode` calls only by floating-point summation order —
        direction and norms are the same.
        """
        if not texts:
            return np.zeros((0, self.dim))
        rows: list[np.ndarray | None] = [self._cache.get(text) for text in texts]
        missing = [index for index, row in enumerate(rows) if row is None]
        if missing:
            # Distinct misses only: duplicate texts project once.
            order: dict[str, int] = {}
            for index in missing:
                order.setdefault(texts[index], len(order))
            bows = np.stack([hashed_bow(text, buckets=_BUCKETS) for text in order])
            dense = bows @ self._projection
            norms = np.linalg.norm(dense, axis=1, keepdims=True)
            dense = dense / np.where(norms > 0, norms, 1.0)
            for text, row in zip(order, dense):
                if len(self._cache) >= _CACHE_SIZE:
                    self._cache.clear()
                self._cache[text] = row
            for index in missing:
                rows[index] = self._cache[texts[index]]
        return np.stack(rows)

    def similarity(self, text_a: str, text_b: str) -> float:
        """Cosine similarity in embedding space (Eq. 1)."""
        return float(self.encode(text_a) @ self.encode(text_b))
