"""Feature hashing: text → sparse bag-of-n-grams in a fixed-width space."""

from __future__ import annotations

import hashlib

import numpy as np

from repro.utils.textproc import tokenize_words

__all__ = ["hash_token", "hashed_bow"]


def hash_token(token: str, buckets: int, salt: str = "") -> int:
    """Stable bucket index for a token (md5-based, salt-scoped)."""
    digest = hashlib.md5(f"{salt}\x00{token}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % buckets


def hashed_bow(text: str, buckets: int, salt: str = "") -> np.ndarray:
    """Hashed bag-of-words (plus bigrams) vector, L2-normalized.

    Deterministic, vocabulary-free featurization: the backbone of the
    embedding service and of the fixed relevance encoders.
    """
    vector = np.zeros(buckets)
    tokens = tokenize_words(text)
    for token in tokens:
        vector[hash_token(token, buckets, salt)] += 1.0
    for left, right in zip(tokens, tokens[1:]):
        vector[hash_token(f"{left}_{right}", buckets, salt)] += 1.0
    norm = np.linalg.norm(vector)
    if norm > 0:
        vector /= norm
    return vector
