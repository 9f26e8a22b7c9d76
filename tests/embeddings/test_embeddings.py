"""Embedding service: determinism, normalization, similarity semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings import TextEncoder, hashed_bow
from repro.embeddings.hashing import hash_token


def test_hash_token_stable_and_salted():
    assert hash_token("camping", 1024) == hash_token("camping", 1024)
    assert hash_token("camping", 1024, salt="q") != hash_token("camping", 1024, salt="p") or True
    # Different salts *may* collide for one token but not for many:
    collisions = sum(
        hash_token(f"word{i}", 4096, salt="a") == hash_token(f"word{i}", 4096, salt="b")
        for i in range(200)
    )
    assert collisions < 10


def test_hashed_bow_unit_norm_and_deterministic():
    a = hashed_bow("winter camping gear", 2048)
    b = hashed_bow("winter camping gear", 2048)
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0)


def test_hashed_bow_empty_text_is_zero():
    assert np.linalg.norm(hashed_bow("", 2048)) == 0.0


def test_encoder_lexical_overlap_beats_disjoint():
    encoder = TextEncoder(seed=0)
    overlap = encoder.similarity("winter camping tent", "tent for winter camping")
    disjoint = encoder.similarity("winter camping tent", "acoustic guitar strings")
    assert overlap > disjoint
    assert overlap > 0.3


def test_encoder_identical_text_similarity_one():
    encoder = TextEncoder(seed=0)
    assert encoder.similarity("dog leash", "dog leash") == pytest.approx(1.0)


def test_encoder_batch_matches_single():
    encoder = TextEncoder(seed=0)
    batch = encoder.encode_batch(["a b", "c d"])
    assert np.allclose(batch[0], encoder.encode("a b"))
    assert batch.shape == (2, encoder.dim)
    assert encoder.encode_batch([]).shape == (0, encoder.dim)


def test_encoder_cache_returns_same_array():
    encoder = TextEncoder(seed=0)
    first = encoder.encode("cached text")
    second = encoder.encode("cached text")
    assert first is second


@given(st.text(alphabet="abcdef ", min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_encoder_output_unit_or_zero(text):
    encoder = TextEncoder(seed=1)
    norm = np.linalg.norm(encoder.encode(text))
    assert norm == pytest.approx(1.0) or norm == 0.0
