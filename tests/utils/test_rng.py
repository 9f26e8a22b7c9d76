"""Determinism and independence of the seeded RNG streams."""

import numpy as np

from repro.utils.rng import spawn_rng


def test_same_seed_scope_is_deterministic():
    a = spawn_rng(42, "alpha").random(8)
    b = spawn_rng(42, "alpha").random(8)
    assert np.array_equal(a, b)


def test_different_scopes_differ():
    a = spawn_rng(42, "alpha").random(8)
    b = spawn_rng(42, "beta").random(8)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = spawn_rng(1, "alpha").random(8)
    b = spawn_rng(2, "alpha").random(8)
    assert not np.array_equal(a, b)


def test_empty_scope_matches_plain_seed():
    a = spawn_rng(7).random(4)
    b = spawn_rng(7, "").random(4)
    assert np.array_equal(a, b)
