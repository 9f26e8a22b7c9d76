"""Shared low-level utilities: seeded randomness and text processing."""

from repro.utils.rng import spawn_rng
from repro.utils.textproc import (
    edit_distance,
    entropy,
    sentence_split,
    tokenize_words,
)

__all__ = [
    "spawn_rng",
    "edit_distance",
    "entropy",
    "sentence_split",
    "tokenize_words",
]
