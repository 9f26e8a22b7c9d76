"""Lightweight text processing used across the pipeline.

The paper's refinement stage (§3.3.1) relies on sentence segmentation
(`nltk` in the paper), edit distance against the behavior context, and a
frequency/entropy test for generic tails.  These helpers implement those
primitives from scratch with no external NLP dependency.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable

__all__ = [
    "tokenize_words",
    "sentence_split",
    "edit_distance",
    "normalized_edit_distance",
    "entropy",
]

_WORD_RE = re.compile(r"[a-z0-9]+(?:'[a-z]+)?")
_SENTENCE_END_RE = re.compile(r"(?<=[.!?])\s+")


def tokenize_words(text: str) -> list[str]:
    """Split ``text`` into lowercase word tokens (letters, digits, 's)."""
    return _WORD_RE.findall(text.lower())


def sentence_split(text: str) -> list[str]:
    """Split ``text`` into sentences on terminal punctuation.

    A minimal stand-in for ``nltk.sent_tokenize`` sufficient for the
    candidate texts the teacher LLM emits: sentences end with ``.``, ``!``
    or ``?`` followed by whitespace.  Trailing fragments without terminal
    punctuation are returned as the last element so callers can detect
    incomplete generations.
    """
    text = text.strip()
    if not text:
        return []
    parts = _SENTENCE_END_RE.split(text)
    return [part.strip() for part in parts if part.strip()]


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance between ``a`` and ``b``.

    Classic two-row dynamic program; O(len(a) * len(b)) time, O(min) space.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            current.append(
                min(
                    previous[j] + 1,  # deletion
                    current[j - 1] + 1,  # insertion
                    previous[j - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]


def normalized_edit_distance(a: str, b: str) -> float:
    """Edit distance scaled to [0, 1] by the longer string's length."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return edit_distance(a, b) / longest


def entropy(counts: Iterable[int]) -> float:
    """Shannon entropy (nats) of a count distribution.

    Zero counts are ignored; an empty or all-zero input has entropy 0.
    """
    values = [c for c in counts if c > 0]
    total = sum(values)
    if total == 0:
        return 0.0
    result = 0.0
    for count in values:
        p = count / total
        result -= p * math.log(p)
    return result
