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

    Myers' bit-vector algorithm in Hyyrö's Levenshtein form: one column
    of the dynamic program is two bit vectors over the shorter string
    (vertical +1 / -1 deltas, held in Python ints of any width), and
    each character of the longer string advances the column with a
    dozen integer operations.  Exact — the same value as the classic
    O(len(a) * len(b)) table, which the tests keep as the reference.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    match: dict[str, int] = {}      # char → the rows of ``b`` holding it
    for row, char in enumerate(b):
        match[char] = match.get(char, 0) | 1 << row
    rows = (1 << len(b)) - 1
    last = 1 << (len(b) - 1)
    plus, minus, distance = rows, 0, len(b)
    for char in a:
        eq = match.get(char, 0)
        vertical = eq | minus
        horizontal = (((eq & plus) + plus) ^ plus) | eq
        h_plus = minus | ~(horizontal | plus)
        h_minus = plus & horizontal
        if h_plus & last:
            distance += 1
        elif h_minus & last:
            distance -= 1
        # Row 0 of the table counts up by one per character: shift in +1.
        h_plus = h_plus << 1 | 1
        h_minus <<= 1
        plus = (h_minus | ~(vertical | h_plus)) & rows
        minus = h_plus & vertical
    return distance


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
