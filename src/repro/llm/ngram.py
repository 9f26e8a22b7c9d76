"""Interpolated n-gram language model (the GPT-2 perplexity stand-in).

§3.3.1 filters incomplete generations by thresholding GPT-2 perplexity.
We train this model on well-formed knowledge sentences; truncated or
word-salad candidates then score high perplexity, which is the only
property the filter needs.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable

from repro.utils.textproc import tokenize_words

__all__ = ["NGramLanguageModel"]

_BOS = "<s>"
_EOS = "</s>"
ORDER = 3
ADD_K = 0.1
INTERPOLATION = (0.2, 0.3, 0.5)     #: unigram, bigram, trigram weights; sums to 1


class NGramLanguageModel:
    """Interpolated unigram/bigram/trigram LM with add-k smoothing."""

    def __init__(self):
        self._counts: list[Counter[tuple[str, ...]]] = [Counter() for _ in range(ORDER)]
        self._context_counts: list[Counter[tuple[str, ...]]] = [Counter() for _ in range(ORDER)]
        self._vocab: set[str] = set()
        self._fitted = False

    def fit(self, corpus: Iterable[str]) -> "NGramLanguageModel":
        """Count n-grams over ``corpus`` sentences."""
        for sentence in corpus:
            tokens = self._pad(tokenize_words(sentence))
            self._vocab.update(tokens)
            for n in range(1, ORDER + 1):
                for i in range(len(tokens) - n + 1):
                    gram = tuple(tokens[i : i + n])
                    self._counts[n - 1][gram] += 1
                    self._context_counts[n - 1][gram[:-1]] += 1
        self._fitted = True
        return self

    def _pad(self, tokens: list[str]) -> list[str]:
        return [_BOS] * (ORDER - 1) + tokens + [_EOS]

    def _ngram_prob(self, gram: tuple[str, ...]) -> float:
        n = len(gram)
        count = self._counts[n - 1][gram]
        context = self._context_counts[n - 1][gram[:-1]]
        vocab_size = max(len(self._vocab), 1)
        return (count + ADD_K) / (context + ADD_K * vocab_size)

    def log_prob(self, text: str) -> float:
        """Total interpolated log probability (natural log) of ``text``."""
        if not self._fitted:
            raise RuntimeError("fit() must be called before scoring")
        tokens = self._pad(tokenize_words(text))
        total = 0.0
        for i in range(ORDER - 1, len(tokens)):
            prob = 0.0
            for n in range(1, ORDER + 1):
                gram = tuple(tokens[i - n + 1 : i + 1])
                prob += INTERPOLATION[n - 1] * self._ngram_prob(gram)
            total += math.log(max(prob, 1e-12))
        return total

    def perplexity(self, text: str) -> float:
        """Per-token perplexity; higher means less well-formed."""
        tokens = tokenize_words(text)
        if not tokens:
            return float("inf")
        # +1 accounts for the </s> transition, which is what penalizes
        # sentences cut off mid-phrase.
        return math.exp(-self.log_prob(text) / (len(tokens) + 1))
