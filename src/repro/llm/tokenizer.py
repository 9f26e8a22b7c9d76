"""Word-level tokenizer with special tokens for the student LM."""

from __future__ import annotations

import json
import pathlib
from collections import Counter
from collections.abc import Iterable

from repro.utils.textproc import tokenize_words

__all__ = ["Tokenizer"]


class Tokenizer:
    """Word-level vocabulary with PAD/BOS/EOS/SEP/UNK specials.

    Built once from a corpus via :meth:`fit`; encoding maps out-of-vocab
    words to UNK so the student LM degrades gracefully on novel text.
    """

    PAD = "<pad>"
    BOS = "<bos>"
    EOS = "<eos>"
    SEP = "<sep>"
    UNK = "<unk>"
    SPECIALS = (PAD, BOS, EOS, SEP, UNK)

    def __init__(self):
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: list[str] = []
        for token in self.SPECIALS:
            self._add(token)

    def _add(self, token: str) -> int:
        if token not in self._token_to_id:
            self._token_to_id[token] = len(self._id_to_token)
            self._id_to_token.append(token)
        return self._token_to_id[token]

    # ------------------------------------------------------------------
    @property
    def pad_id(self) -> int:
        return self._token_to_id[self.PAD]

    @property
    def bos_id(self) -> int:
        return self._token_to_id[self.BOS]

    @property
    def eos_id(self) -> int:
        return self._token_to_id[self.EOS]

    @property
    def sep_id(self) -> int:
        return self._token_to_id[self.SEP]

    @property
    def unk_id(self) -> int:
        return self._token_to_id[self.UNK]

    def __len__(self) -> int:
        return len(self._id_to_token)

    # ------------------------------------------------------------------
    def fit(self, corpus: Iterable[str]) -> "Tokenizer":
        """Build the vocabulary from an iterable of texts: every word,
        most frequent first."""
        counts: Counter[str] = Counter()
        for text in corpus:
            counts.update(tokenize_words(text))
        for token, _count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
            self._add(token)
        return self

    def encode(self, text: str) -> list[int]:
        """Token ids for ``text`` (unknown words → UNK)."""
        return [self._token_to_id.get(tok, self.unk_id) for tok in tokenize_words(text)]

    def decode(self, ids: Iterable[int]) -> str:
        """Text for a sequence of token ids, special tokens dropped."""
        tokens = [self._id_to_token[int(token_id)] for token_id in ids]
        return " ".join(token for token in tokens if token not in self.SPECIALS)

    def token(self, token_id: int) -> str:
        return self._id_to_token[int(token_id)]

    def id_of(self, token: str) -> int:
        """Id of a known token (raises KeyError for unknown tokens)."""
        return self._token_to_id[token]

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    # ------------------------------------------------------------------
    def save(self, path: str | pathlib.Path) -> None:
        """Persist the vocabulary as JSON."""
        payload = {"format": "cosmo-tokenizer", "tokens": self._id_to_token}
        pathlib.Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "Tokenizer":
        """Restore a tokenizer written by :meth:`save`."""
        payload = json.loads(pathlib.Path(path).read_text())
        if payload.get("format") != "cosmo-tokenizer":
            raise ValueError(f"{path}: not a tokenizer file")
        tokens = payload["tokens"]
        if tokens[: len(cls.SPECIALS)] != list(cls.SPECIALS):
            raise ValueError(f"{path}: special tokens corrupted")
        tokenizer = cls()
        for token in tokens[len(cls.SPECIALS):]:
            tokenizer._add(token)
        return tokenizer
