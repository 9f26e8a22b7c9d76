"""Session-recommendation dataset preparation (§4.2.1, Table 7).

Sessions become (prefix → next item) prediction examples with the §4.2.1
day-based split (days 0-4 train, 5 dev, 6 test).  For COSMO-GNN, each
step also carries the knowledge embedding of its (query, item) pair —
COSMO-LM knowledge vectorized by the shared text encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.behavior.sessions import Session, SessionLog
from repro.embeddings.encoder import TextEncoder

__all__ = ["SessionExample", "SessionDataset", "build_session_dataset"]

PAD_ITEM = 0  # index 0 is reserved for padding


@dataclass(frozen=True)
class SessionExample:
    """One prediction instance: item prefix (+ queries) → next item."""

    items: tuple[int, ...]  # 1-based item indices
    queries: tuple[str, ...]
    target: int


@dataclass
class SessionDataset:
    """Prepared splits plus the item vocabulary."""

    domain: str
    item_to_index: dict[str, int]
    train: list[SessionExample]
    dev: list[SessionExample]
    test: list[SessionExample]
    max_len: int
    knowledge_vectors: dict[tuple[str, int], np.ndarray] = field(default_factory=dict,
                                                                 init=False)

    @property
    def n_items(self) -> int:
        """Item count including the padding slot."""
        return len(self.item_to_index) + 1

    def batch_arrays(self, examples: list[SessionExample]):
        """Pad a list of examples into (items, mask, targets) arrays."""
        width = max(len(e.items) for e in examples)
        items = np.zeros((len(examples), width), dtype=np.int64)
        mask = np.zeros((len(examples), width), dtype=bool)
        targets = np.zeros(len(examples), dtype=np.int64)
        for row, example in enumerate(examples):
            items[row, : len(example.items)] = example.items
            mask[row, : len(example.items)] = True
            targets[row] = example.target
        return items, mask, targets

    def knowledge_matrix(self, examples: list[SessionExample], dim: int) -> np.ndarray:
        """Per-step knowledge vectors aligned with :meth:`batch_arrays`."""
        width = max(len(e.items) for e in examples)
        out = np.zeros((len(examples), width, dim))
        for row, example in enumerate(examples):
            for col, (query, item) in enumerate(zip(example.queries, example.items)):
                vector = self.knowledge_vectors.get((query, item))
                if vector is not None:
                    out[row, col] = vector
        return out


def _examples_from_sessions(
    sessions: list[Session],
    item_to_index: dict[str, int],
    max_len: int,
) -> list[SessionExample]:
    examples: list[SessionExample] = []
    for session in sessions:
        indices = [item_to_index[step.item_id] for step in session.steps]
        queries = [step.query_text for step in session.steps]
        for position in range(1, len(indices)):
            start = max(0, position - max_len)
            examples.append(
                SessionExample(
                    items=tuple(indices[start:position]),
                    queries=tuple(queries[start:position]),
                    target=indices[position],
                )
            )
    return examples


def build_session_dataset(
    log: SessionLog,
    max_len: int,
    knowledge_provider=None,
    encoder: TextEncoder | None = None,
) -> SessionDataset:
    """Prepare one domain's dataset from its session log.

    ``knowledge_provider(query_text, item_id) -> str`` supplies COSMO
    knowledge per (query, item) step; with ``encoder`` set, each unique
    pair is vectorized once into ``knowledge_vectors``.
    """
    item_ids = sorted({step.item_id for session in log.sessions for step in session.steps})
    item_to_index = {item: index + 1 for index, item in enumerate(item_ids)}
    train = _examples_from_sessions(log.by_day({0, 1, 2, 3, 4}), item_to_index, max_len)
    dev = _examples_from_sessions(log.by_day({5}), item_to_index, max_len)
    test = _examples_from_sessions(log.by_day({6}), item_to_index, max_len)
    dataset = SessionDataset(
        domain=log.domain,
        item_to_index=item_to_index,
        train=train,
        dev=dev,
        test=test,
        max_len=max_len,
    )
    if knowledge_provider is not None and encoder is not None:
        unique_pairs = {
            (query, item)
            for split in (train, dev, test)
            for example in split
            for query, item in zip(example.queries, example.items)
        }
        index_to_item = {index: item for item, index in item_to_index.items()}
        pairs = sorted(unique_pairs)
        texts = [knowledge_provider(query, index_to_item[item])
                 for query, item in pairs]
        vectors = encoder.encode_batch(texts)
        for pair, vector in zip(pairs, vectors):
            dataset.knowledge_vectors[pair] = vector
    return dataset
