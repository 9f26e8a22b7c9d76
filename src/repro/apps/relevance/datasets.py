"""ESCI dataset preparation for the relevance models (§4.1.1, Table 5).

Bridges the behavior-level :class:`~repro.behavior.esci.ESCIDataset` into
model-ready arrays, including the COSMO knowledge texts generated for
each (query, product) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.behavior.esci import ESCI_LABELS, ESCIDataset, ESCIExample

__all__ = ["LABEL_TO_ID", "PreparedSplit", "PreparedESCI", "prepare_esci"]

LABEL_TO_ID: dict[str, int] = {label: index for index, label in enumerate(ESCI_LABELS)}


@dataclass
class PreparedSplit:
    """Texts and labels for one split."""

    queries: list[str]
    products: list[str]
    knowledge: list[str]
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.queries)


@dataclass
class PreparedESCI:
    """Model-ready train/test splits for one locale."""

    locale: str
    train: PreparedSplit
    test: PreparedSplit


_PROVIDER_BATCH = 128       # examples per knowledge-provider call


def _prepare_split(examples: list[ESCIExample], knowledge_provider) -> PreparedSplit:
    queries = [e.query_text for e in examples]
    products = [e.product_title for e in examples]
    labels = np.array([LABEL_TO_ID[e.label] for e in examples], dtype=np.int64)
    knowledge: list[str] = []
    if knowledge_provider is not None:
        for start in range(0, len(examples), _PROVIDER_BATCH):
            chunk = examples[start : start + _PROVIDER_BATCH]
            knowledge.extend(knowledge_provider(chunk))
    else:
        knowledge = [""] * len(examples)
    return PreparedSplit(queries=queries, products=products, knowledge=knowledge, labels=labels)


def prepare_esci(
    dataset: ESCIDataset,
    knowledge_provider=None,
) -> PreparedESCI:
    """Prepare one locale's dataset.

    ``knowledge_provider`` takes a list of :class:`ESCIExample` and
    returns one knowledge string per example (usually a batched COSMO-LM
    call); ``None`` leaves knowledge empty (for the baselines).
    """
    return PreparedESCI(
        locale=dataset.locale,
        train=_prepare_split(dataset.train, knowledge_provider),
        test=_prepare_split(dataset.test, knowledge_provider),
    )


def kg_knowledge_provider(kg, world):
    """Knowledge provider backed by the built knowledge graph.

    This is the deployed path of Figure 5: downstream applications read
    *stored* knowledge features, not fresh generations.  For each
    product, the tails of KG edges whose head products share its product
    type are ranked by plausibility-weighted support and the top four
    concatenated — exposing the product's full intent pool where a
    single greedy generation covers only one facet.
    """
    from collections import defaultdict

    type_tails: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for triple in kg.triples():
        for product_id in triple.head_ids:
            if product_id in world.catalog:
                ptype = world.catalog.get(product_id).product_type
                type_tails[ptype][triple.tail] += triple.plausibility * triple.support

    def provide(examples: list[ESCIExample]) -> list[str]:
        texts = []
        for example in examples:
            product = world.catalog.get(example.product_id)
            ranked = sorted(
                type_tails.get(product.product_type, {}).items(),
                key=lambda item: -item[1],
            )[:4]
            texts.append(" ".join(tail for tail, _ in ranked))
        return texts

    return provide
