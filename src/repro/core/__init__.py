"""The COSMO core: relations, sampling, generation, refinement,
annotation sampling, critics, instruction tuning, KG assembly, and the
end-to-end pipeline (paper §3).

Exports are resolved lazily (PEP 562): leaf modules such as
``core.relations`` are imported by the catalog/behavior substrates, so an
eager ``__init__`` here would create an import cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "Relation": "repro.core.relations",
    "TailType": "repro.core.relations",
    "RELATION_SPECS": "repro.core.relations",
    "SEED_RELATIONS": "repro.core.relations",
    "parse_predicate": "repro.core.relations",
    "relations_for_tail_type": "repro.core.relations",
    "verbalize": "repro.core.relations",
    "BehaviorSample": "repro.core.triples",
    "KnowledgeCandidate": "repro.core.triples",
    "KnowledgeTriple": "repro.core.triples",
    "BehaviorPrompt": "repro.core.prompts",
    "cobuy_prompt": "repro.core.prompts",
    "searchbuy_prompt": "repro.core.prompts",
    "SamplingConfig": "repro.core.sampling",
    "sample_products": "repro.core.sampling",
    "sample_cobuy": "repro.core.sampling",
    "sample_searchbuy": "repro.core.sampling",
    "build_prompt": "repro.core.generation",
    "generate_candidates": "repro.core.generation",
    "FilterConfig": "repro.core.filtering",
    "FilterReport": "repro.core.filtering",
    "KnowledgeFilter": "repro.core.filtering",
    "build_reference_lm": "repro.core.filtering",
    "reweight_candidates": "repro.core.annotation_sampling",
    "sample_for_annotation": "repro.core.annotation_sampling",
    "CriticClassifier": "repro.core.critic",
    "InstructionExample": "repro.core.instructions",
    "InstructionDataset": "repro.core.instructions",
    "build_instruction_dataset": "repro.core.instructions",
    "CosmoLM": "repro.core.cosmo_lm",
    "CosmoLMConfig": "repro.core.cosmo_lm",
    "KnowledgeQuality": "repro.core.cosmo_lm",
    "RelationDiscovery": "repro.core.relation_discovery",
    "DiscoveredRelation": "repro.core.relation_discovery",
    "KnowledgeGraph": "repro.core.kg",
    "KGStats": "repro.core.kg",
    "CosmoPipeline": "repro.core.pipeline",
    "FolkScopeConfig": "repro.core.folkscope",
    "FolkScopeResult": "repro.core.folkscope",
    "FolkScopePipeline": "repro.core.folkscope",
    "save_kg": "repro.core.kg_io",
    "save_kg_columnar": "repro.core.kg_io",
    "load_kg_columnar": "repro.core.kg_io",
    "PipelineConfig": "repro.core.pipeline",
    "PipelineResult": "repro.core.pipeline",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
