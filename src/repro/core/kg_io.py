"""Knowledge-graph persistence: JSON Lines and columnar serialization.

The production system materializes the KG for downstream consumers; this
module provides the equivalent dump/load so a built graph can be shipped
without re-running the pipeline.  Two formats:

* **JSON Lines** (:func:`save_kg` / :func:`load_kg`) — one JSON object
  per line, streamable and diff-friendly; the interchange format.
* **Columnar npz** (:func:`save_kg_columnar` / :func:`load_kg_columnar`)
  — the graph's columnar form (id columns + intern tables) written
  directly, no per-edge JSON traffic; loading hands the arrays to
  :meth:`KnowledgeGraph.from_columns`, which adopts and validates them
  wholesale.  The hot-path format for snapshots and large graphs.
"""

from __future__ import annotations

import json
import pathlib
from itertools import islice

import numpy as np

from repro.core.kg import KnowledgeGraph
from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple

__all__ = [
    "save_kg",
    "load_kg",
    "save_kg_columnar",
    "load_kg_columnar",
    "triple_to_record",
    "record_to_triple",
]

_FORMAT_VERSION = 1
_COLUMNAR_FORMAT = "cosmo-kg-columnar"
_COLUMNAR_VERSION = 1
_NUMERIC_COLUMNS = ("head", "relation", "tail", "domain", "behavior",
                    "plausibility", "typicality", "support")
_TABLE_COLUMNS = ("nodes", "relations", "domains", "behaviors")


def triple_to_record(triple: KnowledgeTriple) -> dict:
    """A JSON-serializable record for one triple."""
    return {
        "head": triple.head,
        "relation": triple.relation.value,
        "tail": triple.tail,
        "domain": triple.domain,
        "behavior": triple.behavior,
        "plausibility": round(triple.plausibility, 6),
        "typicality": round(triple.typicality, 6),
        "support": triple.support,
        "head_ids": list(triple.head_ids),
    }


def record_to_triple(record: dict) -> KnowledgeTriple:
    """Inverse of :func:`triple_to_record` (validates the relation)."""
    return KnowledgeTriple(
        head=record["head"],
        relation=Relation(record["relation"]),
        tail=record["tail"],
        domain=record["domain"],
        behavior=record["behavior"],
        plausibility=float(record["plausibility"]),
        typicality=float(record["typicality"]),
        support=int(record.get("support", 1)),
        head_ids=tuple(record.get("head_ids", ())),
    )


def save_kg(kg: KnowledgeGraph, path: str | pathlib.Path) -> int:
    """Write the KG as JSON Lines; returns the number of edges written.

    The first line is a header with the format version and edge count so
    loaders can validate before streaming.
    """
    path = pathlib.Path(path)
    triples = kg.triples()
    with path.open("w", encoding="utf-8") as handle:
        header = {"format": "cosmo-kg", "version": _FORMAT_VERSION, "edges": len(triples)}
        handle.write(json.dumps(header) + "\n")
        for triple in triples:
            handle.write(json.dumps(triple_to_record(triple)) + "\n")
    return len(triples)


def load_kg(path: str | pathlib.Path) -> KnowledgeGraph:
    """Load a KG previously written by :func:`save_kg`."""
    path = pathlib.Path(path)
    kg = KnowledgeGraph()
    with path.open("r", encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line:
            raise ValueError(f"{path}: empty KG file")
        header = json.loads(header_line)
        if header.get("format") != "cosmo-kg":
            raise ValueError(f"{path}: not a cosmo-kg file")
        if header.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported version {header.get('version')} "
                f"(expected {_FORMAT_VERSION})"
            )
        expected = header.get("edges")
        count = 0
        for line in handle:
            if not line.strip():
                continue
            kg.add(record_to_triple(json.loads(line)))
            count += 1
    if expected is not None and count != expected:
        raise ValueError(f"{path}: header promises {expected} edges, found {count}")
    return kg


def save_kg_columnar(kg: KnowledgeGraph, path: str | pathlib.Path) -> int:
    """Write the KG's columnar form as a compressed npz archive.

    The numeric columns are stored as-is; the intern tables as unicode
    arrays; the ragged per-edge provenance (``head_ids``) as a flat
    value array plus per-edge lengths.  Returns the edge count.
    """
    path = pathlib.Path(path)
    cols = kg.columns()
    head_ids = cols["head_ids"]
    lengths = np.array([len(ids) for ids in head_ids], dtype=np.int32)
    flat = [value for ids in head_ids for value in ids]
    payload = {name: cols[name] for name in _NUMERIC_COLUMNS}
    payload.update({
        name: np.array(cols[name], dtype=np.str_) for name in _TABLE_COLUMNS
    })
    payload["head_ids_len"] = lengths
    payload["head_ids_flat"] = np.array(flat, dtype=np.str_)
    payload["format"] = np.array(_COLUMNAR_FORMAT)
    payload["version"] = np.array(_COLUMNAR_VERSION, dtype=np.int64)
    with path.open("wb") as handle:
        np.savez_compressed(handle, **payload)
    return len(kg)


def _split_ragged(flat: list[str], lengths: np.ndarray) -> tuple[tuple[str, ...], ...]:
    """Per-edge ``head_ids`` tuples back out of the flat value array."""
    values = iter(flat)
    return tuple(tuple(islice(values, count)) for count in lengths.tolist())


def load_kg_columnar(path: str | pathlib.Path) -> KnowledgeGraph:
    """Load a KG previously written by :func:`save_kg_columnar`.

    This function owns the archive format only — the format/version
    stamp, the presence of every array, and the ragged ``head_ids``
    encoding (lengths non-negative, one per edge, summing to the flat
    value count).  The columns themselves are handed to
    :meth:`KnowledgeGraph.from_columns`, which adopts them wholesale
    and validates them; every rejection is a ``ValueError`` naming the
    archive, so a truncated or hand-edited file never loads as a
    different graph.
    """
    path = pathlib.Path(path)
    with np.load(path, allow_pickle=False) as archive:
        if "format" not in archive or str(archive["format"]) != _COLUMNAR_FORMAT:
            raise ValueError(f"{path}: not a {_COLUMNAR_FORMAT} file")
        if int(archive["version"]) != _COLUMNAR_VERSION:
            raise ValueError(
                f"{path}: unsupported columnar version {int(archive['version'])} "
                f"(expected {_COLUMNAR_VERSION})"
            )
        missing = [name for name in
                   _NUMERIC_COLUMNS + _TABLE_COLUMNS
                   + ("head_ids_len", "head_ids_flat")
                   if name not in archive]
        if missing:
            raise ValueError(f"{path}: archive is missing columns {missing}")
        columns = {name: archive[name] for name in _NUMERIC_COLUMNS}
        columns.update({name: archive[name].tolist() for name in _TABLE_COLUMNS})
        lengths = archive["head_ids_len"]
        flat = archive["head_ids_flat"].tolist()
    edges = len(columns["head"])
    if len(lengths) != edges:
        raise ValueError(
            f"{path}: head_ids_len has {len(lengths)} entries for "
            f"{edges} edges"
        )
    if len(lengths) and int(np.min(lengths)) < 0:
        raise ValueError(f"{path}: head_ids_len contains negative lengths")
    if int(np.sum(lengths)) != len(flat):
        raise ValueError(f"{path}: head_ids lengths disagree with flat values")
    columns["head_ids"] = _split_ragged(flat, lengths)
    try:
        return KnowledgeGraph.from_columns(columns)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from error
