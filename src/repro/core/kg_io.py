"""Knowledge-graph persistence: one archive format and a JSONL export.

* **Columnar npz** (:func:`save_kg_columnar` / :func:`load_kg_columnar`)
  — how a built graph is shipped without re-running the pipeline: the
  mapping :meth:`KnowledgeGraph.columns` returns, written member for
  member under the names :mod:`repro.core.kg` declares, plus a format
  and a version stamp.  Loading hands the members to
  :meth:`KnowledgeGraph.from_columns`, so a round trip is exact: same
  triples, same provenance, same column digest.
* **JSON Lines** (:func:`save_kg`) — a one-way export for downstream
  consumers, one self-describing record per edge.  It is lossy (scores
  are rounded, intern and row ids are gone) and has no loader.
"""

from __future__ import annotations

import json
import pathlib
import zipfile
import zlib
from collections.abc import Sequence

import numpy as np

from repro.core.kg import ARRAY_COLUMNS, STRING_COLUMNS, KnowledgeGraph
from repro.core.triples import KnowledgeTriple

__all__ = [
    "save_kg",
    "save_kg_columnar",
    "load_kg_columnar",
    "triple_to_record",
]

_COLUMNAR_FORMAT = "cosmo-kg-columnar"
_COLUMNAR_VERSION = 1
#: What ``np.load``, ``zipfile`` and ``zlib`` raise on a damaged or
#: foreign file (a missing one stays an ``OSError``).
_UNREADABLE = (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError,
               ValueError)


def triple_to_record(triple: KnowledgeTriple) -> dict:
    """A JSON-serializable record for one triple (scores to six decimals)."""
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


def save_kg(kg: KnowledgeGraph, path: str | pathlib.Path) -> int:
    """Export the KG as JSON Lines; returns the number of edges written.

    A header line with the format version and edge count, then one
    :func:`triple_to_record` per edge.  Export only — ship a graph with
    :func:`save_kg_columnar`.
    """
    path = pathlib.Path(path)
    triples = kg.triples()
    with path.open("w", encoding="utf-8") as handle:
        header = {"format": "cosmo-kg", "version": 1, "edges": len(triples)}
        handle.write(json.dumps(header) + "\n")
        for triple in triples:
            handle.write(json.dumps(triple_to_record(triple)) + "\n")
    return len(triples)


def _encoded(name: str, strings: Sequence[str]) -> np.ndarray:
    """``strings`` as the unicode array an archive stores.  ``np.str_``
    drops trailing NULs and alters nothing else, so fewer characters kept
    than given means the archive would load as a different graph."""
    encoded = np.array(strings, dtype=np.str_)
    if int(np.char.str_len(encoded).sum()) != len("".join(strings)):
        lost = next(s for s, kept in zip(strings, encoded.tolist()) if s != kept)
        raise ValueError(f"column {name!r} holds {lost!r}, which an npz "
                         "archive would not give back")
    return encoded


def save_kg_columnar(kg: KnowledgeGraph, path: str | pathlib.Path) -> int:
    """Write :meth:`KnowledgeGraph.columns` as a compressed npz archive,
    arrays as they are and string columns as unicode arrays (checked
    before anything is written).  Returns the edge count."""
    path = pathlib.Path(path)
    payload = dict(kg.columns())
    for name in STRING_COLUMNS:
        payload[name] = _encoded(name, payload[name])
    payload["format"] = np.array(_COLUMNAR_FORMAT)
    payload["version"] = np.array(_COLUMNAR_VERSION, dtype=np.int64)
    with path.open("wb") as handle:
        np.savez_compressed(handle, **payload)
    return len(kg)


def load_kg_columnar(path: str | pathlib.Path) -> KnowledgeGraph:
    """Load a KG previously written by :func:`save_kg_columnar`.

    This function owns the archive only: that the file reads as an npz,
    its format/version stamp and the presence of every declared column
    (string columns as 1-D unicode arrays); the columns are validated
    by :meth:`KnowledgeGraph.from_columns`.  Every rejection is a
    ``ValueError`` starting with the path, so a truncated or hand-edited
    file never loads as a different graph.
    """
    path = pathlib.Path(path)
    try:
        with path.open("rb") as handle:
            archive = np.load(handle, allow_pickle=False)
            members = ({name: archive[name] for name in archive.files}
                       if isinstance(archive, np.lib.npyio.NpzFile) else {})
    except _UNREADABLE as error:
        raise ValueError(f"{path}: not a readable npz archive ({error!r})") from error
    if "format" not in members or str(members["format"]) != _COLUMNAR_FORMAT:
        raise ValueError(f"{path}: not a {_COLUMNAR_FORMAT} file")
    version = members["version"].tolist() if "version" in members else None
    if version != _COLUMNAR_VERSION:
        raise ValueError(f"{path}: unsupported columnar version {version!r} "
                         f"(expected {_COLUMNAR_VERSION})")
    missing = [name for name in ARRAY_COLUMNS + STRING_COLUMNS
               if name not in members]
    if missing:
        raise ValueError(f"{path}: archive is missing columns {missing}")
    for name in STRING_COLUMNS:
        if members[name].ndim != 1 or members[name].dtype.kind != "U":
            raise ValueError(f"{path}: column {name!r} is not a 1-D unicode array")
        members[name] = members[name].tolist()
    try:
        return KnowledgeGraph.from_columns(members)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from error
