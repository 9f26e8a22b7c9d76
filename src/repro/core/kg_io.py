"""Knowledge-graph persistence: one archive format and a JSONL export.

* **Columnar npz** (:func:`save_kg_columnar` / :func:`load_kg_columnar`)
  — how a built graph is shipped without re-running the pipeline: the
  mapping :meth:`KnowledgeGraph.columns` returns, written member for
  member under the names :mod:`repro.core.kg` declares, plus a format
  and a version stamp.  Loading hands the members to
  :meth:`KnowledgeGraph.from_columns`, so a round trip is exact: same
  triples, same provenance, same column digest.  Version 2 stores its
  members uncompressed and aligned, so a load maps them instead of
  inflating them; version 1 (``np.savez_compressed``) still loads.
* **JSON Lines** (:func:`save_kg`) — a one-way export for downstream
  consumers, one self-describing record per edge.  It is lossy (scores
  are rounded, intern and row ids are gone) and has no loader.
"""

from __future__ import annotations

import io
import json
import mmap
import os
import pathlib
import struct
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
    "columnar_version",
    "triple_to_record",
]

_COLUMNAR_FORMAT = "cosmo-kg-columnar"
_COLUMNAR_VERSION = 2
#: The versions that load: 1 is the same members deflated by ``np.savez``.
_READABLE_VERSIONS = (1, 2)
#: Where a stored member's ``.npy`` starts; npy pads its own header to the
#: same boundary, so the array data behind it is aligned for any dtype.
_ALIGN = 64
#: A zip local file header up to its name (the two lengths that follow
#: it), and the id of the extra field that pads one (zipalign's).
_LOCAL_HEADER = struct.Struct("<26xHH")
_PAD_ID = 0xD935
#: The longest version-1.0 ``.npy`` header: magic, version, a 2-byte length.
_NPY_HEADER_MAX = 10 + 0xFFFF
#: What ``zipfile``, ``zlib`` and the npy header parser raise on a damaged
#: or foreign file (``RuntimeError`` is an encrypted or unsupported entry;
#: a missing file stays an ``OSError``).
_UNREADABLE = (zipfile.BadZipFile, zlib.error, RuntimeError, ValueError)


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


def _write_archive(path: pathlib.Path, payload: dict) -> None:
    """``payload`` as one stored zip of ``.npy`` members at ``path``, each
    member starting on an ``_ALIGN`` boundary and dated 1980 so the bytes
    depend on the arrays alone.  Written beside ``path`` and moved over it,
    so a reader sees the previous archive or the whole new one."""
    temp = path.with_name(path.name + ".tmp")
    try:
        with zipfile.ZipFile(temp, "w") as archive:
            offset = 0
            for name, array in payload.items():
                npy = io.BytesIO()
                np.lib.format.write_array(npy, array, allow_pickle=False)
                info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
                offset += _LOCAL_HEADER.size + len(info.filename) + 4
                pad = -offset % _ALIGN
                info.extra = struct.pack("<HH", _PAD_ID, pad) + bytes(pad)
                archive.writestr(info, npy.getbuffer())
                offset += pad + npy.tell()
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def save_kg_columnar(kg: KnowledgeGraph, path: str | pathlib.Path) -> int:
    """Write :meth:`KnowledgeGraph.columns` as a version-2 archive, arrays
    as they are and string columns as unicode arrays (checked before
    anything is written).  Returns the edge count."""
    payload = dict(kg.columns())
    for name in STRING_COLUMNS:
        payload[name] = _encoded(name, payload[name])
    payload["format"] = np.array(_COLUMNAR_FORMAT)
    payload["version"] = np.array(_COLUMNAR_VERSION, dtype=np.int64)
    _write_archive(pathlib.Path(path), payload)
    return len(kg)


def _member_array(buffer) -> np.ndarray:
    """The array in one ``.npy`` member, as a read-only view of ``buffer``."""
    header = io.BytesIO(buffer[:_NPY_HEADER_MAX])
    if np.lib.format.read_magic(header) != (1, 0):
        raise ValueError("not a version-1.0 npy member")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(header)
    values = np.frombuffer(buffer, dtype=dtype, offset=header.tell())
    return values.reshape(shape, order="F" if fortran_order else "C")


def _read_archive(path: pathlib.Path) -> dict[str, np.ndarray]:
    """The members of the zip at ``path`` as arrays, by name.  A stored
    member is a slice of one read-only map of the file (unmapped with its
    last array), checked against the entry's CRC-32 as ``zipfile`` checks
    the deflated ones it reads."""
    members = {}
    with path.open("rb") as handle, zipfile.ZipFile(handle) as archive:
        mapped = memoryview(mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ))
        for info in archive.infolist():
            if not 0 <= info.header_offset <= len(mapped) - _LOCAL_HEADER.size:
                raise zipfile.BadZipFile(f"{info.filename} starts past end of file")
            start = info.header_offset + _LOCAL_HEADER.size + sum(
                _LOCAL_HEADER.unpack_from(mapped, info.header_offset))
            data = mapped[start:start + info.compress_size]
            if len(data) != info.compress_size:
                raise zipfile.BadZipFile(f"{info.filename} ends past end of file")
            if info.compress_type != zipfile.ZIP_STORED:
                data = archive.read(info)
            elif zlib.crc32(data) != info.CRC:
                raise zipfile.BadZipFile(f"bad CRC-32 for {info.filename}")
            members[info.filename.removesuffix(".npy")] = _member_array(data)
    return members


def columnar_version(path: str | pathlib.Path) -> int:
    """The version stamp of an archive :func:`load_kg_columnar` accepts."""
    return int(_read_archive(pathlib.Path(path))["version"])


def load_kg_columnar(path: str | pathlib.Path) -> KnowledgeGraph:
    """Load a KG previously written by :func:`save_kg_columnar`.

    This function owns the archive only: that the file reads as a zip of
    npy members, its format/version stamp and the presence of every
    declared column (string columns as 1-D unicode arrays); the columns
    are validated, and copied, by :meth:`KnowledgeGraph.from_columns`.
    Every rejection is a ``ValueError`` starting with the path, so a
    truncated or hand-edited file never loads as a different graph.
    """
    path = pathlib.Path(path)
    try:
        members = _read_archive(path)
    except _UNREADABLE as error:
        raise ValueError(f"{path}: not a {_COLUMNAR_FORMAT} file ({error!r})") from error
    if "format" not in members or str(members["format"]) != _COLUMNAR_FORMAT:
        raise ValueError(f"{path}: not a {_COLUMNAR_FORMAT} file")
    version = members["version"].tolist() if "version" in members else None
    if version not in _READABLE_VERSIONS:
        raise ValueError(f"{path}: unsupported columnar version {version!r} "
                         f"(expected one of {_READABLE_VERSIONS})")
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
