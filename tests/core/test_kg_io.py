"""KG serialization: the columnar archive's round trip and validation,
and the one-way JSONL export."""

import hashlib
import json
import mmap
import struct
import time
import zipfile

import numpy as np
import pytest

from repro.core.kg import ARRAY_COLUMNS, STRING_COLUMNS, KnowledgeGraph
from repro.core.kg_io import (_write_archive, load_kg_columnar, save_kg,
                              save_kg_columnar, triple_to_record)
from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple
from repro.refresh import build_snapshot, columnar_digest


def _triple(tail="camping", support=2):
    return KnowledgeTriple(
        head="winter camping gear ||| acme tent",
        relation=Relation.USED_FOR_EVE,
        tail=tail,
        domain="Sports & Outdoors",
        behavior="search-buy",
        plausibility=0.91,
        typicality=0.55,
        support=support,
        head_ids=("p1",),
    )


def test_pipeline_kg_roundtrip(tmp_path, pipeline_result):
    kg = pipeline_result.kg
    path = tmp_path / "pipeline_kg.npz"
    save_kg_columnar(kg, path)
    loaded = load_kg_columnar(path)
    assert loaded.stats() == kg.stats()
    assert loaded.triples() == kg.triples()
    assert columnar_digest(loaded) == columnar_digest(kg)
    # The pipeline is the producer of non-empty provenance.
    assert any(triple.head_ids for triple in loaded.triples())


def test_jsonl_export_writes_a_header_and_one_record_per_edge(
        tmp_path, pipeline_result):
    kg = pipeline_result.kg
    path = tmp_path / "pipeline_kg.jsonl"
    assert save_kg(kg, path) == len(kg)
    header, *records = map(json.loads, path.read_text().splitlines())
    assert header == {"format": "cosmo-kg", "version": 1, "edges": len(kg)}
    assert records == [triple_to_record(triple) for triple in kg.triples()]
    assert len(records) == len(kg)


# ----------------------------------------------------------------------
# Columnar archive validation: a truncated or hand-edited npz must fail
# with a ValueError that starts with the archive's path and names the
# inconsistency, never load as some other graph.

def _graph():
    kg = KnowledgeGraph()
    kg.add(_triple("camping"))
    kg.add(_triple("hiking", support=1))
    return kg


def _columnar_path(tmp_path):
    path = tmp_path / "kg.npz"
    save_kg_columnar(_graph(), path)
    return path


def _tampered(tmp_path, path, **overrides):
    """Rewrite the archive with some arrays replaced (or dropped)."""
    with np.load(path, allow_pickle=False) as archive:
        payload = {name: archive[name] for name in archive.files}
    for name, value in overrides.items():
        if value is None:
            payload.pop(name)
        else:
            payload[name] = value
    out = tmp_path / "tampered.npz"
    with out.open("wb") as handle:
        np.savez_compressed(handle, **payload)
    return out


def _tampered_v2(tmp_path, path, **overrides):
    """The same rewrite through the version-2 writer (stored members)."""
    with np.load(path, allow_pickle=False) as archive:
        payload = {name: archive[name] for name in archive.files}
    payload.update(overrides)
    out = tmp_path / "tampered.npz"
    _write_archive(out, {name: value for name, value in payload.items()
                         if value is not None})
    return out


def _rejected(tmp_path, message, **overrides):
    """Both containers — ``_tampered`` writes what version 1 was, deflated
    by ``np.savez_compressed`` — reject the same columns the same way."""
    source = _columnar_path(tmp_path)
    for tamper in (_tampered, _tampered_v2):
        path = tamper(tmp_path, source, **overrides)
        with pytest.raises(ValueError, match=r"^.*tampered\.npz: .*" + message):
            load_kg_columnar(path)


def _member(tmp_path, name):
    """One array of a freshly written archive."""
    with np.load(_columnar_path(tmp_path), allow_pickle=False) as archive:
        return archive[name].copy()


def test_columnar_rejects_missing_columns(tmp_path):
    _rejected(tmp_path, "missing columns.*plausibility", plausibility=None)


def test_columnar_rejects_truncated_numeric_column(tmp_path):
    _rejected(tmp_path, "'tail' has 1 values for 2 edges",
              tail=_member(tmp_path, "tail")[:-1])


def _rejected_by_loader_and_from_columns(tmp_path, message, **overrides):
    """The provenance encoding is checked where every other column is,
    so the archive and the bare mapping are rejected alike."""
    _rejected(tmp_path, message, **overrides)
    columns = dict(_graph().columns(), **{
        name: value.tolist() if value.dtype.kind == "U" else value
        for name, value in overrides.items()})
    with pytest.raises(ValueError, match=message):
        KnowledgeGraph.from_columns(columns)


def test_columnar_rejects_truncated_lengths(tmp_path):
    # One message for every column that is short: 'tail' above reads the same.
    _rejected_by_loader_and_from_columns(
        tmp_path, "'head_ids_len' has 1 values for 2 edges",
        head_ids_len=np.array([1], dtype=np.int32))


def test_columnar_rejects_negative_lengths(tmp_path):
    # Sum still matches the flat array (2 values), so only the explicit
    # negativity check can catch this before a row reads another's ids.
    _rejected_by_loader_and_from_columns(
        tmp_path, "negative lengths",
        head_ids_len=np.array([-1, 3], dtype=np.int32))


def test_columnar_rejects_flat_length_mismatch(tmp_path):
    _rejected_by_loader_and_from_columns(
        tmp_path, "lengths disagree with flat values",
        head_ids_flat=np.array(["p1"], dtype=np.str_))


@pytest.mark.parametrize("lengths, message", [
    (np.array([1.0, 1.0]), "'head_ids_len' is float64, not int32"),
    (np.array([[1], [1]], dtype=np.int32),
     r"'head_ids_len' has 2 values for 2 edges \(shape \(2, 1\)\)"),
    # Wraps to [0, 2] as int32; the lengths are checked as given.
    (np.array([1 << 32, 2], dtype=np.int64), "lengths disagree"),
])
def test_columnar_rejects_lengths_that_are_not_one_integer_per_edge(
        tmp_path, lengths, message):
    _rejected_by_loader_and_from_columns(tmp_path, message,
                                         head_ids_len=lengths)


def test_columnar_rejects_out_of_range_intern_ids(tmp_path):
    bad = _member(tmp_path, "relation")
    bad[0] = 99
    _rejected(tmp_path, "'relation' has ids outside the 'relations'",
              relation=bad)


# Before columns were adopted wholesale these three loaded without error
# as a *different* graph: replaying the rows merged the repeated key and
# summed its support, and re-interned the repeated string.
def test_columnar_rejects_repeated_edge_key(tmp_path):
    tails = _member(tmp_path, "tail")
    tails[1] = tails[0]          # both rows are now (head, rel, "camping")
    _rejected(tmp_path, r"rows repeat the \(head, relation, tail\) key "
                        r".*'camping'", tail=tails)


def test_columnar_rejects_repeated_table_string(tmp_path):
    nodes = _member(tmp_path, "nodes")
    nodes[2] = nodes[1]          # "hiking" → a second "camping"
    _rejected(tmp_path, "table 'nodes' repeats 'camping'", nodes=nodes)


def test_columnar_rejects_unknown_relation_name(tmp_path):
    _rejected(tmp_path, "'MADE_UP', which is not a Relation",
              relations=np.array(["MADE_UP"], dtype=np.str_))


def test_columnar_rejects_unreferenced_table_string(tmp_path):
    # Loading it would report one node too many and re-version the
    # snapshot built from it, though no edge changed.
    _rejected(tmp_path, "table 'nodes' holds 'left over', which no row "
                        "references",
              nodes=np.append(_member(tmp_path, "nodes"), "left over"))


def test_columnar_roundtrip_survives_validation(tmp_path):
    path = _columnar_path(tmp_path)
    loaded = load_kg_columnar(path)
    assert len(loaded) == 2
    assert {t.tail for t in loaded.triples()} == {"camping", "hiking"}
    # The archive keeps the snapshot's address: the version hashes the bytes.
    assert (build_snapshot({"q": "answer."}, graph=loaded).version
            == build_snapshot({"q": "answer."}, graph=_graph()).version)


# -- what the archive itself can get wrong ------------------------------------


@pytest.mark.parametrize("field", ["head", "tail", "domain", "behavior",
                                   "head_ids"])
def test_save_rejects_a_string_the_encoding_would_alter(tmp_path, field):
    # ``np.str_`` drops trailing NULs: the archive would load as a graph
    # over 'q' instead of 'q\x00' (or fail on a made-up repeat of 'q').
    fields = {"head": "q", "tail": "t", "domain": "Home",
              "behavior": "co-buy", "head_ids": ("p1",)}
    fields[field] = ("p1\x00",) if field == "head_ids" else "q\x00"
    kg = KnowledgeGraph()
    kg.add(KnowledgeTriple(relation=Relation.USED_WITH, plausibility=0.5,
                           typicality=0.5, **fields))
    path = tmp_path / "kg.npz"
    with pytest.raises(ValueError, match=r"holds '(q|p1)\\x00', which an npz "
                                         r"archive would not give back"):
        save_kg_columnar(kg, path)
    assert not path.exists()
    # A NUL anywhere else survives, and so does the graph.
    inner = KnowledgeGraph()
    inner.add(_triple("cam\x00ping"))
    save_kg_columnar(inner, path)
    assert load_kg_columnar(path).triples() == inner.triples()


def test_columnar_rejects_missing_version(tmp_path):
    _rejected(tmp_path, "unsupported columnar version None", version=None)


@pytest.mark.parametrize("version", [np.array(3), np.array([1, 1]),
                                     np.array("1")])
def test_columnar_rejects_any_other_version(tmp_path, version):
    _rejected(tmp_path, "unsupported columnar version", version=version)


def _patched(data, offset, layout, value):
    patched = bytearray(data)
    struct.pack_into(layout, patched, offset, value)
    return bytes(patched)


def test_columnar_rejects_a_file_that_is_not_an_archive(tmp_path):
    stored = _columnar_path(tmp_path)
    path = tmp_path / "damaged.npz"
    # Both containers: the archive as written and its deflated rewrite.
    for source in (stored, _tampered(tmp_path, stored)):
        data = source.read_bytes()
        with zipfile.ZipFile(source) as members:
            second = sorted(info.header_offset for info in members.infolist())[1]
            directory = members.start_dir
        # The tail of the first member's bytes, inverted.
        flipped = bytes(byte ^ 0xFF for byte in data[second - 6:second])
        for content in (b"", b"\x00garbage!", data[: len(data) // 2], data[:-1],
                        data[:second - 6] + flipped + data[second:],
                        # One byte in the middle of the first member.
                        _patched(data, second // 2, "B", data[second // 2] ^ 1),
                        # The first entry's local header, then its last
                        # byte, past end-of-file.
                        _patched(data, directory + 42, "<I", len(data)),
                        _patched(data, directory + 20, "<I", len(data))):
            path.write_bytes(content)
            with pytest.raises(ValueError, match=r"^.*damaged\.npz: "):
                load_kg_columnar(path)
    # ``data`` is the deflated rewrite: an entry flagged as encrypted is
    # one ``zipfile`` refuses to read.
    path.write_bytes(_patched(data, directory + 8, "<H", 1))
    with pytest.raises(ValueError, match=r"^.*damaged\.npz: .*encrypted"):
        load_kg_columnar(path)
    # A stored member is checked where it lies: its CRC-32 names the flip.
    path.write_bytes(_patched(stored.read_bytes(), 100, "B", 0xFF))
    with pytest.raises(ValueError, match=r"^.*damaged\.npz: .*CRC-32 for head"):
        load_kg_columnar(path)
    # A zip of something else, and a lone array (a file ``np.load`` reads
    # happily).
    with zipfile.ZipFile(path, "w") as foreign:
        foreign.writestr("readme.txt", "not an array")
    with pytest.raises(ValueError, match=r"^.*damaged\.npz: not a cosmo-kg"):
        load_kg_columnar(path)
    # A pickled member is never unpickled.
    np.savez(path, format=np.array([{"a": 1}], dtype=object))
    with pytest.raises(ValueError, match=r"^.*damaged\.npz: .*OBJECT array"):
        load_kg_columnar(path)
    np.save(tmp_path / "damaged.npy", np.arange(3))
    with pytest.raises(ValueError, match=r"^.*damaged\.npy: not a cosmo-kg"):
        load_kg_columnar(tmp_path / "damaged.npy")
    with pytest.raises(FileNotFoundError):
        load_kg_columnar(tmp_path / "absent.npz")


def test_a_version_1_archive_still_loads(tmp_path):
    # What the previous writer left on disk: deflated members, stamp 1.
    path = _tampered(tmp_path, _columnar_path(tmp_path),
                     version=np.array(1, dtype=np.int64))
    with zipfile.ZipFile(path) as members:
        assert {info.compress_type for info in members.infolist()} == {
            zipfile.ZIP_DEFLATED}
    assert columnar_digest(load_kg_columnar(path)) == columnar_digest(_graph())


def test_a_loaded_graph_outlives_its_file(tmp_path):
    # What a refresh cycle does: load, delete the archive, go on reading.
    path = _columnar_path(tmp_path)
    loaded = load_kg_columnar(path)
    path.unlink()
    assert loaded.triples() == _graph().triples()
    assert columnar_digest(loaded) == columnar_digest(_graph())


def test_a_failed_save_leaves_the_previous_archive(tmp_path, monkeypatch):
    path = _columnar_path(tmp_path)
    written = []
    writestr = zipfile.ZipFile.writestr

    def failing(archive, info, data):
        written.append(info.filename)
        if len(written) == 3:
            raise OSError("No space left on device")
        writestr(archive, info, data)

    monkeypatch.setattr(zipfile.ZipFile, "writestr", failing)
    bigger = _graph()
    bigger.add(_triple("fishing"))
    with pytest.raises(OSError, match="No space left"):
        save_kg_columnar(bigger, path)
    assert len(written) == 3
    assert columnar_digest(load_kg_columnar(path)) == columnar_digest(_graph())
    assert [entry.name for entry in tmp_path.iterdir()] == ["kg.npz"]


def test_the_same_graph_writes_the_same_aligned_bytes(tmp_path, monkeypatch):
    digests = []
    for year in (2001, 2031):
        # ``np.savez`` stamps the local time into every member.
        monkeypatch.setattr(time, "localtime", lambda *_, year=year: time.struct_time(
            (year, 2, 3, 4, 5, 6, 0, 34, 0)))
        save_kg_columnar(_graph(), tmp_path / "kg.npz")
        digests.append(hashlib.sha256((tmp_path / "kg.npz").read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    with (tmp_path / "kg.npz").open("rb") as handle, \
            zipfile.ZipFile(handle) as members:
        data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        for info in members.infolist():
            assert info.compress_type == zipfile.ZIP_STORED
            name, extra = struct.unpack_from("<HH", data, info.header_offset + 26)
            start = info.header_offset + 30 + name + extra
            # The npy header pads itself to the boundary its member starts on.
            array = np.load(members.open(info))
            values = start + info.file_size - array.nbytes
            assert start % 64 == values % 64 == 0, info.filename
            mapped = np.frombuffer(data, dtype=array.dtype, count=array.size,
                                   offset=values)
            assert mapped.flags.aligned
            assert mapped.tolist() == array.ravel().tolist()


@pytest.mark.parametrize("nodes", [
    np.array([["q", "a"], ["b", "c"]]), np.array("q"), np.arange(3)])
def test_columnar_rejects_a_string_column_that_is_not_1d_text(tmp_path, nodes):
    _rejected(tmp_path, "column 'nodes' is not a 1-D unicode array", nodes=nodes)


def test_archive_members_are_the_declared_columns(tmp_path):
    # One schema: the graph's columns, the archive's members and the
    # names the digest hashes are the one declaration in ``core/kg.py``.
    declared = ARRAY_COLUMNS + STRING_COLUMNS
    assert len(set(declared)) == len(declared) == 14
    assert tuple(_graph().columns()) == declared
    with np.load(_columnar_path(tmp_path), allow_pickle=False) as archive:
        assert sorted(archive.files) == sorted(declared + ("format", "version"))
        for name in ARRAY_COLUMNS:
            assert archive[name].dtype == _graph().columns()[name].dtype
            assert archive[name].tolist() == _graph().columns()[name].tolist()
        for name in STRING_COLUMNS:
            assert tuple(archive[name].tolist()) == _graph().columns()[name]
