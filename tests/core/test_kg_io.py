"""KG serialization round trips and validation."""

import json

import numpy as np
import pytest

from repro.core.kg import KnowledgeGraph
from repro.core.kg_io import (load_kg, load_kg_columnar, record_to_triple,
                              save_kg, save_kg_columnar, triple_to_record)
from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple


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


def test_record_roundtrip():
    triple = _triple()
    assert record_to_triple(triple_to_record(triple)) == triple


def test_save_load_roundtrip(tmp_path):
    kg = KnowledgeGraph()
    kg.add(_triple("camping"))
    kg.add(_triple("hiking", support=1))
    path = tmp_path / "kg.jsonl"
    written = save_kg(kg, path)
    assert written == 2
    loaded = load_kg(path)
    assert len(loaded) == 2
    assert {t.tail for t in loaded.triples()} == {"camping", "hiking"}
    original = {t.key: t for t in kg.triples()}
    for triple in loaded.triples():
        assert original[triple.key] == triple


def test_pipeline_kg_roundtrip(tmp_path, pipeline_result):
    path = tmp_path / "pipeline_kg.jsonl"
    save_kg(pipeline_result.kg, path)
    loaded = load_kg(path)
    assert loaded.stats() == pipeline_result.kg.stats()


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"format": "other"}) + "\n")
    with pytest.raises(ValueError, match="not a cosmo-kg"):
        load_kg(path)


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"format": "cosmo-kg", "version": 99, "edges": 0}) + "\n")
    with pytest.raises(ValueError, match="unsupported version"):
        load_kg(path)


def test_load_rejects_truncated_file(tmp_path):
    kg = KnowledgeGraph()
    kg.add(_triple())
    path = tmp_path / "kg.jsonl"
    save_kg(kg, path)
    lines = path.read_text().splitlines()
    path.write_text(lines[0] + "\n")  # drop the edge line
    with pytest.raises(ValueError, match="promises"):
        load_kg(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_kg(path)


# ----------------------------------------------------------------------
# Columnar archive validation: a truncated or hand-edited npz must fail
# with a ValueError naming the archive and the inconsistency, never load
# as some other graph.

def _columnar_path(tmp_path):
    kg = KnowledgeGraph()
    kg.add(_triple("camping"))
    kg.add(_triple("hiking", support=1))
    path = tmp_path / "kg.npz"
    save_kg_columnar(kg, path)
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


def test_columnar_rejects_missing_columns(tmp_path):
    path = _tampered(tmp_path, _columnar_path(tmp_path), plausibility=None)
    with pytest.raises(ValueError, match="missing columns.*plausibility"):
        load_kg_columnar(path)


def test_columnar_rejects_truncated_numeric_column(tmp_path):
    source = _columnar_path(tmp_path)
    with np.load(source, allow_pickle=False) as archive:
        short = archive["tail"][:-1]
    path = _tampered(tmp_path, source, tail=short)
    with pytest.raises(ValueError, match="'tail' has 1 values for 2 edges"):
        load_kg_columnar(path)


def test_columnar_rejects_truncated_lengths(tmp_path):
    path = _tampered(tmp_path, _columnar_path(tmp_path),
                     head_ids_len=np.array([1], dtype=np.int32))
    with pytest.raises(ValueError, match="head_ids_len has 1 entries"):
        load_kg_columnar(path)


def test_columnar_rejects_negative_lengths(tmp_path):
    # Sum still matches the flat array (2 values), so only the explicit
    # negativity check can catch this before slicing goes quadratic.
    path = _tampered(tmp_path, _columnar_path(tmp_path),
                     head_ids_len=np.array([-1, 3], dtype=np.int32))
    with pytest.raises(ValueError, match="negative lengths"):
        load_kg_columnar(path)


def test_columnar_rejects_flat_length_mismatch(tmp_path):
    path = _tampered(tmp_path, _columnar_path(tmp_path),
                     head_ids_flat=np.array(["p1"], dtype=np.str_))
    with pytest.raises(ValueError, match="lengths disagree with flat values"):
        load_kg_columnar(path)


def test_columnar_rejects_out_of_range_intern_ids(tmp_path):
    source = _columnar_path(tmp_path)
    with np.load(source, allow_pickle=False) as archive:
        bad = archive["relation"].copy()
    bad[0] = 99
    path = _tampered(tmp_path, source, relation=bad)
    with pytest.raises(ValueError,
                       match="'relation' has ids outside the 'relations'"):
        load_kg_columnar(path)


# Before columns were adopted wholesale these three loaded without error
# as a *different* graph: replaying the rows merged the repeated key and
# summed its support, and re-interned the repeated string.
def test_columnar_rejects_repeated_edge_key(tmp_path):
    source = _columnar_path(tmp_path)
    with np.load(source, allow_pickle=False) as archive:
        tails = archive["tail"].copy()
    tails[1] = tails[0]          # both rows are now (head, rel, "camping")
    path = _tampered(tmp_path, source, tail=tails)
    with pytest.raises(ValueError, match=r"tampered\.npz: rows repeat the "
                                         r"\(head, relation, tail\) key .*'camping'"):
        load_kg_columnar(path)


def test_columnar_rejects_repeated_table_string(tmp_path):
    source = _columnar_path(tmp_path)
    with np.load(source, allow_pickle=False) as archive:
        nodes = archive["nodes"].copy()
    nodes[2] = nodes[1]          # "hiking" → a second "camping"
    path = _tampered(tmp_path, source, nodes=nodes)
    with pytest.raises(ValueError,
                       match=r"tampered\.npz: table 'nodes' repeats 'camping'"):
        load_kg_columnar(path)


def test_columnar_rejects_unknown_relation_name(tmp_path):
    path = _tampered(tmp_path, _columnar_path(tmp_path),
                     relations=np.array(["MADE_UP"], dtype=np.str_))
    with pytest.raises(ValueError,
                       match=r"tampered\.npz: .*'MADE_UP', which is not a Relation"):
        load_kg_columnar(path)


def test_columnar_rejects_unreferenced_table_string(tmp_path):
    # Loading it would report one node too many and re-version the
    # snapshot built from it, though no edge changed.
    source = _columnar_path(tmp_path)
    with np.load(source, allow_pickle=False) as archive:
        nodes = np.append(archive["nodes"], "left over")
    path = _tampered(tmp_path, source, nodes=nodes)
    with pytest.raises(ValueError,
                       match=r"tampered\.npz: table 'nodes' holds 'left over', "
                             r"which no row references"):
        load_kg_columnar(path)


def test_columnar_roundtrip_survives_validation(tmp_path):
    path = _columnar_path(tmp_path)
    loaded = load_kg_columnar(path)
    assert len(loaded) == 2
    assert {t.tail for t in loaded.triples()} == {"camping", "hiking"}
