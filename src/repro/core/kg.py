"""The COSMO knowledge graph container (Tables 1 & 3, Figure 8).

Stores refined :class:`~repro.core.triples.KnowledgeTriple` edges with
per-domain / per-behavior statistics matching the Table 3 layout and
overall node/edge/relation counts for the Table 1 comparison.  (Figure
8's intent hierarchy is built by :mod:`repro.apps.navigation.hierarchy`.)

Storage is columnar: node, relation, domain and behavior strings are
interned once into id tables, and each edge is one row across parallel
numpy columns (head/relation/tail/domain/behavior ids, plausibility,
typicality, support, provenance length) over one flat run of provenance
ids.  Read indexes are derived state, each built on first use after a
mutation: every row's end in the flat provenance (any read of a graph
that has provenance), and a head index — CSR offsets over a head-ordered
copy of the read columns — that serves ``neighbors`` as three contiguous
slices instead of a scan or a gather.  The duplicate-merge index is
derived too: ``extend`` and ``from_columns`` sort the packed key column,
only ``add`` builds a dict.  The query surface is unchanged
from the dict-backed implementation — ``triples()`` still returns
:class:`~repro.core.triples.KnowledgeTriple` objects in first-insert
order with identical merge semantics — the columnar form is how
the hot path (stats, filters, neighbor lookups, (de)serialization,
snapshot digests) avoids per-edge Python object traffic.  A read that
does return records builds them in C: a triple is a named tuple, made
by ``tuple.__new__`` from one ``zip`` of the columns, and ``extend``
reads most of a batch's fields back through ``itemgetter`` maps.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import itemgetter

import numpy as np

from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple

__all__ = ["ARRAY_COLUMNS", "STRING_COLUMNS", "KGStats", "KnowledgeGraph",
           "pack_edge_keys"]

_INITIAL_CAPACITY = 16

#: What a graph holds, declared once: ``columns()`` returns these names,
#: a columnar archive stores them and the snapshot column digest hashes
#: them.  Name → (attribute, dtype) of every per-edge array.
_ARRAYS: dict[str, tuple[str, type]] = {
    "head": ("_head_col", np.int32),
    "relation": ("_rel_col", np.int32),
    "tail": ("_tail_col", np.int32),
    "domain": ("_domain_col", np.int32),
    "behavior": ("_behavior_col", np.int32),
    "plausibility": ("_plaus_col", np.float64),
    "typicality": ("_typ_col", np.float64),
    "support": ("_support_col", np.int64),
    "head_ids_len": ("_head_ids_len_col", np.int32),
}
#: The head index's copy of the read columns in head order: one 2-D
#: block per dtype, a row per column (the last is the provenance ends),
#: so one head's edges are one slice and one ``tolist()`` of each block.
_HEAD_BLOCKS: tuple[tuple[type, tuple[str, ...]], ...] = (
    (np.int32, ("_rel_col", "_tail_col", "_domain_col", "_behavior_col",
                "_head_ids_len_col")),
    (np.float64, ("_plaus_col", "_typ_col")),
    (np.int64, ("_support_col", "_head_ids_end")),
)
#: Field name → its getter by position.  ``extend`` reads a field that
#: it only collects through ``map`` over these, in C: a ``triple.head``
#: in a comprehension takes CPython 3.11's generic attribute path for a
#: named-tuple field (a slot read has a fast path, a field does not).
_FIELD = {name: itemgetter(i) for i, name in enumerate(KnowledgeTriple._fields)}
#: The per-edge numbers ``extend`` reads off a triple, in the order it
#: writes them: column attribute, field getter, dtype.
_NUMBERS: tuple[tuple[str, itemgetter, type], ...] = (
    ("_plaus_col", _FIELD["plausibility"], np.float64),
    ("_typ_col", _FIELD["typicality"], np.float64),
    ("_support_col", _FIELD["support"], np.int64),
)
_HEAD_IDS = _FIELD["head_ids"]
#: Name → attribute of every intern table.
_TABLES = {"nodes": "_nodes", "relations": "_relations",
           "domains": "_domains", "behaviors": "_behaviors"}
#: Every edge's provenance ids (``KnowledgeTriple.head_ids``) end to end
#: in row order; row ``i`` owns the next ``head_ids_len[i]`` of them.
_PROVENANCE = "head_ids_flat"
ARRAY_COLUMNS: tuple[str, ...] = tuple(_ARRAYS)
STRING_COLUMNS: tuple[str, ...] = (*_TABLES, _PROVENANCE)
#: id column → the intern table its values index.
_TABLE_OF = {"head": "nodes", "relation": "relations", "tail": "nodes",
             "domain": "domains", "behavior": "behaviors"}

#: Relation name → member, for the read path and ``from_columns``'s
#: check: one dict lookup where ``Relation(value)`` is an enum call.
_RELATION_OF: dict[str, Relation] = {r.value: r for r in Relation}

#: Bit budget of a packed ``(head, relation, tail)`` key — two node ids
#: around one relation id in a non-negative int64.  2**28 nodes is 40x
#: the paper's graph (Table 1: 6.3M); Table 2 has 15 relations.
_NODE_BITS, _RELATION_BITS = 28, 7


def _check_key_budget(nodes: int, relations: int) -> None:
    if nodes > 1 << _NODE_BITS or relations > 1 << _RELATION_BITS:
        raise OverflowError(
            f"{nodes} nodes / {relations} relations do not fit the packed "
            f"edge key ({_NODE_BITS} bits per node id, {_RELATION_BITS} per "
            "relation id)")


def _pack(head, relation, tail):
    """The key layout, for Python ints or int64 arrays alike."""
    return ((head << (_RELATION_BITS + _NODE_BITS))
            | (relation << _NODE_BITS) | tail)


def pack_edge_keys(head, relation, tail, *, nodes: int,
                   relations: int) -> np.ndarray:
    """One int64 per edge: ``head << 35 | relation << 28 | tail``.

    ``nodes`` and ``relations`` are the sizes of the tables the ids
    index (the ids themselves are range-checked where they enter the
    program); tables past the bit budget raise ``OverflowError`` instead
    of wrapping into colliding keys.  Equal keys mean equal
    ``(head, relation, tail)``, and keys sort in that lexicographic order.
    """
    _check_key_budget(nodes, relations)
    return _pack(np.asarray(head, dtype=np.int64),
                 np.asarray(relation, dtype=np.int64),
                 np.asarray(tail, dtype=np.int64))


@dataclass(frozen=True)
class KGStats:
    """Table 1-style aggregate statistics."""

    nodes: int
    edges: int
    relations: int
    domains: int


class _Numbering(dict):
    """A dict that numbers, in first-appearance order, what it has not
    seen: ``d[x]`` interns ``x`` (a missing key gets the dict's own
    length; a held one never leaves C), ``d.get(x)`` only reads."""

    def __missing__(self, key: str) -> int:
        self[key] = number = len(self)
        return number


class _InternTable:
    """Append-only string ↔ dense-id table: a :class:`_Numbering` and
    its keys as a list, which is appended to where a string is interned,
    never derived on demand, so ``value`` stays a plain list index."""

    __slots__ = ("_ids", "_values")

    def __init__(self):
        self._ids = _Numbering()
        self._values: list[str] = []

    @classmethod
    def adopt(cls, name: str, values: Iterable[str]) -> "_InternTable":
        """A table holding ``values`` at ids 0..n-1; a repeated string
        would make two ids mean one value, so it is rejected."""
        table = cls()
        table._values = list(values)
        table._ids.update(zip(table._values, range(len(table._values))))
        if len(table._ids) != len(table._values):
            seen = _Numbering()     # numbers a repeat below its index
            repeat = next(value for i, value in enumerate(table._values)
                          if seen[value] != i)
            raise ValueError(f"table {name!r} repeats {repeat!r}")
        return table

    def intern(self, value: str) -> int:
        interned = self._ids[value]
        if interned == len(self._values):
            self._values.append(value)
        return interned

    def intern_many(self, values: list[str]) -> np.ndarray:
        """``[intern(v) for v in values]`` as one C-level pass straight
        into an int32 array (no list of ids): new strings get their ids
        in first-appearance order."""
        interned = np.fromiter(map(self._ids.__getitem__, values),
                               dtype=np.int32, count=len(values))
        self._values.extend(islice(self._ids, len(self._values), None))
        return interned

    def id_of(self, value: str) -> int | None:
        return self._ids.get(value)

    def value(self, interned: int) -> str:
        return self._values[interned]

    def values(self) -> tuple[str, ...]:
        return tuple(self._values)

    def __len__(self) -> int:
        return len(self._values)


class KnowledgeGraph:
    """Deduplicating triple store with stats and hierarchy views.

    Edges live in parallel columns; heads and tails share one node id
    table, so Table 1's node count is just the table's length (the
    store is append-only — every interned node is referenced by at
    least one edge).
    """

    def __init__(self):
        for attr in _TABLES.values():
            setattr(self, attr, _InternTable())
        for attr, dtype in _ARRAYS.values():
            setattr(self, attr, np.empty(_INITIAL_CAPACITY, dtype=dtype))
        self._head_ids_flat: list[str] = []
        self._size = 0
        #: packed (head id, relation id, tail id) → row, :meth:`add`'s
        #: merge index: derived from :meth:`_keys` on first use, dropped
        #: by :meth:`extend`, never built by a graph only loaded or read.
        self._row_of: dict[int, int] | None = None
        #: Read indexes, derived on first use and dropped by a mutation:
        #: each row's end in the flat provenance (dropped by a new row),
        #: and the head index (dropped by any write, merges included) —
        #: CSR offsets, then the :data:`_HEAD_BLOCKS` in head order.
        self._head_ids_end: np.ndarray | None = None
        self._head_index: tuple[np.ndarray, ...] | None = None

    # ------------------------------------------------------------------
    def add(self, triple: KnowledgeTriple) -> None:
        """Insert a triple, merging support for duplicates.

        The scalar operation, and the reference :meth:`extend` is tested
        against.  Both raise ``OverflowError`` once the tables outgrow
        the packed key's bit budget; the graph is not usable after that.
        """
        head_id = self._nodes.intern(triple.head)
        rel_id = self._relations.intern(triple.relation.value)
        tail_id = self._nodes.intern(triple.tail)
        _check_key_budget(len(self._nodes), len(self._relations))
        key = _pack(head_id, rel_id, tail_id)
        if self._row_of is None:
            self._row_of = dict(zip(self._keys().tolist(), range(self._size)))
        row = self._row_of.get(key)
        if row is not None:
            # Merge: best scores win, support accumulates, the first
            # insert's provenance (head_ids) and domain/behavior stick.
            if triple.plausibility > self._plaus_col[row]:
                self._owned("_plaus_col")[row] = triple.plausibility
            if triple.typicality > self._typ_col[row]:
                self._owned("_typ_col")[row] = triple.typicality
            self._owned("_support_col")[row] += triple.support
            self._head_index = None
            return
        row = self._size
        if row == len(self._head_col):
            self._grow(row + 1)
        self._head_col[row] = head_id
        self._rel_col[row] = rel_id
        self._tail_col[row] = tail_id
        self._domain_col[row] = self._domains.intern(triple.domain)
        self._behavior_col[row] = self._behaviors.intern(triple.behavior)
        self._plaus_col[row] = triple.plausibility
        self._typ_col[row] = triple.typicality
        self._support_col[row] = triple.support
        self._head_ids_len_col[row] = len(triple.head_ids)
        self._head_ids_flat.extend(triple.head_ids)
        self._row_of[key] = row
        self._size = row + 1
        self._head_ids_end = self._head_index = None

    def _grow(self, rows: int) -> None:
        """Room for ``rows`` edges, at least doubling.  Every column is
        reallocated, frozen ones included: a frozen column has no spare
        row, so an append always comes through here."""
        capacity = max(_INITIAL_CAPACITY, 2 * len(self._head_col), rows)
        for attr, dtype in _ARRAYS.values():
            grown = np.empty(capacity, dtype=dtype)
            grown[: self._size] = getattr(self, attr)[: self._size]
            setattr(self, attr, grown)

    def _owned(self, attr: str) -> np.ndarray:
        """The column at ``attr``, ready for an in-place write.  A
        write-locked column is a buffer some snapshot shares
        (:meth:`frozen_columns`), so the graph swaps in a copy of it
        first; the ``writeable`` flag is the only ownership mark."""
        column = getattr(self, attr)
        if not column.flags.writeable:
            column = column.copy()
            setattr(self, attr, column)
        return column

    def _keys(self) -> np.ndarray:
        """The packed key of every held row, from the id columns."""
        n = self._size
        return pack_edge_keys(
            self._head_col[:n], self._rel_col[:n], self._tail_col[:n],
            nodes=len(self._nodes), relations=len(self._relations))

    def extend(self, triples: Iterable[KnowledgeTriple]) -> None:
        """``for t in triples: self.add(t)`` as one bulk operation.

        Same ids, rows, merges and column bytes as the :meth:`add` loop:
        heads and tails are interned interleaved (``add``'s order), an
        edge whose key is new opens the next row and only those edges
        intern a domain/behavior, every other edge merges into its row.
        Each field leaves the batch once and each column is written with
        one slice assignment.  Rows come from the packed key column, not
        a per-edge dict: one sort of the batch's keys, and, when the
        graph already holds rows, one sort of theirs — the stated cost
        of extending a held graph; :meth:`add` is the per-edge path.
        A batch-sized temporary is dropped as soon as it is used, and
        ids and numbers go straight into arrays, never through a list.
        """
        batch = triples if isinstance(triples, list) else list(triples)
        if not batch:
            return
        ends: list = [None] * (2 * len(batch))
        ends[0::2] = map(_FIELD["head"], batch)
        ends[1::2] = map(_FIELD["tail"], batch)
        end_ids = self._nodes.intern_many(ends)
        del ends
        heads, tails = end_ids[0::2], end_ids[1::2]
        # ``_value_`` is ``.value`` without the descriptor call, which
        # costs four times the attribute read.
        relations = self._relations.intern_many(
            [triple.relation._value_ for triple in batch])
        keys = pack_edge_keys(heads, relations, tails, nodes=len(self._nodes),
                              relations=len(self._relations))

        # The row of each distinct key: the held row with that key, else
        # the next free rows in first-appearance order — an edge opens a
        # row exactly when it is the first of a key no held row has.
        size = self._size
        distinct, first, inverse = np.unique(keys, return_index=True,
                                             return_inverse=True)
        del keys
        row_of = np.full(len(distinct), -1, dtype=np.intp)
        if size:
            held = self._keys()
            order = np.argsort(held)
            at = order[np.minimum(
                np.searchsorted(held, distinct, sorter=order), size - 1)]
            row_of = np.where(held[at] == distinct, at, row_of)
            del held, order, at
        del distinct
        new = row_of < 0
        opens = np.zeros(len(batch), dtype=bool)
        opens[first[new]] = True
        row_of[new] = size - 1 + np.cumsum(opens)[first[new]]
        del first, new
        # The row each merging edge merges into, in batch order.
        into = row_of[inverse[~opens]]
        del row_of, inverse

        opened = list(compress(batch, opens.tolist()))
        if opened:
            end = size + len(opened)
            if end > len(self._head_col):
                self._grow(end)
            self._head_col[size:end] = heads[opens]
            self._rel_col[size:end] = relations[opens]
            self._tail_col[size:end] = tails[opens]
            del end_ids, heads, tails, relations
            self._domain_col[size:end] = self._domains.intern_many(
                list(map(_FIELD["domain"], opened)))
            self._behavior_col[size:end] = self._behaviors.intern_many(
                list(map(_FIELD["behavior"], opened)))
            for attr, field, dtype in _NUMBERS:
                getattr(self, attr)[size:end] = np.fromiter(
                    map(field, opened), dtype=dtype, count=len(opened))
            self._head_ids_len_col[size:end] = np.fromiter(
                map(len, map(_HEAD_IDS, opened)), dtype=np.int32,
                count=len(opened))
            self._head_ids_flat.extend(
                chain.from_iterable(map(_HEAD_IDS, opened)))
            self._size = end
            self._head_ids_end = None
        del opened
        self._head_index = None
        self._row_of = None
        if not into.size:
            return

        merged = list(compress(batch, (~opens).tolist()))
        plausibility, typicality, support = (
            np.fromiter(map(field, merged), dtype=dtype, count=len(merged))
            for _, field, dtype in _NUMBERS)
        del merged
        # ``add`` replaces a score only by a greater one: a running
        # maximum that a NaN never enters and a NaN first insert never
        # leaves.  A frozen column is copied before it is written.
        for attr, scores in (("_plaus_col", plausibility),
                             ("_typ_col", typicality)):
            column = self._owned(attr)
            settled = ~np.isnan(column[into])
            np.fmax.at(column, into[settled], scores[settled])
        np.add.at(self._owned("_support_col"), into, support)

    # ------------------------------------------------------------------
    def _records(self, heads: list[str], relations: list[int],
                 tails: list[int], domains: list[int], behaviors: list[int],
                 plausibility: list[float], typicality: list[float],
                 support: list[int], counts: list[int],
                 ends: list[int]) -> list[KnowledgeTriple]:
        """The one record builder, for a run of rows handed over a column
        at a time as Python lists: ids become strings by list indexes
        into the intern tables, a row's provenance is the slice of the
        flat run that ends at its ``ends`` value (read only when some
        ``counts`` value is non-zero), and ``zip`` lines the nine columns
        up as one tuple per row in field order.  ``tuple.__new__`` turns
        each into a :class:`KnowledgeTriple` in C: no Python frame runs
        per record."""
        if any(counts):
            flat = self._head_ids_flat
            head_ids = [tuple(flat[end - count:end])
                        for end, count in zip(ends, counts)]
        else:
            head_ids = [()] * len(counts)
        return list(map(tuple.__new__, repeat(KnowledgeTriple), zip(
            heads,
            map(_RELATION_OF.__getitem__,
                map(self._relations._values.__getitem__, relations)),
            map(self._nodes._values.__getitem__, tails),
            map(self._domains._values.__getitem__, domains),
            map(self._behaviors._values.__getitem__, behaviors),
            plausibility, typicality, support, head_ids)))

    def _rows(self, rows: slice | np.ndarray) -> list[KnowledgeTriple]:
        """The triples at ``rows`` (an index array or a slice), in that
        order: each column is gathered once with ``tolist()`` and handed
        to :meth:`_records`."""
        return self._records(
            list(map(self._nodes._values.__getitem__,
                     self._head_col[rows].tolist())),
            self._rel_col[rows].tolist(), self._tail_col[rows].tolist(),
            self._domain_col[rows].tolist(),
            self._behavior_col[rows].tolist(),
            self._plaus_col[rows].tolist(), self._typ_col[rows].tolist(),
            self._support_col[rows].tolist(),
            self._head_ids_len_col[rows].tolist(),
            self._ends()[rows].tolist() if self._head_ids_flat else [])

    def __len__(self) -> int:
        return self._size

    def triples(self) -> list[KnowledgeTriple]:
        return self._rows(slice(0, self._size))

    def for_domain(self, domain: str) -> list[KnowledgeTriple]:
        domain_id = self._domains.id_of(domain)
        if domain_id is None:
            return []
        rows = np.nonzero(self._domain_col[: self._size] == domain_id)[0]
        return self._rows(rows)

    def domains(self) -> list[str]:
        """Distinct edge domains in first-appearance order."""
        return list(self._domains.values())

    def edges_for(self, domain: str, behavior: str) -> int:
        """Table 3 cell: refined edges per (domain, behavior), counted now."""
        domain_id = self._domains.id_of(domain)
        behavior_id = self._behaviors.id_of(behavior)
        if domain_id is None or behavior_id is None:
            return 0
        return int(np.count_nonzero(
            (self._domain_col[: self._size] == domain_id)
            & (self._behavior_col[: self._size] == behavior_id)))

    def stats(self) -> KGStats:
        """Table 1 aggregates — table lengths, no edge scan needed."""
        return KGStats(
            nodes=len(self._nodes),
            edges=self._size,
            relations=len(self._relations),
            domains=len(self._domains),
        )

    # ------------------------------------------------------------------
    # Read indexes
    # ------------------------------------------------------------------
    def _ends(self) -> np.ndarray:
        """Each row's end in the flat provenance: the running sum of the
        length column, derived on first use after a row is added."""
        if self._head_ids_end is None:
            self._head_ids_end = np.cumsum(
                self._head_ids_len_col[: self._size], dtype=np.int64)
        return self._head_ids_end

    def _build_head_index(self) -> tuple[np.ndarray, ...]:
        """CSR offsets over the head column, then each of
        :data:`_HEAD_BLOCKS` filled in head order: one stable sort of
        the heads (a head's rows stay in insertion order) and one
        ``take`` per column into its preallocated block row.  Every
        index is in range, so ``mode="wrap"`` changes no value; it only
        spares the copy of ``out`` that the default mode makes first."""
        n = self._size
        heads = self._head_col[:n]
        order = np.argsort(heads, kind="stable")
        offsets = np.zeros(len(self._nodes) + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=len(self._nodes)),
                  out=offsets[1:])
        self._ends()
        index = [offsets]
        for dtype, attrs in _HEAD_BLOCKS:
            block = np.empty((len(attrs), n), dtype=dtype)
            for column, attr in zip(block, attrs):
                np.take(getattr(self, attr)[:n], order, out=column,
                        mode="wrap")
            index.append(block)
        self._head_index = tuple(index)
        return self._head_index

    def neighbors(self, head: str) -> list[KnowledgeTriple]:
        """Every edge out of ``head``, in insertion order.

        An intern lookup, two offset reads and one slice of each
        head-ordered block of the head index — O(degree) after an
        (amortized) index build, with no scan and no gather.
        """
        node_id = self._nodes.id_of(head)
        if node_id is None:
            return []
        offsets, ints, floats, longs = (self._head_index
                                        or self._build_head_index())
        start, end = offsets.item(node_id), offsets.item(node_id + 1)
        relations, tails, domains, behaviors, counts = (
            ints[:, start:end].tolist())
        plausibility, typicality = floats[:, start:end].tolist()
        support, ends = longs[:, start:end].tolist()
        return self._records(
            [self._nodes._values[node_id]] * (end - start), relations, tails,
            domains, behaviors, plausibility, typicality, support, counts,
            ends)

    # ------------------------------------------------------------------
    def columns(self) -> dict:
        """Read-only view of the columnar form: :data:`ARRAY_COLUMNS`
        as trimmed views over the live columns (callers must not mutate
        them; once :meth:`frozen_columns` has run they cannot), then
        :data:`STRING_COLUMNS` — the id tables and the flat provenance —
        as string tuples.  This and :meth:`from_columns` are the one
        boundary between a graph and everything downstream of it:
        :mod:`repro.core.kg_io` writes this mapping member for member
        and :mod:`repro.refresh.snapshot` freezes and content-addresses
        it.
        """
        n = self._size
        cols: dict = {name: getattr(self, attr)[:n]
                      for name, (attr, _) in _ARRAYS.items()}
        for name, attr in _TABLES.items():
            cols[name] = getattr(self, attr).values()
        cols[_PROVENANCE] = tuple(self._head_ids_flat)
        return cols

    def frozen_columns(self) -> dict:
        """:meth:`columns` over the graph's own buffers, write-locked in
        place: what a snapshot keeps, without a copy.

        A buffer with spare rows is first trimmed by one copy, so a
        frozen buffer holds exactly the graph's edges and nothing else.
        From then on the buffer belongs to whoever holds the frozen
        columns as much as to the graph, and the graph never writes into
        it again: an append reallocates every column through
        :meth:`_grow` (a frozen buffer has no spare row), and a merge
        copies the column it writes first (:meth:`_owned`).
        """
        n = self._size
        for attr, _ in _ARRAYS.values():
            column = getattr(self, attr)
            if len(column) != n:
                column = column[:n].copy()
                setattr(self, attr, column)
            column.setflags(write=False)
        return self.columns()

    @classmethod
    def from_columns(cls, columns: Mapping) -> "KnowledgeGraph":
        """A graph that owns a copy of a :meth:`columns` mapping.

        The arrays are copied (so later ``add``s never write into the
        caller's) and the intern tables are rebuilt in one pass each; no
        merge index is built (a later :meth:`add` derives it, a later
        :meth:`extend` sorts the key column instead) and key uniqueness
        is proved by one stable sort of that column.  What
        :meth:`add` guarantees by construction is checked here, for
        every source of columns, and a mapping that breaks it is
        rejected with a ``ValueError`` rather than repaired: every array
        holds one value per edge, of its column's kind (integer ids,
        support and lengths, float scores), every id resolves inside its
        table, no table repeats a string or holds one that no row
        references (Table 1's node count is the table's length, and the
        snapshot version ranks the table), every relation name is a
        :class:`Relation`, no two rows share a ``(head, relation,
        tail)`` key, and the provenance lengths are non-negative and sum
        to the count of flat provenance ids.
        """
        kg = cls()
        for name, attr in _TABLES.items():
            setattr(kg, attr, _InternTable.adopt(name, columns[name]))
        for value in kg._relations.values():
            if value not in _RELATION_OF:
                raise ValueError(f"table 'relations' holds {value!r}, "
                                 "which is not a Relation")
        edges = np.asarray(columns["head"]).size
        referenced = {name: np.zeros(len(getattr(kg, attr)), dtype=np.int64)
                      for name, attr in _TABLES.items()}
        for name, (attr, dtype) in _ARRAYS.items():
            values = np.asarray(columns[name])
            if values.shape != (edges,):
                raise ValueError(f"column {name!r} has {values.size} values "
                                 f"for {edges} edges (shape {values.shape})")
            if not np.can_cast(values.dtype, dtype, casting="same_kind"):
                raise ValueError(f"column {name!r} is {values.dtype}, "
                                 f"not {np.dtype(dtype)}")
            table = _TABLE_OF.get(name)
            if table is not None:
                size = len(referenced[table])
                if edges and (int(values.min()) < 0
                              or int(values.max()) >= size):
                    raise ValueError(
                        f"column {name!r} has ids outside the {table!r} table "
                        f"(size {size})")
                referenced[table] += np.bincount(values.astype(np.intp),
                                                 minlength=size)
            setattr(kg, attr, values.astype(dtype))
        kg._head_ids_flat = list(columns[_PROVENANCE])
        # The lengths as given: the int32 cast above could have wrapped.
        lengths = np.asarray(columns["head_ids_len"])
        if int(lengths.min(initial=0)) < 0:
            raise ValueError("column 'head_ids_len' holds negative lengths")
        if int(lengths.sum(dtype=np.int64)) != len(kg._head_ids_flat):
            raise ValueError(
                f"column {_PROVENANCE!r} has {len(kg._head_ids_flat)} values: "
                "head_ids lengths disagree with flat values")
        kg._size = edges

        # Adjacent equal keys under a stable sort are a key's rows in row
        # order; the earliest of them names the first key seen twice.
        keys = kg._keys()
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        again = order[1:][ranked[1:] == ranked[:-1]]
        if again.size:
            row = int(again.min())
            raise ValueError(
                "rows repeat the (head, relation, tail) key "
                f"({kg._nodes.value(int(kg._head_col[row]))!r}, "
                f"{kg._relations.value(int(kg._rel_col[row]))!r}, "
                f"{kg._nodes.value(int(kg._tail_col[row]))!r})")
        for name, counts in referenced.items():
            orphans = np.flatnonzero(counts == 0)
            if orphans.size:
                orphan = getattr(kg, _TABLES[name]).value(int(orphans[0]))
                raise ValueError(f"table {name!r} holds {orphan!r}, "
                                 "which no row references")
        return kg
