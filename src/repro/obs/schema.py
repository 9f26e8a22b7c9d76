"""One checker for every versioned obs artifact.

A document's *shape* is data.  Each format module declares one table
from the vocabulary below, next to the renderer that emits the document,
and :func:`check` — the only walker — compares a parsed JSON value with
it, raising :class:`ValueError` naming the JSON path of the first
offending field.  What a table cannot say (sums, orderings, references
between fields) is one short cross-field function per schema, run after
the table has established every type.  A :class:`Schema` pairs the two;
:mod:`repro.obs.artifacts` is the registry of all of them.

Vocabulary:

* leaves — ``NUMBER``, ``NON_NEGATIVE``, ``POSITIVE``, ``INT``, ``COUNT``
  (non-negative integer), ``POSITIVE_INT``, ``STRING``, ``NAME``
  (non-empty string), ``BOOL``, ``one_of("a", "b")`` (string literals),
  ``either(leaf, ...)`` and ``nullable(leaf)``; ``bool`` is never a
  number or an integer;
* ``ListOf(item, min_len=0)`` — a list of one item spec;
* ``MapOf(value, min_len=0)`` — an *open* object keyed by non-empty
  strings;
* ``Obj(required, optional={}, extra=None)`` — a *closed* object: a
  missing required key or an unknown key is an error (``extra`` admits
  unknown keys whose values match it);
* ``Tagged(key, {tag: Obj})`` — an object whose shape is picked by the
  string under ``key``.
"""

from __future__ import annotations

import types
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, NoReturn, Sequence, Union

__all__ = [
    "BOOL", "BUCKET_BOUND", "COUNT", "INT", "NAME", "NON_NEGATIVE", "NUMBER",
    "POSITIVE", "POSITIVE_INT", "SCALAR", "STRING",
    "Leaf", "ListOf", "MapOf", "Obj", "Schema", "Spec", "Tagged",
    "check", "check_buckets", "either", "fail", "nullable", "one_of",
]


class Leaf(NamedTuple):
    expected: str                     #: "a number", for the error message
    accepts: Callable[[Any], bool]


class ListOf(NamedTuple):
    item: "Spec"
    min_len: int = 0


class MapOf(NamedTuple):
    value: "Spec"
    min_len: int = 0


class Obj(NamedTuple):
    required: Mapping[str, "Spec"]
    optional: Mapping[str, "Spec"] = types.MappingProxyType({})
    extra: "Spec | None" = None


class Tagged(NamedTuple):
    key: str
    variants: Mapping[str, Obj]


Spec = Union[Leaf, ListOf, MapOf, Obj, Tagged]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


NUMBER = Leaf("a number", _is_number)
NON_NEGATIVE = Leaf("a non-negative number", lambda v: _is_number(v) and v >= 0)
POSITIVE = Leaf("a positive number", lambda v: _is_number(v) and v > 0)
INT = Leaf("an integer", _is_int)
COUNT = Leaf("a non-negative integer", lambda v: _is_int(v) and v >= 0)
POSITIVE_INT = Leaf("a positive integer", lambda v: _is_int(v) and v >= 1)
STRING = Leaf("a string", lambda v: isinstance(v, str))
NAME = Leaf("a non-empty string", lambda v: isinstance(v, str) and v != "")
BOOL = Leaf("a boolean", lambda v: isinstance(v, bool))


def one_of(*literals: str) -> Leaf:
    return Leaf(f"one of {literals}",
                lambda v: isinstance(v, str) and v in literals)


def either(*leaves: Leaf) -> Leaf:
    return Leaf(" or ".join(leaf.expected for leaf in leaves),
                lambda v: any(leaf.accepts(v) for leaf in leaves))


def nullable(leaf: Leaf) -> Leaf:
    return either(leaf, Leaf("null", lambda v: v is None))


#: A span or event attribute value.
SCALAR = either(STRING, NUMBER, BOOL)
#: A cumulative-histogram bucket's upper bound.
BUCKET_BOUND = either(NUMBER, one_of("+Inf"))


def fail(where: str, message: str) -> NoReturn:
    raise ValueError(f"at {where or 'the top level'}: {message}")


def _got(value: Any) -> str:
    scalar = value is None or isinstance(value, (bool, int, float, str))
    return repr(value) if scalar else type(value).__name__


def _member(where: str, key: object) -> str:
    return f"{where}.{key}" if where else str(key)


def check(spec: Spec, value: Any, where: str = "") -> None:
    """Raise :class:`ValueError` unless ``value`` has the shape ``spec``."""
    if isinstance(spec, Leaf):
        if not spec.accepts(value):
            fail(where, f"expected {spec.expected}, got {_got(value)}")
    elif isinstance(spec, ListOf):
        if not isinstance(value, list) or len(value) < spec.min_len:
            fail(where, "expected a non-empty list" if spec.min_len
                 else "expected a list")
        for index, item in enumerate(value):
            check(spec.item, item, f"{where}[{index}]")
    elif isinstance(spec, MapOf):
        if not isinstance(value, Mapping) or len(value) < spec.min_len:
            fail(where, "expected a non-empty object" if spec.min_len
                 else "expected an object")
        for key, item in value.items():
            if not NAME.accepts(key):
                fail(where, "keys must be non-empty strings")
            check(spec.value, item, f"{where}[{key!r}]")
    elif isinstance(spec, Obj):
        if not isinstance(value, Mapping):
            fail(where, "expected an object")
        for key, member in spec.required.items():
            if key not in value:
                fail(_member(where, key), "required key is missing")
            check(member, value[key], _member(where, key))
        for key, item in value.items():
            if key not in spec.required:
                known = spec.optional.get(key, spec.extra)
                if known is None:
                    fail(_member(where, key), "unknown key")
                check(known, item, _member(where, key))
    else:
        if not isinstance(value, Mapping):
            fail(where, "expected an object")
        tag = value.get(spec.key)
        variant = spec.variants.get(tag) if isinstance(tag, str) else None
        if variant is None:
            fail(_member(where, spec.key),
                 f"expected one of {tuple(spec.variants)}, got {_got(tag)}")
        check(variant, value, where)


def check_buckets(where: str, buckets: Sequence[Mapping[str, Any]],
                  total: int) -> None:
    """The cross-field rules of a cumulative histogram: counts never
    decrease and the last bucket is the ``+Inf`` overflow holding
    ``total``."""
    previous = 0
    for index, bucket in enumerate(buckets):
        if bucket["count"] < previous:
            fail(f"{where}[{index}].count", "bucket counts must be non-decreasing")
        previous = bucket["count"]
    if buckets[-1]["le"] != "+Inf":
        fail(where, "last bucket must be the +Inf overflow bucket")
    if previous != total:
        fail(where, f"cumulative bucket count {previous} must equal "
                    f"the total {total}")


@dataclass(frozen=True)
class Schema:
    """One artifact format: its registry id, table and cross-field checks.

    ``parse`` turns the format's text form into the document the table
    describes; only the JSONL event log needs one — every other format
    is plain JSON.
    """

    id: str
    label: str
    table: Spec
    cross: Callable[[Any], None]
    parse: Callable[[str], Any] | None = None

    def validate(self, document: Any) -> Any:
        """Check ``document``; returns it (parsed, if it came as text)."""
        try:
            if self.parse is not None and isinstance(document, str):
                document = self.parse(document)
            check(self.table, document)
            self.cross(document)
        except ValueError as error:
            raise ValueError(f"invalid {self.label} {error}") from None
        return document
