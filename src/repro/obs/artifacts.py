"""The artifact registry: every obs schema under its id, in one place.

A producer that knows what it rendered calls :func:`validate` with that
schema's id; a file of unknown kind goes through :func:`dispatch`, which
picks the schema once — ``.jsonl`` text is an event log, a JSON object
with ``traceEvents`` a Chrome trace, anything else is looked up by its
``schema`` field.  DESIGN.md §14 tabulates the same registry.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs import events, export, kg_health, slo, trace_query, tracing
from repro.obs.schema import Schema

__all__ = ["SCHEMAS", "dispatch", "validate"]

#: Schema id -> schema (table + cross-field checks), the only such mapping.
SCHEMAS: dict[str, Schema] = {schema.id: schema for schema in (
    export.SCHEMA, slo.SCHEMA, events.SCHEMA,
    trace_query.SCHEMA, kg_health.SCHEMA, tracing.SCHEMA)}


def _lookup(schema_id: object) -> Schema:
    schema = SCHEMAS.get(schema_id) if isinstance(schema_id, str) else None
    if schema is None:
        raise ValueError(f"unrecognized artifact schema {schema_id!r}; "
                         f"the registry knows {sorted(SCHEMAS)}")
    return schema


def validate(schema_id: str, document: Any) -> Any:
    """Check ``document`` against the schema registered as ``schema_id``.

    Raises :class:`ValueError` naming the JSON path of the first
    offending field.  Returns the document — for the event log, whose
    file form is JSONL text, the parsed ``{"header": ..., "events":
    [...]}``.
    """
    return _lookup(schema_id).validate(document)


def dispatch(text: str, *, jsonl: bool = False) -> Schema:
    """Validate an artifact file's text; returns the schema it matched."""
    document: Any = text
    schema = events.SCHEMA
    if not jsonl:
        document = json.loads(text)
        if not isinstance(document, dict):
            schema = _lookup(None)
        elif "traceEvents" in document:
            schema = tracing.SCHEMA
        else:
            schema = _lookup(document.get("schema"))
    schema.validate(document)
    return schema
