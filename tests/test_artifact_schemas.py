"""Mutation test of the artifact schemas (``repro.obs.artifacts``).

Each of the six documents is rendered in-process from a seeded scenario
drive (the cached rigs of ``tests/test_scenarios.py``), then mutated one
field at a time: every dict key, and one list element per variant,
gets a value of each other JSON type, every required key of a closed
object is deleted, and every closed object gets an unknown key.  Each
mutant must raise ``ValueError`` — never validate, never raise anything
else.  What the generator has to know about the formats (which objects
are open maps, which keys are optional, where a union admits a second
type) is stated here, independently of the tables under test.
"""

import json
import re

import pytest

from repro import obs, scenarios
from tests.test_scenarios import _KGHEALTH, _MONITOR_CHAOS, _TRACE, _played

#: Registry id -> (drive argv, ``scenarios.ARTIFACTS`` key): the drive whose
#: document exercises the most of that schema.
SOURCES = {
    obs.CHROME_TRACE_SCHEMA: (_TRACE, "trace"),
    obs.SNAPSHOT_SCHEMA: (_TRACE, "metrics"),
    obs.TRACES_SCHEMA: (_TRACE, "summary"),
    obs.EVENTS_SCHEMA: (_TRACE, "events"),
    obs.ALERTS_SCHEMA: (_MONITOR_CHAOS, "alerts"),
    obs.KG_HEALTH_SCHEMA: (_KGHEALTH + ("poisoned",), "health"),
}

SUBSTITUTES = {"null": None, "boolean": True, "string": "x", "number": 1.5,
               "array": [], "object": {}}

#: Open maps: members come and go, only their values are typed.
OPEN_MAPS = re.compile(
    r".*\.(labels|stages|attrs|funnel|\w+_edges)$|drift\[\d+\]\.metrics$")
#: Keys a closed object may omit.
OPTIONAL = re.compile(
    r".*\.exemplar$|traceEvents\[\d+\]\.args\.(error_type|trace_id)$")
#: The closed keys of a span event's ``args``; the rest are span attributes.
SPAN_ARGS = {"span_id", "parent_id", "status", "error_type", "trace_id"}
#: Where the format admits more than one JSON type.
SCALAR_TYPES = {"string", "number", "boolean"}
UNIONS = (
    (re.compile(r"events\[\d+\]\.attrs\.\w+$"), SCALAR_TYPES),
    (re.compile(r"snapshots\[\d+\]\.parent$|gates\[\d+\]\.parent_version$"),
     {"null", "string"}),
)


each_schema = pytest.mark.parametrize(
    "schema_id", list(SOURCES), ids=[key for _, key in SOURCES.values()])


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def _rendered(schema_id: str):
    """The source document as its renderer returns it (JSONL text for the
    event log); drives are cached and shared, so never mutate this."""
    argv, key = SOURCES[schema_id]
    drive = _played(*argv)
    return (drive.artifacts[key] if key in drive.artifacts
            else scenarios.ARTIFACTS[key].render(drive))


def _document(schema_id: str):
    """A fresh copy of the source document, as parsed from its file form."""
    rendered = _rendered(schema_id)
    if schema_id == obs.EVENTS_SCHEMA:
        return obs.validate(schema_id, rendered)
    return json.loads(json.dumps(rendered))


def _shape(item):
    """What makes a list element a variant of its own: its keys, the keys
    of its object-valued members and its ``ph`` / ``kind`` tag."""
    if not isinstance(item, dict):
        return None
    return (item.get("ph"), item.get("kind")) + tuple(sorted(
        (key, tuple(sorted(value)) if isinstance(value, dict) else None)
        for key, value in item.items()))


def _sampled(items: list):
    """The first list element of each shape."""
    seen = set()
    for index, item in enumerate(items):
        if _shape(item) not in seen:
            seen.add(_shape(item))
            yield index, item


def _sites(node, path=""):
    """``(container, key, path, role)`` of every place to mutate.  A field's
    role is ``required`` / ``optional`` (a closed object's key), ``member``
    (of an open map) or ``element`` (of a list); a closed object itself is
    a site too, with key ``None`` and role ``closed``."""
    if isinstance(node, dict):
        span_args = path.endswith(".args") and "span_id" in node
        if not OPEN_MAPS.match(path) and not span_args:
            yield node, None, path or "top level", "closed"
        for key, value in list(node.items()):
            member = f"{path}.{key}" if path else key
            if OPEN_MAPS.match(path) or (span_args and key not in SPAN_ARGS):
                role = "member"
            else:
                role = "optional" if OPTIONAL.match(member) else "required"
            yield node, key, member, role
            yield from _sites(value, member)
    elif isinstance(node, list):
        for index, item in _sampled(node):
            yield node, index, f"{path}[{index}]", "element"
            yield from _sites(item, f"{path}[{index}]")


def _admitted(path: str, role: str) -> set:
    """JSON types the format admits at ``path`` besides the one it holds."""
    if role == "member" and ".args." in path:   # a span attribute
        return SCALAR_TYPES
    for pattern, types in UNIONS:
        if pattern.match(path):
            return types
    return set()


def _mutations(document):
    """Apply each single-field mutation in place, yield its label, undo it."""
    for container, key, path, role in list(_sites(document)):
        if role == "closed":
            container["unknown_key"] = 0
            yield f"{path} + unknown_key"
            del container["unknown_key"]
            continue
        original = container[key]
        skip = _admitted(path, role) | {_json_type(original)}
        for name, substitute in SUBSTITUTES.items():
            if name not in skip:
                container[key] = substitute
                yield f"{path} = {name}"
        container[key] = original
        if role == "required":
            del container[key]
            yield f"{path} deleted"
            container[key] = original


def _verdict(schema_id: str, document) -> str:
    try:
        obs.validate(schema_id, document)
    except ValueError:
        return "rejected"
    except Exception as error:  # the defect class: TypeError instead of ValueError
        return f"raised {type(error).__name__}: {error}"
    return "accepted"


@each_schema
def test_single_field_mutants_raise_value_error(schema_id):
    document = _document(schema_id)
    assert _verdict(schema_id, document) == "accepted"
    survivors, total = [], 0
    for label in _mutations(document):
        total += 1
        verdict = _verdict(schema_id, document)
        if verdict != "rejected":
            survivors.append(f"{label}: {verdict}")
    assert survivors == []
    assert total > 50, "the source document is too small to mean anything"
    assert _verdict(schema_id, document) == "accepted"   # every mutation undone


@each_schema
def test_non_object_document_is_rejected(schema_id):
    for name, substitute in SUBSTITUTES.items():
        if name != "object":
            assert _verdict(schema_id, substitute) == "rejected", name
    assert _verdict(schema_id, {}) == "rejected"


@each_schema
def test_document_of_another_schema_is_rejected(schema_id):
    document = _document(schema_id)
    for other in SOURCES:
        if other != schema_id:
            assert _verdict(other, document) == "rejected", other


def test_dispatch_picks_the_schema_from_the_document():
    for schema_id in SOURCES:
        jsonl = schema_id == obs.EVENTS_SCHEMA
        rendered = _rendered(schema_id)
        text = rendered if jsonl else json.dumps(rendered)
        assert obs.dispatch(text, jsonl=jsonl) is obs.SCHEMAS[schema_id]
    with pytest.raises(ValueError, match="unrecognized artifact schema 'nope/v0'"):
        obs.dispatch(json.dumps({"schema": "nope/v0"}))
    with pytest.raises(ValueError, match="unrecognized artifact schema None"):
        obs.dispatch("[]")
    with pytest.raises(ValueError):
        obs.dispatch("not json")
