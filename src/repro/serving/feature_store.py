"""Feature store (§3.5.1): model responses → structured features.

Transfers COSMO-LM responses into actionable features for downstream
applications: product key-value pairs, semantic subcategory
representations, and strong-intent flags.  Entries are versioned by
refresh day so the staleness limitation §3.5.3 discusses is observable.

The store keeps what was written, ``(response text, refresh day,
extras)`` per key, and :meth:`FeatureStore.get` builds a
:class:`FeatureRecord` view of it.  A view is *structured on first
read*: ``relation``, ``tail``, ``tail_type`` and ``strong_intent`` come
from one ``parse_predicate`` call the first time any of them is read.
Serving only reads the text back (:meth:`FeatureStore.text`), so a write
parses nothing, a flush is one ``put_many`` and a degraded serve builds
no record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.relations import RELATION_SPECS, Relation, parse_predicate
from repro.serving.clock import SimClock

__all__ = ["FeatureRecord", "FeatureStore"]

_STRUCTURED = ("relation", "tail", "tail_type", "strong_intent")
#: Activity/function knowledge: what navigation treats as explicit intents.
_STRONG_INTENT = (Relation.USED_FOR_EVE, Relation.X_WANT, Relation.USED_FOR_FUNC,
                  Relation.CAPABLE_OF, Relation.USED_TO)


def _require_text(key: str, knowledge_text: object) -> None:
    # Nothing parses at the write, so a bad response is rejected here
    # rather than stored and served.
    if not isinstance(knowledge_text, str):
        raise TypeError(f"knowledge_text for {key!r} must be str, "
                        f"got {type(knowledge_text).__name__}")


@dataclass(frozen=True, slots=True)
class FeatureRecord:
    """Structured features distilled from one model response: a read
    view of one :class:`FeatureStore` entry.

    The four structured fields are functions of ``knowledge_text`` (so
    not compared); their slots stay empty until one of them is read.
    """

    key: str
    knowledge_text: str
    relation: str | None = field(init=False, compare=False)
    tail: str | None = field(init=False, compare=False)
    tail_type: str | None = field(init=False, compare=False)
    strong_intent: bool = field(init=False, compare=False)
    refreshed_day: int
    extras: dict[str, str] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        _require_text(self.key, self.knowledge_text)

    def __getattr__(self, name: str):
        # Only reached while ``name``'s slot is empty: the first read of
        # a structured field parses once and fills all four.
        if name not in _STRUCTURED:
            raise AttributeError(name)
        values = (None, None, None, False)
        if (parsed := parse_predicate(self.knowledge_text)) is not None:
            relation, tail = parsed
            values = (relation.value, tail, RELATION_SPECS[relation].tail_type.value,
                      relation in _STRONG_INTENT)
        for slot, value in zip(_STRUCTURED, values):
            object.__setattr__(self, slot, value)
        return getattr(self, name)


class FeatureStore:
    """Key → ``(knowledge_text, refreshed_day, extras or None)`` with
    refresh-day versioning.

    Writes store the response as given (:meth:`put` one entry,
    :meth:`put_many` one flush window); :meth:`get` returns a
    :class:`FeatureRecord` view and :meth:`text` the response alone.
    """

    def __init__(self, clock: SimClock):
        self._clock = clock
        self._records: dict[str, tuple[str, int, dict[str, str] | None]] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    @staticmethod
    def structure(key: str, knowledge_text: str, refreshed_day: int,
                  extras: dict[str, str] | None = None) -> FeatureRecord:
        """The (lazily structured) record for one raw model response; it
        holds its own copy of ``extras``."""
        return FeatureRecord(key, knowledge_text, refreshed_day,
                             dict(extras) if extras else {})

    def put(self, key: str, knowledge_text: str, extras: dict[str, str] | None = None) -> FeatureRecord:
        """Store one model response (a copy of ``extras``); returns a view
        of the stored entry."""
        _require_text(key, knowledge_text)
        entry = self._records[key] = (knowledge_text, self._clock.day,
                                      dict(extras) if extras else None)
        return self.structure(key, *entry)

    def put_many(self, pairs: list[tuple[str, str]]) -> None:
        """:meth:`put` each ``(key, knowledge_text)`` pair of one window, in
        order (a repeated key keeps its last text), with one clock read per
        window; a bad pair rejects the window before any of it is stored."""
        if not pairs:
            return
        for key, text in pairs:
            _require_text(key, text)
        day = self._clock.day
        self._records.update({key: (text, day, None) for key, text in pairs})

    def get(self, key: str) -> FeatureRecord | None:
        """A view of ``key``'s entry (a new record on every call)."""
        entry = self._records.get(key)
        return None if entry is None else self.structure(key, *entry)

    def text(self, key: str) -> str | None:
        """``key``'s stored response, with no record built (the serve
        path's read)."""
        entry = self._records.get(key)
        return None if entry is None else entry[0]

    def stale_keys(self) -> list[str]:
        """Keys whose features are more than a day old."""
        today = self._clock.day
        return [
            key
            for key, (_, refreshed_day, _) in self._records.items()
            if today - refreshed_day > 1
        ]
