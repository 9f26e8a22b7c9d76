"""Feature store (§3.5.1): model responses → structured features.

Transfers COSMO-LM responses into actionable features for downstream
applications: product key-value pairs, semantic subcategory
representations, and strong-intent flags.  Entries are versioned by
refresh day so the staleness limitation §3.5.3 discusses is observable.

A record stores what was written (key, response text, refresh day,
extras) and is *structured on first read*: ``relation``, ``tail``,
``tail_type`` and ``strong_intent`` come from one ``parse_predicate``
call the first time any of them is read.  Serving only reads the text
back, so a write parses nothing and a flush is one ``put_many``.
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


@dataclass(frozen=True, slots=True)
class FeatureRecord:
    """Structured features distilled from one model response.

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
        # Nothing parses at the write, so a bad response is rejected here
        # rather than stored and served.
        if not isinstance(self.knowledge_text, str):
            raise TypeError(f"knowledge_text for {self.key!r} must be str, "
                            f"got {type(self.knowledge_text).__name__}")

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
    """Key → feature-record mapping with refresh-day versioning.

    Writes store the response as given (:meth:`put` one record,
    :meth:`put_many` one flush window); see :class:`FeatureRecord` for
    when it is structured.
    """

    def __init__(self, clock: SimClock):
        self._clock = clock
        self._records: dict[str, FeatureRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    @staticmethod
    def structure(key: str, knowledge_text: str, refreshed_day: int,
                  extras: dict[str, str] | None = None) -> FeatureRecord:
        """The (lazily structured) record for one raw model response."""
        return FeatureRecord(key, knowledge_text, refreshed_day, extras or {})

    def put(self, key: str, knowledge_text: str, extras: dict[str, str] | None = None) -> FeatureRecord:
        """Store one model response; returns the stored record."""
        record = self.structure(key, knowledge_text, self._clock.day, extras)
        self._records[key] = record
        return record

    def put_many(self, pairs: list[tuple[str, str]]) -> None:
        """:meth:`put` each ``(key, knowledge_text)`` pair of one window, in
        order (a repeated key keeps its last text), with one clock read per
        window; a bad pair rejects the window before any of it is stored."""
        if not pairs:
            return
        day = self._clock.day
        records = {key: FeatureRecord(key, text, day) for key, text in pairs}
        self._records.update(records)

    def get(self, key: str) -> FeatureRecord | None:
        return self._records.get(key)

    def stale_keys(self) -> list[str]:
        """Keys whose features are more than a day old."""
        today = self._clock.day
        return [
            key
            for key, record in self._records.items()
            if today - record.refreshed_day > 1
        ]
