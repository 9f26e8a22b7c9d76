"""Feature store (§3.5.1): the last COSMO-LM response stored per query.

Each key holds ``(response text, refresh day)``.  Serving reads the text
back when the cache misses (degraded serving, :meth:`FeatureStore.text`),
and the daily refresh regenerates every entry more than a day old
(:meth:`FeatureStore.stale_keys`), so the staleness limitation §3.5.3
discusses is observable.  A write is one flush window
(:meth:`FeatureStore.put_many`), stored as given.
"""

from __future__ import annotations

from repro.serving.clock import SimClock

__all__ = ["FeatureStore"]


class FeatureStore:
    """Key → ``(knowledge_text, refreshed_day)`` with refresh-day
    versioning."""

    def __init__(self, clock: SimClock):
        self._clock = clock
        self._records: dict[str, tuple[str, int]] = {}

    def __len__(self) -> int:
        return len(self._records)

    def put_many(self, pairs: list[tuple[str, str]]) -> None:
        """Store each ``(key, knowledge_text)`` pair of one window, in order
        (a repeated key keeps its last text), stamped with one clock read;
        a non-``str`` text rejects the window before any of it is stored
        (nothing parses a response, so a bad one is stopped here rather
        than served)."""
        if not pairs:
            return
        for key, text in pairs:
            if not isinstance(text, str):
                raise TypeError(f"knowledge_text for {key!r} must be str, "
                                f"got {type(text).__name__}")
        day = self._clock.day
        self._records.update({key: (text, day) for key, text in pairs})

    def text(self, key: str) -> str | None:
        """``key``'s stored response, or None."""
        entry = self._records.get(key)
        return None if entry is None else entry[0]

    def stale_keys(self) -> list[str]:
        """Keys whose features are more than a day old."""
        today = self._clock.day
        return [key for key, (_, refreshed_day) in self._records.items()
                if today - refreshed_day > 1]
