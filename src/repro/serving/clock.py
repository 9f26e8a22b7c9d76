"""Simulated clock for the serving layer.

Deployment behavior (cache TTLs, daily refreshes, latency percentiles) is
driven by simulated time so tests and benches are deterministic and do
not sleep.
"""

from __future__ import annotations

__all__ = ["SimClock", "SECONDS_PER_DAY"]

SECONDS_PER_DAY = 86_400.0


class SimClock:
    """A manually advanced clock (seconds since simulation start)."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("time cannot move backwards")
        self._now += seconds
        return self._now

    def advance_days(self, days: float) -> float:
        return self.advance(days * SECONDS_PER_DAY)

    def sleep_until(self, timestamp: float) -> float:
        """Advance to an absolute simulated time (no-op when already there).

        Raises :class:`ValueError` when ``timestamp`` is in the past —
        a sleep can only end in the future.
        """
        if timestamp < self._now:
            raise ValueError(
                f"cannot sleep until {timestamp}: already at {self._now}"
            )
        return self.advance(timestamp - self._now)

    def fork(self) -> "SimClock":
        """A new independent clock starting at this clock's current time.

        The sanctioned way to derive a per-component timeline (e.g. one
        clock per cluster replica) — the ``clock-injection`` source
        rule bans raw ``SimClock(...)`` construction outside factory
        modules so every timeline is traceable to an injected ancestor.
        """
        return SimClock(self._now)

    def next_day_start(self) -> float:
        """Simulated timestamp of the next day boundary."""
        return (self.day + 1) * SECONDS_PER_DAY

    @property
    def day(self) -> int:
        """Whole days elapsed since simulation start."""
        return int(self._now // SECONDS_PER_DAY)
