"""The scrape grid that paces continuous monitoring.

SLO evaluation and rollout steps happen at fixed simulated-time points
``k * interval_s``.  The drive loop calls :meth:`ScrapeGrid.due` with the
current simulated time after each request and evaluates at every grid
point the clock has crossed since the last call, so the grid stays exact
no matter how unevenly time advances.  Nothing here reads the wall
clock, so a seeded drive replays its alerts and rollout ticks exactly.
"""

from __future__ import annotations

import math

__all__ = ["ScrapeGrid"]


class ScrapeGrid:
    """The ``k * interval_s`` timestamps (``k = 1, 2, ...``) a clock crosses."""

    def __init__(self, interval_s: float):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = float(interval_s)
        self._index = 0  # the last grid multiple returned

    def due(self, now: float) -> list[float]:
        """Every grid timestamp at or before ``now`` not returned yet,
        oldest first (empty when none is due)."""
        last = math.floor(now / self.interval_s + 1e-9)
        due = [k * self.interval_s for k in range(self._index + 1, last + 1)]
        self._index = max(self._index, last)
        return due
