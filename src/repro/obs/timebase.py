"""The repo's one sanctioned wall-clock call site.

Everything that *behaves* on time runs on simulated clocks —
:class:`~repro.serving.clock.SimClock` in serving, the LLM
simulated-seconds accumulator in the pipeline — so tests, benches and
chaos scenarios replay bit-identically.  Real elapsed-time *profiling*
(how long did this stage actually take on this machine?) is inherently
nondeterministic, and this module is the narrow waist it flows through:
the ``wall-clock`` source rule (``tests/test_source_rules.py``) allowlists
exactly ``obs/timebase.py``; a ``time.perf_counter`` call anywhere else
in the tree fails the tests.

Wall-clock numbers must never feed metrics snapshots, traces, or any
other artifact that is asserted byte-identical across runs — keep them
in clearly-marked profile sections only.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["wall_now", "WallProfiler"]


def wall_now() -> float:
    """Monotonic wall-clock seconds (the only ``perf_counter`` call)."""
    return time.perf_counter()


class WallProfiler:
    """Accumulates real elapsed seconds per named section.

    The report is explicitly marked nondeterministic so downstream
    tooling never mistakes it for simulated-time output.
    """

    def __init__(self) -> None:
        self._sections: dict[str, tuple[float, int]] = {}

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        started = wall_now()
        try:
            yield
        finally:
            elapsed = wall_now() - started
            total, count = self._sections.get(name, (0.0, 0))
            self._sections[name] = (total + elapsed, count + 1)

    def total_s(self, name: str) -> float:
        return self._sections.get(name, (0.0, 0))[0]

    def report(self) -> str:
        lines = ["wall-clock profile (nondeterministic; for humans only):"]
        for name, (total, count) in self._sections.items():
            lines.append(f"  {name:<24s} {total:9.3f}s  ({count} run(s))")
        if len(lines) == 1:
            lines.append("  (no sections profiled)")
        return "\n".join(lines)
