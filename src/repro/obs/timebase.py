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

Wall-clock numbers must never feed metrics snapshots, traces, stdout, or
any other output that is asserted byte-identical across runs; the
overhead benches time their arms with ``wall_now()`` pairs.
"""

from __future__ import annotations

import time

__all__ = ["wall_now"]


def wall_now() -> float:
    """Monotonic wall-clock seconds (the only ``perf_counter`` call)."""
    return time.perf_counter()
