"""Tail-based trace sampling: decide keep/drop when the trace *ends*.

Head truncation (the tracer's ``MAX_SPANS``) keeps whatever came first, which
is exactly wrong for diagnosing incidents: the interesting traces — the
errors, the degraded serves, the slow outliers — arrive after the buffer
filled.  :class:`TailSampler` inverts that.  Trace-tagged spans are
buffered as they open, by ``Tracer._open`` (one shared sampler can back
many tracers); when
the driver reports the trace finished (:meth:`TailSampler.finish`), the
sampler applies its policy:

* **always retain** traces flagged interesting by the caller (errors,
  degraded/fallback outcomes) — reason ``"flagged"``;
* **slowest-k per window**: ordinary traces compete on duration inside a
  fixed time window; the k slowest so far are held on a min-heap, a
  trace that cannot enter them is dropped as it finishes, and when the
  window closes the survivors commit (reason ``"slow"``);
* **head sampling**: every ``head_every``-th ordinary trace commits
  unconditionally (reason ``"head"``) so the sampler keeps a baseline of
  normal traffic for comparison.

Whether a trace is flagged, its head ordinal and its duration are known
only at :meth:`~TailSampler.finish`, so that is the earliest a verdict
can be reached; reaching it there means at most ``slowest_k`` finished
ordinary traces are ever buffered, however busy the window.

Committed spans flow back into their tracer's retained list in verdict
order, each trace's spans in open order (still subject to the tracer's
own ``MAX_SPANS`` hard cap); dropped traces count into each involved
tracer's ``dropped``.  Memory is bounded by
``MAX_BUFFERED_SPANS``: past the bound, new spans are refused at buffer
time (``overflow`` counter) rather than growing without bound.

Everything is driven by caller-supplied simulated timestamps — the
sampler never reads a clock — so decisions are deterministic and the
resulting artifacts byte-stable.
"""

from __future__ import annotations

from heapq import heappush, heappushpop
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.tracing import Span

__all__ = ["TailSampler"]

#: Spans buffered across every pending trace; ``Tracer._open`` refuses
#: (and counts in ``overflow``) a span past it.
MAX_BUFFERED_SPANS = 50_000


class TailSampler:
    """Shared tail-sampling policy over one or more tracers.

    ``slowest_k`` ordinary traces per ``window_s`` commit by duration;
    every ``head_every``-th ordinary trace commits as a baseline sample
    (0 disables head sampling); flagged traces always commit.  The span
    buffer is bounded by ``MAX_BUFFERED_SPANS``.
    """

    def __init__(self, slowest_k: int = 3, window_s: float = 60.0,
                 head_every: int = 100):
        if slowest_k < 0:
            raise ValueError("slowest_k must be non-negative")
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if head_every < 0:
            raise ValueError("head_every must be non-negative")
        self.slowest_k = slowest_k
        self.window_s = window_s
        self.head_every = head_every
        #: trace id → buffered spans, in open order.
        self._buffers: dict[str, list[Span]] = {}
        self._buffered_spans = 0
        #: the window's k slowest so far, a min-heap of
        #: ``(duration_s, -finish order, trace_id)``: its top is the
        #: candidate a slower trace displaces — the fastest, and of equal
        #: durations the one that finished last.
        self._candidates: list[tuple[float, int, str]] = []
        self._window_start: float | None = None
        self._finished = 0  # ordinary-trace counter for head sampling
        self.overflow = 0  # spans refused because the buffer was full
        #: committed/dropped trace counts by reason.
        self.decisions: dict[str, int] = {
            "flagged": 0, "slow": 0, "head": 0, "dropped": 0,
        }

    # ------------------------------------------------------------------
    @property
    def buffered_spans(self) -> int:
        return self._buffered_spans

    @property
    def pending_traces(self) -> int:
        return len(self._buffers)

    # ------------------------------------------------------------------
    def finish(self, trace_id: str, ts: float, duration_s: float,
               flagged: bool = False) -> str:
        """Report a trace complete; returns its (possibly deferred) fate.

        ``ts`` is the trace's completion timestamp on the driver's
        clock; it advances the sampling window.  ``flagged`` marks the
        trace always-retain (error/degraded/fallback).  Returns
        ``"flagged"``, ``"head"``, or ``"deferred"`` — an ordinary trace
        that is either one of the window's k slowest so far (resolved at
        window close or :meth:`flush`) or, when it cannot be, already
        dropped.  That last verdict is the common one, and it costs one
        heap step and one buffer pop.
        """
        start = self._window_start
        if start is None:
            self._window_start = ts
        elif ts >= start + self.window_s:
            self._roll_window(start, ts)
        if flagged:
            self._commit(trace_id, "flagged")
            return "flagged"
        self._finished += 1
        finished = self._finished
        if self.head_every and finished % self.head_every == 1 % self.head_every:
            self._commit(trace_id, "head")
            return "head"
        candidates = self._candidates
        if len(candidates) < self.slowest_k:
            heappush(candidates, (duration_s, -finished, trace_id))
            return "deferred"
        if candidates:
            # The heap is full: whichever of the newcomer and the fastest
            # held ranks lower can no longer be among the k slowest.
            trace_id = heappushpop(candidates, (duration_s, -finished, trace_id))[2]
        # else slowest_k is 0 and the newcomer itself is dropped.
        spans = self._buffers.pop(trace_id, None)
        if spans is not None:
            self._buffered_spans -= len(spans)
            for span in spans:
                span._tracer.dropped += 1
        self.decisions["dropped"] += 1
        return "deferred"

    def flush(self) -> None:
        """Close the open window and resolve its candidates (end of drive)."""
        self._close_window()
        self._window_start = None

    # ------------------------------------------------------------------
    def _roll_window(self, start: float, ts: float) -> None:
        """Close the open window (it began at ``start``) and move to the
        one ``ts`` falls in.

        Only the open window can hold candidates, so it is the one
        closed, however many empty windows the gap spans.  The new start
        is stepped by repeated ``+= window_s`` — a product would not give
        the same float, and the window a later trace lands in depends on
        it.
        """
        self._close_window()
        window_s = self.window_s
        start += window_s
        while ts >= start + window_s:
            start += window_s
        self._window_start = start

    def _close_window(self) -> None:
        # Slowest first; ties broken by finish order so the decision is
        # deterministic even when durations repeat (the common case for
        # fixed cache latencies).
        for _, _, trace_id in sorted(self._candidates, reverse=True):
            self._commit(trace_id, "slow")
        self._candidates.clear()

    def _commit(self, trace_id: str, reason: str) -> None:
        spans = self._buffers.pop(trace_id, [])
        self._buffered_spans -= len(spans)
        for span in spans:
            span._tracer._commit(span)
        self.decisions[reason] += 1
