"""Reference kernel and the reference-normalised timing estimator.

Raw wall-clock on this small shared box is useless as a metric: the
machine flips, for seconds to tens of seconds at a time, into a state in
which the same Python runs 1.5–2x slower (a 60 s series of one fixed
loop read 0.62 ms for half a minute, then 1.24 ms), and at other times
loses the processor in bursts.  So no timed metric of this benchmark is
a raw time.  Every slice of work is bracketed by *readings* of a fixed
pure-Python **reference kernel** — a few back-to-back calls — and its
cost is expressed in *ref-µs*: microseconds on a machine whose
calm-state kernel call takes exactly one millisecond.

A reading must see what the work it brackets suffers.  A short ingress
call sheds a burst (its cost is the median over repetitions), so the
reading around a slice of such calls is the *median* of 5 kernel calls.
A knowledge-plane stage of 0.1–1 s absorbs every burst that falls into
it, so the reading around a stage is the *mean* of 64 calls (≈20 ms):
over 8 processes whose median kernel call stayed within 1.07–1.15x of
the floor while the raw cycle ranged 3.1–4.4 s, the normalised cycle
spread 12 % (interquartile) with median-of-16 readings and 4 % with
mean-of-64.

The kernel mixes what the serving path and the knowledge plane spend
their time on (BLAKE2 hashing and bisect as in the router, small-dict
stores, slot-object and frozen-dataclass allocation, f-string
formatting, float bisect as in a histogram, numpy-scalar conversion as
in the columnar KG) over a small working set, so that a reading tracks
the state of the machine and not what the preceding slice left in the
caches.  (A kernel reading a 400 k-entry table, as first proposed, ran
30 % apart in two processes doing identical work, because its own time
depended on how much of the table the slice in between had evicted.)

The kernel is allocation-heavy and reacts to the slow state more
strongly than any of the workloads do.  Measured over 8 processes x 5
repetitions per workload, dividing by the reading itself over-corrects;
dividing by ``(1 - DAMPING) * floor + DAMPING * reading`` — ``floor``
being the fastest kernel call the process ever saw, which differs by
under 1 % between processes — gave the tightest run-to-run agreement on
all four workloads for any ``DAMPING`` from 0.8 to 0.9.

All clock reads go through :func:`repro.obs.timebase.wall_now`; the
collector is paused inside every timed section (:class:`paused_gc`).
"""

from __future__ import annotations

import gc
import hashlib
import statistics
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.obs.timebase import wall_now

#: Kernel calls per reading (their median) around a ≈15–30 ms slice of
#: short calls.
SLICE_SAMPLES = 5
#: Kernel calls per reading (their mean) each side of a coarse stage.
STAGE_SAMPLES = 64
#: Share of a reading's excess over the floor that the work is taken to
#: have suffered too (see the module docstring).
DAMPING = 0.85

_STEPS = 64


class _Cell:
    __slots__ = ("key", "value", "label")

    def __init__(self, key, value, label):
        self.key = key
        self.value = value
        self.label = label


@dataclass(frozen=True)
class _Row:
    head: str
    tail: str
    score: float
    support: int


class ReferenceKernel:
    """A fixed unit of pure-Python work on a small working set."""

    def __init__(self):
        self._keys = [(step * 7 % 97, step) for step in range(_STEPS)]
        self._table = {key: index for index, key in enumerate(self._keys)}
        self._ring = sorted(
            int.from_bytes(hashlib.blake2b(str(i).encode(), digest_size=8).digest(), "big")
            for i in range(256))
        self._bounds = tuple(0.0005 * 2 ** i for i in range(19))
        self._ids = np.arange(_STEPS, dtype=np.int32)
        self._scores = np.linspace(0.0, 1.0, _STEPS)
        #: Fastest single call seen: the calm-state speed of this machine.
        self.floor_s = float("inf")
        self.calls = 0
        self.spent_s = 0.0

    def run(self) -> int:
        table, ring, bounds = self._table, self._ring, self._bounds
        ids, scores = self._ids, self._scores
        small: dict[int, _Cell] = {}
        counts = [0] * (len(bounds) + 1)
        rows = []
        total = 0
        for step, key in enumerate(self._keys):
            value = table[key]
            digest = hashlib.blake2b(f"7|key|{value}".encode("utf-8"),
                                     digest_size=8).digest()
            total = (total * 31
                     + bisect_left(ring, int.from_bytes(digest, "big"))) % 1000003
            small[step & 15] = _Cell(key, total, f"cell {value:06d}:{step}")
            counts[bisect_left(bounds, float(0.002 + step * 1e-5))] += 1
            rows.append(_Row(head=f"q {int(ids[step])}", tail="t",
                             score=float(scores[step]), support=int(ids[step])))
        return total + len(rows)

    def reading(self, coarse: bool) -> float:
        """Seconds per kernel call now: the mean of ``STAGE_SAMPLES``
        back-to-back calls beside a coarse stage, else the median of
        ``SLICE_SAMPLES``."""
        samples = STAGE_SAMPLES if coarse else SLICE_SAMPLES
        timings = []
        for _ in range(samples):
            started = wall_now()
            self.run()
            timings.append(wall_now() - started)
        self.calls += samples
        self.spent_s += sum(timings)
        self.floor_s = min(self.floor_s, min(timings))
        return statistics.fmean(timings) if coarse else statistics.median(timings)


class paused_gc:
    """Collect, then pause the collector for the timed block.

    Collector scheduling is allocation-count noise that lands unevenly
    across repetitions (the repo's convention, see
    ``bench_trace_overhead``); what the block allocates is collected by
    the next block's entry.
    """

    def __enter__(self):
        gc.collect()
        gc.disable()
        return self

    def __exit__(self, exc_type, exc, tb):
        gc.enable()
        return False


class Recorder:
    """Timed calls of one repetition, bracketed by kernel readings.

    Work is recorded slice by slice: ``open`` takes a reading, every
    ``close`` takes another and keeps it as the next slice's opening one
    — back-to-back slices share a boundary.  A slice is either a run of
    short ingress calls, each timed on its own (:meth:`close`), or one
    coarse stage (:meth:`close_stage`).  Times stay raw until
    :meth:`finalise` converts them with the process-wide kernel floor,
    which is only known once every repetition has run.  With a span log
    attached, each slice's spans are folded into per-op self time and
    converted on the same scale.
    """

    def __init__(self, kernel: ReferenceKernel, log=None):
        self._kernel = kernel
        self._log = log
        self._before = 0.0
        self._raw: list[tuple] = []
        self.raw_s = 0.0
        #: ref-µs per timed call, in call order.
        self.call_ref_us: list[float] = []
        #: per slice: ({op: [self ref-µs, calls]}, ref-µs inside spans,
        #: ref-µs of the whole slice) — empty without a span log.
        self.layers: list[tuple[dict[str, list[float]], float, float]] = []

    def open(self, coarse: bool = False) -> None:
        if self._log is not None:
            self._log.spans.clear()  # spans of untimed work in between
        self._before = self._kernel.reading(coarse)

    def _close(self, elapsed_s: float, call_s, coarse: bool) -> None:
        after = self._kernel.reading(coarse)
        folded = self._log.fold() if self._log is not None else None
        self._raw.append((elapsed_s, call_s,
                          (self._before + after) / 2.0, folded))
        self._before = after
        self.raw_s += elapsed_s

    def close(self, elapsed_s: float, call_s) -> None:
        """End a slice of short calls that took ``call_s`` seconds each."""
        self._close(elapsed_s, call_s, coarse=False)

    def close_stage(self, elapsed_s: float) -> None:
        """End a slice that was one coarse call."""
        self._close(elapsed_s, (elapsed_s,), coarse=True)

    def finalise(self) -> None:
        floor = self._kernel.floor_s
        for elapsed_s, call_s, reading, folded in self._raw:
            scale = 1000.0 / ((1.0 - DAMPING) * floor + DAMPING * reading)
            self.call_ref_us.extend(seconds * scale for seconds in call_s)
            if folded is not None:
                ops, covered = folded
                self.layers.append((
                    {op: [self_s * scale, calls] for op, (self_s, calls) in ops.items()},
                    covered * scale, elapsed_s * scale))
        self._raw.clear()


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]
