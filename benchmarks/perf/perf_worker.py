"""One workload, measured in this process; prints one JSON result line.

``run.py`` starts this file in a fresh interpreter (``PYTHONHASHSEED=0``)
per workload and traced/untraced mode, one at a time.  A repetition
builds fresh objects from identical inputs, so call *j* of every
repetition is the same instruction stream; the reported cost is the sum
over call indices of the median across repetitions of the call's ref-µs
(see ``perf_kernel``), and the per-call percentiles are taken over
per-call-index values the same way.
"""

from __future__ import annotations

import json
import pathlib
import resource
import sys
from statistics import median

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from perf_kernel import (Recorder, ReferenceKernel, paused_gc,  # noqa: E402
                         percentile)
from perf_layers import TARGETS, SpanLog  # noqa: E402
from perf_workloads import WORKLOADS, Repetition  # noqa: E402

from repro.obs.timebase import wall_now  # noqa: E402

#: End-to-end repetitions are never fewer than this (2 for the traced
#: run's pairs and for ``--smoke``).
MIN_REPETITIONS = 5


def run_repetition(workload, seed: int, log: SpanLog | None) -> Repetition:
    """Set up fresh objects (timed as set-up), then drive them."""
    if log is not None:
        log.install()
    try:
        setup = Recorder(workload.kernel, log)
        with paused_gc():
            setup.open(coarse=True)
            started = wall_now()
            inputs = workload.inputs(seed)
            state = workload.build(inputs)
            setup.close_stage(wall_now() - started)
        with paused_gc():
            repetition = workload.drive(state, inputs, log)
    finally:
        if log is not None:
            log.uninstall()
    repetition.setup = setup
    return repetition


def _per_call(recorders: list[Recorder], combine=median) -> list[float]:
    """Each call's cost, combined across repetitions by call index."""
    return [combine(values) for values in zip(*(r.call_ref_us for r in recorders))]


def _estimate(repetitions: list[Repetition]) -> dict[str, float]:
    """The estimator over a set of repetitions.

    A call's cost is its median across repetitions: once the work is
    normalised by the kernel the error goes either way (the state between
    two readings need not be the state at them), and on recorded data the
    median agreed better from run to run than the lower quartile or the
    minimum, which follow whichever machine state normalises lowest.
    Only the p99 is taken over per-call minima: interrupts and
    preemption, which only ever add time, hit one call in a few, and in
    the machine's slow state that lifts the median — and the second
    smallest of five — at 1 % of the call indices.  Over 6 processes the
    p99's interquartile spread was 2–4 % with the minimum against 4–8 %
    with the lower quartile, on every workload.
    """
    calls = [r.calls for r in repetitions]
    return {
        "ref_us_per_unit": (sum(_per_call([r.cost for r in repetitions]))
                            / repetitions[0].units),
        "ref_us_call_p50": percentile(sorted(_per_call(calls)), 50),
        "ref_us_call_p99": percentile(sorted(_per_call(calls, min)), 99),
        "setup_s": _per_call([r.setup for r in repetitions])[0] / 1e6,
    }


def end_to_end(repetitions: list[Repetition]) -> dict[str, dict]:
    """The timed end-to-end metrics, each with the sample count behind it
    and the leave-one-repetition-out estimates ``--compare`` derives the
    estimator's spread from."""
    first = repetitions[0]
    n = len(repetitions)
    samples = {
        "ref_us_per_unit": f"{n} reps x {len(first.cost.call_ref_us)} calls",
        "ref_us_call_p50": f"{n} reps x {len(first.calls.call_ref_us)} calls",
        "ref_us_call_p99": f"{n} reps x {len(first.calls.call_ref_us)} calls",
        "setup_s": f"{n} reps",
    }
    held_out = [_estimate(repetitions[:i] + repetitions[i + 1:])
                for i in range(n)]
    return {name: {"value": value, "n": samples[name],
                   "leave_one_out": [estimate[name] for estimate in held_out]}
            for name, value in _estimate(repetitions).items()}


def per_layer(traced: list[Repetition], plain: list[Repetition],
              kernel: ReferenceKernel, failed_share: float) -> dict[str, float]:
    """Per-op self time and call counts from the traced repetitions,
    the layers' own counts, and the ``bench.*`` diagnostics."""
    first = traced[0]
    units = first.units
    slice_lists = [r.setup.layers + r.cost.layers
                   + (r.calls.layers if r.calls is not r.cost else [])
                   for r in traced]
    self_us = dict.fromkeys(TARGETS, 0.0)
    calls = dict.fromkeys(TARGETS, 0)
    for position in zip(*slice_lists):
        for op, (_, count) in position[0][0].items():
            calls[op] += count
            self_us[op] += median(
                folded.get(op, (0.0, 0))[0] for folded, _, _ in position)
    values: dict[str, float] = {}
    for op in TARGETS:
        values[f"{op}.self_ref_us_per_unit"] = self_us[op] / units
        values[f"{op}.calls_per_unit"] = calls[op] / units

    # Drive slices only: set-up is its own metric and has no ingress span.
    drive = slice_lists[0][1:]
    covered = sum(entry[1] for entry in drive)
    elapsed = sum(entry[2] for entry in drive)

    c = first.counts
    requests = c["requests"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    traced_cost = _estimate(traced)["ref_us_per_unit"]
    plain_cost = _estimate(plain)["ref_us_per_unit"]
    raw_s = median(r.cost.raw_s for r in plain)
    values.update({
        "serving.cluster.flushes_per_kreq": ratio(1000.0 * c["batch_runs"], requests),
        "serving.cluster.mean_flush_size": ratio(c["batch_queries"], c["batch_runs"]),
        "serving.cluster.shed_share": ratio(c["shed"], requests),
        "serving.cluster.failover_share": ratio(c["failovers"], requests),
        "serving.cluster.groups_per_window": ratio(
            calls["serving.deployment.serve_batch"],
            calls["serving.cluster.handle_batch"]),
        "serving.router.ring_size": c["ring_size"],
        "serving.deployment.dead_lettered": c["dead_lettered"],
        "serving.deployment.retries_per_kreq": ratio(1000.0 * c["retries"], requests),
        "serving.cache.hit_rate": ratio(c["cache_hits"], c["cache_requests"]),
        "serving.cache.pending_peak": c["pending_peak"],
        "serving.resilience.attempts_per_call": ratio(
            c["generator_calls"], calls["serving.resilience.generate_batch"]),
        "generator.prompts_per_req": ratio(c["generator_prompts"], requests),
        "generator.mean_prompts_per_call": ratio(c["generator_prompts"],
                                                 c["generator_calls"]),
        "obs.tracing.kept_trace_share": ratio(c["traces_kept"], c["traces_finished"]),
        "core.kg.edges": c.get("edges", 0),
        "core.kg.nodes": c.get("nodes", 0),
        "core.kg_io.archive_bytes_per_edge": ratio(c.get("archive_bytes", 0),
                                                   c.get("edges", 0)),
        "refresh.snapshot.tracked_objects_per_edge": ratio(
            first.tracked_objects, c.get("edges", 0)),
        "refresh.quality.gate_promote": c.get("gate_promote", 0),
        "sim.p99_ms": c["sim_p99_ms"],
        "sim.fresh_share": ratio(c["served_fresh"], requests),
        "llm_calls_per_request": ratio(c["generator_prompts"], requests),
        "bench.failed_share": failed_share,
        "bench.trace_overhead_ratio": ratio(traced_cost, plain_cost),
        "bench.untraced_ref_us_per_unit": plain_cost,
        "bench.unattributed_share": 1.0 - ratio(covered, elapsed),
        "bench.ref_kernel_us": 1e6 * kernel.spent_s / kernel.calls,
        "bench.ref_kernel_floor_us": 1e6 * kernel.floor_s,
        "bench.raw_s_per_rep": raw_s,
        "bench.raw_units_per_s": ratio(units, raw_s),
    })
    return values


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    kernel = ReferenceKernel()
    workload = WORKLOADS[name](kernel, smoke)
    log = SpanLog() if trace else None
    minimum = 2 if trace or smoke else MIN_REPETITIONS
    plain: list[Repetition] = []
    traced: list[Repetition] = []
    peak_kb = 0
    started = wall_now()
    while len(plain) < minimum or wall_now() - started < seconds:
        plain.append(run_repetition(workload, seed, None))
        if log is not None:
            traced.append(run_repetition(workload, seed, log))
        if len(plain) == minimum:
            # Read at a fixed repetition count: every repetition kept
            # holds its per-call timings (≈1 MB on the per-item
            # workload), so the high-water mark at the end would follow
            # how many repetitions the machine fitted into ``seconds``.
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    everything = plain + traced
    for repetition in everything:
        for recorder in (repetition.setup, repetition.cost, repetition.calls):
            recorder.finalise()
    failed = sum(r.failed for r in everything)
    attempted = sum(r.attempted for r in everything)
    # The estimator leans on every repetition being the same program on
    # the same inputs; differing outputs would make it meaningless.
    attempted += 1
    failed += int(any(r.counts != plain[0].counts for r in everything))

    if trace:
        values = per_layer(traced, plain, kernel, failed / attempted)
        metrics = {key: {"value": value} for key, value in values.items()}
    else:
        metrics = end_to_end(plain)
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0,
                                  "n": f"1 process, first {minimum} reps"}
    return {
        "workload": name, "seed": seed, "trace": int(trace), "smoke": smoke,
        "unit_of_work": workload.unit, "repetitions": len(plain),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, smoke = argv
    result = measure(name, int(seed), float(seconds), trace == "1", smoke == "1")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
