#!/usr/bin/env python
"""Perf-smoke regression gate: current sweep vs checked-in baseline.

Compares the cluster-scaling sweep a benchmark run just wrote
(``benchmarks/results/cluster_scaling.json``) against the committed
baseline (``benchmarks/baselines/cluster_scaling.json``) and exits
non-zero when any arm's throughput regressed by more than the tolerance
(default 10 %).  Both files are byte-deterministic products of the
simulated-clock sweep, so any drift is a real behavior change, not
machine noise — the tolerance only leaves room for intentional small
cost-model adjustments.

Usage::

    python scripts/check_perf_baseline.py \
        [--results benchmarks/results/cluster_scaling.json] \
        [--baseline benchmarks/baselines/cluster_scaling.json] \
        [--tolerance 0.10] [--update] \
        [--history benchmarks/BENCH_trajectory.json] [--note <sha>]
    python scripts/check_perf_baseline.py --wallclock BENCH_wallclock.json

``--update`` rewrites the baseline from the current results instead of
checking (for intentional perf changes; commit the diff).

``--wallclock BENCH_wallclock.json`` checks the committed wall-clock
trajectory instead (see ``scripts/append_bench_row.py``): per workload,
every end-to-end metric of the last row against the row before it, with
the metric's direction and ``bound`` read from ``BENCHMARK.json``; exit 1
when any metric is worse by more than its bound.  The rows are
reference-normalised medians measured when each PR was written, so this
gates what was committed, not the machine CI runs on.

``--history`` appends this run's per-arm summary (and deltas against
the baseline, when one exists) to a perf-trajectory JSON file, creating
it on first use.  Entries carry a monotonically increasing sequence
number and an optional ``--note`` (CI passes the commit SHA) instead of
timestamps, so the file is reproducible in tests and meaningful across
machines; the perf-smoke CI job uploads it as an artifact, giving the
throughput numbers a visible history instead of a single pass/fail bit.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_RESULTS = REPO_ROOT / "benchmarks" / "results" / "cluster_scaling.json"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "cluster_scaling.json"
BENCHMARK_SPEC = REPO_ROOT / "BENCHMARK.json"


def _arms_by_replicas(payload: dict) -> dict[int, dict]:
    return {int(arm["replicas"]): arm for arm in payload["arms"]}


def check(results_path: pathlib.Path, baseline_path: pathlib.Path,
          tolerance: float) -> int:
    results = json.loads(results_path.read_text())
    baseline = json.loads(baseline_path.read_text())
    current = _arms_by_replicas(results)
    expected = _arms_by_replicas(baseline)

    missing = sorted(set(expected) - set(current))
    if missing:
        print(f"FAIL: results are missing replica arms {missing}")
        return 1

    failures = 0
    for replicas, base_arm in sorted(expected.items()):
        base = base_arm["throughput"]
        now = current[replicas]["throughput"]
        floor = base * (1.0 - tolerance)
        delta = (now - base) / base
        status = "ok"
        if now < floor:
            status = "REGRESSION"
            failures += 1
        print(f"{replicas} replica(s): {now:,.0f} req/s vs baseline "
              f"{base:,.0f} req/s ({delta:+.1%}, floor {floor:,.0f}) "
              f"[{status}]")
    if failures:
        print(f"FAIL: {failures} arm(s) regressed more than "
              f"{tolerance:.0%} below baseline")
        return 1
    print("ok: throughput within tolerance on every arm")
    return 0


def check_wallclock(history_path: pathlib.Path,
                    spec_path: pathlib.Path = BENCHMARK_SPEC) -> int:
    """Last row of a ``bench-wallclock`` trajectory vs the row before."""
    history = json.loads(history_path.read_text())
    if history.get("format") != "bench-wallclock":
        print(f"FAIL: {history_path} is not a bench-wallclock file")
        return 1
    if len(history["runs"]) < 2:
        print(f"FAIL: {history_path} needs two rows to compare")
        return 1
    before, after = history["runs"][-2:]
    if (before["seed"], before["smoke"]) != (after["seed"], after["smoke"]):
        print(f"FAIL: rows #{before['sequence']} and #{after['sequence']} "
              "were measured with different seeds or sizes")
        return 1
    metrics = json.loads(spec_path.read_text())["end_to_end"]
    failures = 0
    for workload in sorted(set(before["workloads"]) & set(after["workloads"])):
        old = before["workloads"][workload]["end_to_end"]
        new = after["workloads"][workload]["end_to_end"]
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            ratio = new[name] / old[name]
            worse_by = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            status = "ok"
            if worse_by > bound:
                status = "REGRESSION"
                failures += 1
            print(f"{workload:<20s}{name:<18s}{old[name]:>12.4f} -> "
                  f"{new[name]:>12.4f} ({ratio - 1.0:+.1%}, bound "
                  f"{bound:.0%}) [{status}]")
    if failures:
        print(f"FAIL: {failures} metric(s) of row #{after['sequence']} are "
              f"worse than row #{before['sequence']} by more than their bound")
        return 1
    print(f"ok: row #{after['sequence']} within every bound of "
          f"row #{before['sequence']}")
    return 0


def append_history(history_path: pathlib.Path, results_path: pathlib.Path,
                   baseline_path: pathlib.Path, note: str) -> None:
    """Append one trajectory entry; create the history file if needed.

    Each entry is deterministic for deterministic results: sequence
    number, per-arm throughput/p99, fractional deltas vs the baseline
    (omitted when no baseline exists yet), and the caller's note.
    """
    results = json.loads(results_path.read_text())
    current = _arms_by_replicas(results)
    expected: dict[int, dict] = {}
    if baseline_path.exists():
        expected = _arms_by_replicas(json.loads(baseline_path.read_text()))

    if history_path.exists():
        history = json.loads(history_path.read_text())
    else:
        history = {"format": "bench-trajectory", "version": 1, "runs": []}
    if history.get("format") != "bench-trajectory":
        raise ValueError(f"{history_path}: not a bench-trajectory file")

    arms = []
    for replicas, arm in sorted(current.items()):
        entry = {
            "replicas": replicas,
            "throughput": arm["throughput"],
            "p99_ms": arm.get("p99_ms"),
        }
        base = expected.get(replicas)
        if base is not None and base.get("throughput"):
            entry["delta_vs_baseline"] = round(
                (arm["throughput"] - base["throughput"]) / base["throughput"], 6)
        arms.append(entry)
    history["runs"].append({
        "sequence": len(history["runs"]),
        "note": note,
        "arms": arms,
    })
    history_path.parent.mkdir(parents=True, exist_ok=True)
    history_path.write_text(json.dumps(history, sort_keys=True, indent=2)
                            + "\n")
    print(f"history: appended run #{len(history['runs']) - 1} "
          f"({len(arms)} arm(s)) to {history_path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=pathlib.Path,
                        default=DEFAULT_RESULTS)
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional throughput drop (default 0.10)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current results")
    parser.add_argument("--history", type=pathlib.Path, default=None,
                        metavar="PATH", nargs="?",
                        const=REPO_ROOT / "benchmarks" / "BENCH_trajectory.json",
                        help="append this run to a perf-trajectory file "
                             "(default benchmarks/BENCH_trajectory.json)")
    parser.add_argument("--note", type=str, default="",
                        help="free-form label for the history entry "
                             "(CI passes the commit SHA)")
    parser.add_argument("--wallclock", type=pathlib.Path, default=None,
                        metavar="PATH",
                        help="check the last two rows of a bench-wallclock "
                             "trajectory against BENCHMARK.json's bounds")
    args = parser.parse_args(argv)

    if args.wallclock is not None:
        return check_wallclock(args.wallclock)
    if not args.results.exists():
        print(f"FAIL: no results at {args.results} — "
              "run benchmarks/bench_cluster_scaling.py first")
        return 1
    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(args.results, args.baseline)
        print(f"baseline updated from {args.results}")
        return 0
    if args.history is not None:
        append_history(args.history, args.results, args.baseline, args.note)
    if not args.baseline.exists():
        print(f"FAIL: no baseline at {args.baseline} — "
              "run with --update to create one")
        return 1
    return check(args.results, args.baseline, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
