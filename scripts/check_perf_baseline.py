#!/usr/bin/env python
"""Perf-smoke gate on the committed wall-clock trajectory.

Usage::

    python scripts/check_perf_baseline.py --wallclock BENCH_wallclock.json

Checks the committed trajectory (see ``scripts/append_bench_row.py``):
per workload, every end-to-end metric of the last row against the row
before it, and every metric an earlier row claimed (its ``claims``)
against the best value claimed for it, with the metric's direction and
``bound`` read from ``BENCHMARK.json``; exit 1 when any metric is worse by
more than its bound.  Only rows measured with the last row's seed and
sizes are compared.  The rows are reference-normalised medians measured
when each PR was written, so this gates what was committed, not the
machine CI runs on.  (The simulated-clock scaling sweep needs no gate of
its own: ``ci/artifact_digests.sha256`` pins ``cluster_scaling.json``
byte for byte.)
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK_SPEC = REPO_ROOT / "BENCHMARK.json"


def _judge(workload: str, metric: dict, old: float, new: float,
           against: str = "") -> bool:
    """Print one comparison line; True when ``new`` is worse than ``old``
    by more than the metric's bound."""
    name, bound = metric["name"], metric["bound"]
    ratio = new / old
    worse_by = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
    regressed = worse_by > bound
    print(f"{workload:<20s}{name:<18s}{old:>12.4f} -> {new:>12.4f} "
          f"({ratio - 1.0:+.1%}{against}, bound {bound:.0%}) "
          f"[{'REGRESSION' if regressed else 'ok'}]")
    return regressed


def _claimed_best(runs: list[dict], metrics: dict) -> dict:
    """``(workload, metric) -> (best value, row)`` over the claims of
    ``runs``, for the metrics ``BENCHMARK.json`` bounds."""
    best: dict = {}
    for run in runs:
        for claim in run.get("claims", ()):
            workload, _, name = claim.partition("/")
            if name not in metrics:
                continue
            value = run["workloads"][workload]["end_to_end"][name]
            held = best.get((workload, name))
            lower = metrics[name]["better"] == "lower"
            if held is None or (value < held[0] if lower else value > held[0]):
                best[(workload, name)] = (value, run["sequence"])
    return best


def check_wallclock(history_path: pathlib.Path,
                    spec_path: pathlib.Path = BENCHMARK_SPEC) -> int:
    """Last row of a ``bench-wallclock`` trajectory vs the row before, and
    vs the best value any earlier row claimed."""
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
            failures += _judge(workload, metric, old[metric["name"]],
                               new[metric["name"]])
    # A gain claimed once stays the floor: drift in steps each inside the
    # bound still fails once it adds up past the bound.
    measured_like = (after["seed"], after["smoke"])
    comparable = [run for run in history["runs"][:-1]
                  if (run["seed"], run["smoke"]) == measured_like]
    by_name = {metric["name"]: metric for metric in metrics}
    for (workload, name), (value, sequence) in sorted(
            _claimed_best(comparable, by_name).items()):
        if workload in after["workloads"]:
            failures += _judge(workload, by_name[name], value,
                               after["workloads"][workload]["end_to_end"][name],
                               against=f" vs row #{sequence}'s claim")
    if failures:
        print(f"FAIL: {failures} metric(s) of row #{after['sequence']} are "
              f"worse than row #{before['sequence']}, or than an earlier "
              "row's claim, by more than their bound")
        return 1
    print(f"ok: row #{after['sequence']} within every bound of "
          f"row #{before['sequence']} and of every earlier claim")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--wallclock", type=pathlib.Path, required=True,
                        metavar="PATH",
                        help="check the last row of a bench-wallclock "
                             "trajectory against the row before and the "
                             "earlier rows' claims, on BENCHMARK.json's bounds")
    return check_wallclock(parser.parse_args(argv).wallclock)


if __name__ == "__main__":
    sys.exit(main())
