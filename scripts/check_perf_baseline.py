#!/usr/bin/env python
"""Perf-smoke gate on the committed wall-clock trajectory.

Usage::

    python scripts/check_perf_baseline.py --wallclock BENCH_wallclock.json

Checks the committed trajectory (see ``scripts/append_bench_row.py``):
per workload, every end-to-end metric of the last row against the row
before it, with the metric's direction and ``bound`` read from
``BENCHMARK.json``; exit 1 when any metric is worse by more than its
bound.  The rows are reference-normalised medians measured when each PR
was written, so this gates what was committed, not the machine CI runs
on.  (The simulated-clock scaling sweep needs no gate of its own:
``ci/artifact_digests.sha256`` pins ``cluster_scaling.json`` byte for
byte.)
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK_SPEC = REPO_ROOT / "BENCHMARK.json"


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--wallclock", type=pathlib.Path, required=True,
                        metavar="PATH",
                        help="check the last two rows of a bench-wallclock "
                             "trajectory against BENCHMARK.json's bounds")
    return check_wallclock(parser.parse_args(argv).wallclock)


if __name__ == "__main__":
    sys.exit(main())
